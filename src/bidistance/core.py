"""Binary words, codes, and their directional-distance statistics.

A length-n word lives in a packed integer bitmask with coordinate i on
bit i.  For an ordered pair (x, y) the two disagreement directions are
counted separately: d10 is the number of positions where x holds 1 and
y holds 0, d01 the reverse.  The ordinary Hamming distance is their sum.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from ._bitops import (AndCounts, CapExceeded, pack_bits, packed_rows, popcount,
                      row_ints, row_reduce, unpack_rows)

#: pair frequencies are held in 64-bit-sized counters; |C|^2 must fit
MAX_CODE_SIZE = 1 << 28

_WORD_RE = re.compile(r"[01]+")
#: a pair table as {(d10, d01): count}, or as ((d10, d01), count) rows
_Rows = Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]]


class ParseError(ValueError):
    """Malformed input: code files, probability literals, or CLI values."""


@dataclass(frozen=True)
class Word:
    """Fixed-length binary word; coordinate i sits on bit i of ``bits``."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("word length must be at least 1")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bitmask {self.bits} out of range for length {self.n}")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Word":
        seq = list(bits)
        if any(b not in (0, 1) for b in seq):
            raise ValueError("symbols must be 0 or 1")
        return cls(len(seq), sum(b << i for i, b in enumerate(seq)))

    @classmethod
    def from_string(cls, text: str) -> "Word":
        if not _WORD_RE.fullmatch(text):
            raise ValueError(f"not a 0/1 string: {text!r}")
        return cls(len(text), int(text[::-1], 2))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        """0-based coordinates holding a 1."""
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)

    def to_bits(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.n))

    def __xor__(self, other: "Word") -> "Word":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        return Word(self.n, self.bits ^ other.bits)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1]


class BidistancePair(NamedTuple):
    """Ordered directional distances between two words."""

    d10: int
    d01: int

    def swapped(self) -> "BidistancePair":
        return BidistancePair(self.d01, self.d10)

    @property
    def hamming(self) -> int:
        return self.d10 + self.d01


def dir_distances(x: Word, y: Word) -> BidistancePair:
    """Counts of 1->0 and 0->1 disagreements from x to y."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} != {y.n}")
    return BidistancePair((x.bits & ~y.bits).bit_count(), (y.bits & ~x.bits).bit_count())


class _Frozen:
    """Only the constructors write attributes, past this refusal, and then only ``_keep``."""

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _keep(self, name: str, build: Callable[[], Any]) -> Any:
        """The value kept under ``name``, built by ``build()`` on first use only."""
        kept = vars(self)
        return kept[name] if name in kept else kept.setdefault(name, build())


def _sealed(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` on an immutable ``bytes`` buffer, so no flag makes it writeable."""
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)


class Code(_Frozen):
    """Distinct equal-length binary words, kept in first-seen order.

    ``is_linear`` is metadata: asserting it triggers an actual subspace
    check (power-of-two size and XOR closure via a rank computation).
    A code is immutable, so its pair table, the table's support, the weight
    distribution, the read-only packed rows, the member set and its weight-class bound
    plan are computed once and kept.  A code built as the span of rows keeps them in ``_basis``.
    """

    _basis: tuple[int, ...] | None = None

    def __init__(self, n: int, words: Iterable[int], is_linear: bool | None = None):
        masks = tuple(map(int, words))
        if n < 1:
            raise ValueError("code length must be at least 1")
        if not masks:
            raise ValueError("a code needs at least one word")
        if len(masks) > MAX_CODE_SIZE:
            raise ValueError(f"codes are capped at {MAX_CODE_SIZE} words")
        top = 1 << n
        if min(masks) < 0 or max(masks) >= top:
            bad = next(w for w in masks if not 0 <= w < top)
            raise ValueError(f"word {bad} out of range for length {n}")
        if len(set(masks)) != len(masks):
            raise ValueError("duplicate codewords")
        vars(self).update(n=n, words=masks, is_linear=is_linear)
        if is_linear:
            self._check_linear()

    def _check_linear(self) -> None:
        """Distinct words form a subspace iff there are 2^rank of them."""
        _, pivots = row_reduce(self.packed(), self.n)
        if len(self.words) != 1 << len(pivots):
            raise ValueError("code is not linear: size differs from its span")

    @classmethod
    def of_span(cls, n: int, span: np.ndarray, basis: tuple[int, ...]) -> "Code":
        """The code of the packed rows of the whole span of independent ``basis`` rows, in
        ascending order; they are distinct and in range by construction, so unchecked."""
        code, packed = object.__new__(cls), _sealed(span[np.lexsort(span.T)])
        vars(code).update(n=n, words=tuple(row_ints(packed)), is_linear=True, _basis=basis,
                          _packed=packed)
        return code

    def __reduce__(self) -> tuple:
        return Code, (self.n, self.words, self.is_linear)

    def packed(self) -> np.ndarray:
        """The (M, ceil(n/64)) packed rows of the words, built on first use only."""
        return self._keep("_packed", lambda: packed_rows(self.words, self.n))

    @classmethod
    def from_words(cls, words: Iterable[Word], is_linear: bool | None = None) -> "Code":
        seq = list(words)
        if not seq:
            raise ValueError("a code needs at least one word")
        n = seq[0].n
        if any(w.n != n for w in seq):
            raise ValueError("all words must share one length")
        return cls(n, (w.bits for w in seq), is_linear=is_linear)

    @classmethod
    def from_strings(cls, lines: Iterable[str], is_linear: bool | None = None) -> "Code":
        return cls.from_words([Word.from_string(s) for s in lines], is_linear=is_linear)

    @classmethod
    def from_file(cls, path: str | Path) -> "Code":
        path = Path(path)
        try:
            return parse_code_text(path.read_text(encoding="utf-8"), source=str(path))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(format_code_text(self))

    def pair_table(self) -> Mapping[tuple[int, int, int], int]:
        """Frequency of every (wt(x), d10, d01) over the |C|^2 ordered pairs, in
        ``pair_support()`` row order; the pair distribution is its projection."""
        return MappingProxyType(dict(zip(map(tuple, self.pair_support().tolist()),
                                         self.pair_counts().tolist())))

    def pair_support(self) -> np.ndarray:
        """The read-only (K, 3) int64 keys of ``pair_table()``, counted on first use only."""
        return self._keep("_pairs", lambda: _pair_table(self))[0]

    def pair_counts(self) -> np.ndarray:
        """The read-only (K,) int64 count of each ``pair_support()`` row."""
        return self._keep("_pairs", lambda: _pair_table(self))[1]

    def word(self, index: int) -> Word:
        return Word(self.n, self.words[index])

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return (Word(self.n, w) for w in self.words)

    def __contains__(self, item: Word | int) -> bool:
        members = self._keep("_members", lambda: frozenset(self.words))
        if isinstance(item, Word):
            return item.n == self.n and item.bits in members
        return int(item) in members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.n == other.n and sorted(self.words) == sorted(other.words)

    def __repr__(self) -> str:
        return f"Code(n={self.n}, size={len(self.words)})"

    def weight_distribution(self) -> tuple[int, ...]:
        """Number of codewords of each weight 0..n, counted on first use only."""
        return self._keep("_weights", lambda: tuple(np.bincount(
            popcount(self.packed()).sum(axis=1), minlength=self.n + 1).tolist()))


def parse_code_text(text: str, source: str = "<text>") -> Code:
    """One codeword per line as a 0/1 string; blanks and '#' lines skipped (README,
    Library layout: a bad file is read again, line by line, to name its bad line)."""
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    if not lines:
        raise ParseError(f"{source}: no codewords found")
    n, flat = len(lines[0]), "".join(lines).encode("ascii", "replace")
    if len(set(map(len, lines))) > 1 or flat.translate(None, b"01"):
        for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
            if not line or line[0] == "#":
                continue
            if not _WORD_RE.fullmatch(line):
                raise ParseError(f"{source}:{lineno}: expected a 0/1 word, got {line!r}")
            if len(line) != n:
                raise ParseError(f"{source}:{lineno}: word length {len(line)} differs from {n}")
    packed = _sealed(pack_bits(np.frombuffer(flat, dtype=np.uint8).reshape(len(lines), n) & 1))
    try:
        code = Code(n, row_ints(packed))
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None
    code._keep("_packed", lambda: packed)
    return code


def format_code_text(code: Code) -> str:
    text = np.full((len(code), code.n + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = unpack_rows(code.packed(), code.n) + ord("0")
    return text.tobytes().decode("ascii")


class BidistanceDistribution(_Frozen):
    """Frequencies A(d10, d01) over all ordered pairs of a code: read-only (K, 2) int64
    ``pairs`` in lexicographic order, so the diagonal (0, 0), counted size times, is first,
    and their (K,) int64 ``counts``; ``entries`` is the same table as a read-only mapping.
    A caller passes a mapping or (pair, count) rows, repeated pairs summed, checked to be
    integers, symmetric (A(i, j) = A(j, i)) and in range, with total mass size**2."""

    def __init__(self, n: int, size: int, entries: _Rows) -> None:
        table: dict[tuple[int, int], int] = {}
        for (a, b), c in entries.items() if hasattr(entries, "items") else entries:
            key = (index(a), index(b))
            table[key] = table.get(key, 0) + index(c)
        entries = MappingProxyType({key: c for key, c in sorted(table.items()) if c})
        rows = _sealed(np.array([(*k, c) for k, c in entries.items()], np.int64).reshape(-1, 3))
        vars(self).update(n=n, size=size, pairs=rows[:, :2], counts=rows[:, 2], entries=entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        """The checks on a caller's table; the pair-table build skips them."""
        entries = self.entries
        if self.size < 1:
            raise ValueError("distribution size must be positive")
        if entries.get((0, 0)) != self.size:
            raise ValueError("entry (0, 0) must equal the code size")
        for (a, b), c in entries.items():
            if a < 0 or b < 0 or a + b > self.n:
                raise ValueError(f"pair ({a}, {b}) out of range for length {self.n}")
            if c < 0:
                raise ValueError("frequencies must be non-negative")
            if entries.get((b, a)) != c:
                raise ValueError(f"asymmetric frequencies at ({a}, {b})")
        total = sum(entries.values())
        if total != self.size * self.size:
            raise ValueError(f"total frequency {total} != size^2 = {self.size ** 2}")

    @classmethod
    def from_off_diagonal(cls, n: int, size: int, entries: _Rows) -> "BidistanceDistribution":
        """Assemble a distribution from its off-diagonal part, a mapping or rows; a (0, 0)
        entry there would add to the diagonal, which the checks refuse."""
        rows = entries.items() if hasattr(entries, "items") else entries
        return cls(n, size, [((0, 0), size), *rows])

    def __reduce__(self) -> tuple:
        return BidistanceDistribution, (self.n, self.size, list(self._rows()))

    @property
    def entries(self) -> Mapping[tuple[int, int], int]:
        """{(d10, d01): count} in ``pairs`` order, read-only, built on first read only."""
        return self._keep("entries", lambda: MappingProxyType(dict(self._rows())))

    def _rows(self, start: int = 0) -> Iterator[tuple[tuple[int, int], int]]:
        return zip(map(tuple, self.pairs[start:].tolist()), self.counts[start:].tolist())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BidistanceDistribution) and \
            (self.n, self.size, self.entries) == (other.n, other.size, other.entries)

    def __repr__(self) -> str:
        return f"BidistanceDistribution(n={self.n}, size={self.size}, entries={dict(self.entries)})"

    def frequency(self, d10: int, d01: int) -> int:
        return self.entries.get((d10, d01), 0)

    def off_diagonal(self) -> dict[tuple[int, int], int]:
        return dict(self._rows(1))

    def multiset(self) -> list[tuple[tuple[int, int], int]]:
        """Lexicographically sorted (pair, frequency) list, (0, 0) omitted."""
        return list(self._rows(1))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "size": self.size,
                "entries": [{"d10": a, "d01": b, "count": c} for (a, b), c in self._rows()]}


def bidistance_distribution(code: Code) -> BidistanceDistribution:
    """Frequency of every (d10, d01) over the |C|^2 ordered codeword pairs: the pair table's
    counts summed in int64, exact past 2^53, and unchecked, as valid by construction."""
    pairs = code.pair_support()[:, 1:]
    key = pairs[:, 0] * (code.n + 1) + pairs[:, 1]  # ascends as (d10, d01) does
    order = np.argsort(key)
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    dist = object.__new__(BidistanceDistribution)
    vars(dist).update(n=code.n, size=len(code), pairs=_sealed(pairs[order[first]]),
                      counts=_sealed(np.add.reduceat(code.pair_counts()[order], first)))
    return dist


def _pair_table(code: Code) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (K, 3) int64 (wt(x), d10, d01) keys and (K,) int64 counts over all ordered
    pairs of the words of ``code`` (README, Library layout)."""
    if code.n >= 1 << 21:
        raise ValueError(f"pair tables support lengths below 2^21, got {code.n}")
    pairs = AndCounts.of_code(code)
    wts, col_class = np.unique(pairs.weights.astype(np.int64), return_inverse=True)
    cells, counts = [], []
    for k, w in enumerate(wts.tolist()):  # class k: W (w + 1) cells of (class of y, c)
        rows, base = np.flatnonzero(col_class == k), col_class[:, None] * (w + 1)
        acc = np.zeros(len(wts) * (w + 1), dtype=np.int64)
        for at in range(0, len(rows), pairs.rows):
            common = pairs.word_major(pairs.bits[rows[at:at + pairs.rows]])
            acc += np.bincount((base + common).ravel(), minlength=len(acc))
        cells.append(np.flatnonzero(acc))
        counts.append(acc[cells[-1]])
    wx = np.repeat(wts, list(map(len, cells)))
    y, c = np.divmod(np.concatenate(cells), wx + 1)
    return _sealed(np.column_stack([wx, wx - c, wts[y] - c])), _sealed(np.concatenate(counts))


def multiset_repr(dist: BidistanceDistribution) -> list[tuple[tuple[int, int], int]]:
    """Sorted sparse view of a distribution, the (0, 0) entry omitted."""
    return dist.multiset()


def weights_from_bidistance(dist: BidistanceDistribution) -> tuple[int, ...]:
    """Weight distribution recovered by antidiagonal sums, linear codes only: each total
    must be a multiple of the code size, and a remainder proves the code was not linear."""
    sums = np.zeros(dist.n + 1, dtype=np.int64)
    np.add.at(sums, dist.pairs.sum(axis=1), dist.counts)  # exact; a weighted bincount sums floats
    for i, s in enumerate(sums.tolist()):
        if s % dist.size:
            raise ValueError(
                f"antidiagonal {i} sums to {s}, not a multiple of {dist.size}; "
                "the originating code cannot be linear")
    return tuple((sums // dist.size).tolist())


def solve_directional_system(wt_x: int, wt_y: int, wt_xy: int) -> BidistancePair:
    """Directional distances forced by wt(x), wt(y) and wt(x ^ y).

    The three weights overdetermine (d10, d01, d11); infeasible triples
    (odd parity, or any negative count) are rejected.
    """
    num10 = wt_xy + wt_x - wt_y
    num01 = wt_xy - wt_x + wt_y
    num11 = wt_x + wt_y - wt_xy
    if num10 % 2 or num01 % 2 or num11 % 2:
        raise ValueError(f"weights ({wt_x}, {wt_y}, {wt_xy}) have inconsistent parity")
    if num10 < 0 or num01 < 0 or num11 < 0:
        raise ValueError(f"weights ({wt_x}, {wt_y}, {wt_xy}) admit no realizing pair")
    return BidistancePair(num10 // 2, num01 // 2)
