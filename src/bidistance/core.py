"""Binary words, codes, and their directional-distance statistics.

A length-n word lives in a packed integer bitmask with coordinate i on
bit i.  For an ordered pair (x, y) the two disagreement directions are
counted separately: d10 is the number of positions where x holds 1 and
y holds 0, d01 the reverse.  The ordinary Hamming distance is their sum.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from ._bitops import pack_lanes, popcount

#: pair frequencies are held in 64-bit-sized counters; |C|^2 must fit
MAX_CODE_SIZE = 1 << 28

#: ordered pairs counted per numpy pass; small tiles keep the peak memory low
PAIR_TILE = 1 << 14

_WORD_RE = re.compile(r"^[01]+$")


class ParseError(ValueError):
    """Malformed input: code files, probability literals, or CLI values."""


class CapExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured size cap."""


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
        mask = 0
        for i, b in enumerate(seq):
            if b not in (0, 1):
                raise ValueError("symbols must be 0 or 1")
            mask |= b << i
        return cls(len(seq), mask)

    @classmethod
    def from_string(cls, text: str) -> "Word":
        if not _WORD_RE.match(text):
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
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))


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


class Code:
    """Distinct equal-length binary words, kept in first-seen order.

    ``is_linear`` is metadata: asserting it triggers an actual subspace
    check (power-of-two size and XOR closure via a rank computation).
    A code is immutable, so its pair table, the table's support and the
    weight distribution are computed once and kept.
    """

    __slots__ = ("n", "words", "is_linear", "_pairs", "_support", "_weights")

    def __init__(self, n: int, words: Iterable[int], is_linear: bool | None = None):
        masks = tuple(int(w) for w in words)
        if n < 1:
            raise ValueError("code length must be at least 1")
        if not masks:
            raise ValueError("a code needs at least one word")
        if len(masks) > MAX_CODE_SIZE:
            raise ValueError(f"codes are capped at {MAX_CODE_SIZE} words")
        top = 1 << n
        for w in masks:
            if not 0 <= w < top:
                raise ValueError(f"word {w} out of range for length {n}")
        if len(set(masks)) != len(masks):
            raise ValueError("duplicate codewords")
        self.n = n
        self.words = masks
        self._pairs = None
        self._support = None
        self._weights = None
        if is_linear:
            self._check_linear()
        self.is_linear = is_linear

    def _check_linear(self) -> None:
        pivots: dict[int, int] = {}
        for w in self.words:
            v = w
            while v:
                h = v.bit_length() - 1
                if h in pivots:
                    v ^= pivots[h]
                else:
                    pivots[h] = v
                    break
        if len(self.words) != 1 << len(pivots):
            raise ValueError("code is not linear: size differs from its span")

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
        return parse_code_text(path.read_text(), source=str(path))

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(format_code_text(self))

    def pair_table(self) -> Mapping[tuple[int, int, int], int]:
        """Frequency of every (wt(x), d10, d01) over the |C|^2 ordered pairs.

        The pair distribution and both minimum discrepancies are
        projections of this table; it is counted on first use only.
        """
        if self._pairs is None:
            self._pairs = _pair_table(self.n, self.words)
        return MappingProxyType(self._pairs)

    def pair_support(self) -> np.ndarray:
        """The (wt(x), d10, d01) keys of ``pair_table()`` as a read-only
        (K, 3) int64 array, built on first use only."""
        if self._support is None:
            support = np.array(list(self.pair_table()), dtype=np.int64).reshape(-1, 3)
            support.flags.writeable = False
            self._support = support
        return self._support

    def word(self, index: int) -> Word:
        return Word(self.n, self.words[index])

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return (Word(self.n, w) for w in self.words)

    def __contains__(self, item: Word | int) -> bool:
        bits = item.bits if isinstance(item, Word) else int(item)
        return bits in set(self.words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.n == other.n and sorted(self.words) == sorted(other.words)

    def __repr__(self) -> str:
        return f"Code(n={self.n}, size={len(self.words)})"

    def weight_distribution(self) -> tuple[int, ...]:
        """Number of codewords of each weight 0..n, counted on first use only."""
        if self._weights is None:
            counts = [0] * (self.n + 1)
            for w in self.words:
                counts[w.bit_count()] += 1
            self._weights = tuple(counts)
        return self._weights


def parse_code_text(text: str, source: str = "<text>") -> Code:
    """One codeword per line as a 0/1 string; blanks and '#' lines skipped."""
    masks: list[int] = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not _WORD_RE.match(line):
            raise ParseError(f"{source}:{lineno}: expected a 0/1 word, got {line!r}")
        if n is None:
            n = len(line)
        elif len(line) != n:
            raise ParseError(f"{source}:{lineno}: word length {len(line)} differs from {n}")
        masks.append(int(line[::-1], 2))
    if n is None:
        raise ParseError(f"{source}: no codewords found")
    try:
        return Code(n, masks)
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None


def format_code_text(code: Code) -> str:
    return "".join(str(w) + "\n" for w in code)


@dataclass(eq=True)
class BidistanceDistribution:
    """Frequencies A(d10, d01) over all ordered pairs of a code.

    The diagonal entry (0, 0) equals the code size and is stored here;
    only the multiset view drops it.  Entries are validated to be
    symmetric (A(i, j) = A(j, i)) with total mass size**2.
    """

    n: int
    size: int
    entries: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        cleaned = {(int(a), int(b)): int(c) for (a, b), c in self.entries.items() if c}
        self.entries = cleaned
        if self.size < 1:
            raise ValueError("distribution size must be positive")
        if cleaned.get((0, 0)) != self.size:
            raise ValueError("entry (0, 0) must equal the code size")
        total = 0
        for (a, b), c in cleaned.items():
            if a < 0 or b < 0 or a + b > self.n:
                raise ValueError(f"pair ({a}, {b}) out of range for length {self.n}")
            if c < 0:
                raise ValueError("frequencies must be non-negative")
            if cleaned.get((b, a)) != c:
                raise ValueError(f"asymmetric frequencies at ({a}, {b})")
            total += c
        if total != self.size * self.size:
            raise ValueError(f"total frequency {total} != size^2 = {self.size ** 2}")

    @classmethod
    def from_off_diagonal(cls, n: int, size: int,
                          entries: Mapping[tuple[int, int], int]) -> "BidistanceDistribution":
        """Assemble a distribution from its off-diagonal part."""
        full = {(int(a), int(b)): int(c) for (a, b), c in entries.items()}
        if (0, 0) in full:
            raise ValueError("off-diagonal entries must not contain (0, 0)")
        full[(0, 0)] = size
        return cls(n, size, full)

    def frequency(self, d10: int, d01: int) -> int:
        return self.entries.get((d10, d01), 0)

    def off_diagonal(self) -> dict[tuple[int, int], int]:
        return {k: v for k, v in self.entries.items() if k != (0, 0)}

    def multiset(self) -> list[tuple[tuple[int, int], int]]:
        """Lexicographically sorted (pair, frequency) list, (0, 0) omitted."""
        return sorted((k, v) for k, v in self.entries.items() if k != (0, 0))

    def to_json_dict(self) -> dict:
        ordered = sorted(self.entries.items())
        return {
            "n": self.n,
            "size": self.size,
            "entries": [{"d10": a, "d01": b, "count": c} for (a, b), c in ordered],
        }


def bidistance_distribution(code: Code) -> BidistanceDistribution:
    """Frequency of every (d10, d01) over the |C|^2 ordered codeword pairs."""
    entries: dict[tuple[int, int], int] = {}
    for (_, d10, d01), count in code.pair_table().items():
        entries[d10, d01] = entries.get((d10, d01), 0) + count
    return BidistanceDistribution(code.n, len(code), entries)


def _pair_table(n: int, words: tuple[int, ...]) -> dict[tuple[int, int, int], int]:
    """Count (wt(x), d10, d01) over all ordered pairs, a tile of rows at a time.

    Words are packed into 64-bit lanes, so one pass serves every length.
    With c = wt(x & y), d10 = wt(x) - c and d01 = wt(y) - c: one popcount
    per lane and pair gives the whole triple.
    """
    width = n + 1
    if width ** 3 > 1 << 63:
        raise ValueError(f"pair tables support lengths below 2^21, got {n}")
    lanes = pack_lanes(words, n)
    wts = popcount(lanes).sum(axis=1)
    rows = max(1, PAIR_TILE // len(words))
    flat: Counter[int] = Counter()
    for start in range(0, len(words), rows):
        common = popcount(lanes[start:start + rows, None, :] & lanes).sum(axis=2)
        wx = wts[start:start + rows, None]
        keys, counts = np.unique((wx * width + wx - common) * width + wts - common,
                                 return_counts=True)
        flat.update(dict(zip(keys.tolist(), counts.tolist())))
    return {(key // width // width, key // width % width, key % width): count
            for key, count in flat.items()}


def multiset_repr(dist: BidistanceDistribution) -> list[tuple[tuple[int, int], int]]:
    """Sorted sparse view of a distribution, the (0, 0) entry omitted."""
    return dist.multiset()


def weights_from_bidistance(dist: BidistanceDistribution) -> tuple[int, ...]:
    """Weight distribution recovered by antidiagonal sums, linear codes only.

    Each antidiagonal total must be a multiple of the code size; a
    remainder proves the originating code was not linear.
    """
    sums = [0] * (dist.n + 1)
    for (a, b), c in dist.entries.items():
        sums[a + b] += c
    counts = []
    for i, s in enumerate(sums):
        if s % dist.size:
            raise ValueError(
                f"antidiagonal {i} sums to {s}, not a multiple of {dist.size}; "
                "the originating code cannot be linear")
        counts.append(s // dist.size)
    return tuple(counts)


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
