"""GF(2^m) arithmetic, trace-defined codes, and F_2 matrix machinery.

Field elements are bitmasks of polynomial coefficients modulo a fixed
irreducible polynomial; generator-matrix rows are packed like words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from ._bitops import bit_matrix, pack_bits, packed_rows, row_ints, row_reduce, span_words
from .core import CapExceeded, Code, Word

#: one of the two degree-11 factors of x^23 + 1 over F_2
#: (x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1)
GOLAY_GENERATOR_POLY = 0b1100_0111_0101
GOLAY_LENGTH = 23

MAX_ENUM_DIMENSION = 28
#: cells of the 2^(n-k) x (n+1) coset table: 256 MiB of int64 with its gathered copy
COSET_TABLE_CAP = 1 << 24


def _poly_mod(a: int, m: int) -> int:
    width = m.bit_length()
    while a.bit_length() >= width:
        a ^= m << (a.bit_length() - width)
    return a


def _is_irreducible(poly: int, m: int) -> bool:
    """Trial division by every polynomial of degree 1..m//2."""
    if m < 1 or poly.bit_length() != m + 1:
        return False
    for d in range(2, 1 << (m // 2 + 1)):
        if _poly_mod(poly, d) == 0:
            return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(m: int) -> int:
    """Smallest-bitmask irreducible polynomial of degree m."""
    for cand in range(1 << m, 1 << (m + 1)):
        if _is_irreducible(cand, m):
            return cand
    raise AssertionError(f"no irreducible of degree {m}")  # cannot happen


@dataclass(frozen=True)
class BinaryField:
    """GF(2^m) with elements encoded as coefficient bitmasks below 2^m.

    The modulus defaults to the smallest irreducible of degree m, so
    element encodings are reproducible; any degree-m irreducible may be
    passed instead and is verified at construction.
    """

    m: int
    modulus: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.m <= 16:
            raise ValueError("supported extension degrees are 1..16")
        if self.modulus == 0:
            object.__setattr__(self, "modulus", smallest_irreducible(self.m))
        if self.modulus.bit_length() != self.m + 1:
            raise ValueError(f"modulus must have degree {self.m}")
        if not _is_irreducible(self.modulus, self.m):
            raise ValueError(f"modulus {bin(self.modulus)} is reducible")

    @property
    def order(self) -> int:
        return 1 << self.m

    def _check(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError(f"element {a} outside GF(2^{self.m})")

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if (a >> self.m) & 1:
                a ^= self.modulus
            b >>= 1
        return r

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponents are not supported")
        self._check(a)
        r = 1
        base = a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def inverse(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.order - 2)

    @cached_property
    def trace_mask(self) -> int:
        """Tr is F_2-linear, so Tr(a) = parity(a & mask): bit j of the mask is Tr(2^j),
        the sum of the m powers (2^j)^(2^i) of 2^j."""
        powers = traces = [1 << j for j in range(self.m)]
        for _ in range(self.m - 1):
            powers = [self.mul(x, x) for x in powers]
            traces = [t ^ x for t, x in zip(traces, powers)]
        return sum(t << j for j, t in enumerate(traces))

    def trace(self, a: int) -> int:
        """Absolute trace down to F_2."""
        self._check(a)
        return (a & self.trace_mask).bit_count() & 1


def relative_trace(field: BinaryField, d: int, a: int, source: int | None = None) -> int:
    """Trace from GF(2^source) down to GF(2^d), evaluated inside ``field``.

    ``source`` defaults to the full degree m.  The element must lie in the
    GF(2^source) subfield, and the result lands in GF(2^d); both membership
    facts are checked via the Frobenius fixed-point test.
    """
    e = field.m if source is None else source
    if d < 1 or e % d or field.m % e:
        raise ValueError(f"need d | source | m, got d={d}, source={e}, m={field.m}")
    if field.pow(a, 1 << e) != a:
        raise ValueError(f"element {a} is not in the GF(2^{e}) subfield")
    t = 0
    x = a
    for _ in range(e // d):
        t ^= x
        x = field.pow(x, 1 << d)
    if field.pow(t, 1 << d) != t:
        raise AssertionError("trace left the target subfield")
    return t


def defining_set_code(field: BinaryField, defining_set: Sequence[int]) -> Code:
    """Linear code of trace evaluations over a set of field elements: the word of beta
    has Tr(beta * d_i) at coordinate i, F_2-linear in beta, so the code is the span of
    the m basis-element words, reduced to a basis first (its size is the actual one)."""
    elems = list(defining_set)
    if not elems:
        raise ValueError("the defining set is empty")
    if len(set(elems)) != len(elems):
        raise ValueError("defining-set elements must be distinct")
    if 0 in elems:
        raise ValueError("defining-set elements must be nonzero")
    for x in elems:
        field._check(x)
    # row j holds Tr(2^j d) for every d: multiply by 2 (a shift, reduced) between rows
    prods, bits = np.array(elems, dtype=np.int64), np.empty((field.m, len(elems)), np.uint8)
    for j in range(field.m):
        bits[j] = np.bitwise_count(prods & field.trace_mask) & 1
        prods <<= 1
        prods ^= (prods >> field.m) * field.modulus
    reduced, _ = row_reduce(pack_bits(bits), len(elems))
    return GeneratorMatrix.of_basis(len(elems), row_ints(reduced)).codewords()


def trace_code_27_6() -> Code:
    """The [27,6] two-weight trace code over GF(64): its defining set holds the nonzero
    elements whose ninth power, a GF(8) element, has subfield trace zero."""
    field = BinaryField(6)
    square = [field.mul(x, x) for x in range(field.order)]
    ninth = [field.mul(square[square[square[x]]], x) for x in range(1, field.order)]  # x^8 x
    trace = {y: relative_trace(field, 1, y, source=3) for y in set(ninth)}
    return defining_set_code(field, [x for x, y in enumerate(ninth, 1) if trace[y] == 0])


def _rref(rows: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over F_2: (reduced rows, pivot columns)."""
    reduced, pivots = row_reduce(packed_rows([int(r) for r in rows], n), n)
    return row_ints(reduced), pivots


def _null_space_rows(rows: Sequence[int], n: int) -> list[int]:
    reduced, pivots = _rref(rows, n)
    free = [c for c in range(n) if c not in pivots]
    null = np.zeros((len(free), n), dtype=np.uint8)
    null[:, free] = np.eye(len(free), dtype=np.uint8)
    null[:, pivots] = bit_matrix(reduced, n)[:, free].T
    return row_ints(pack_bits(null))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Linearly independent rows over F_2, packed LSB-first like words."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(int(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if self.n < 1:
            raise ValueError("length must be at least 1")
        if not rows:
            raise ValueError("at least one row is required")
        top = 1 << self.n
        if any(not 0 <= r < top for r in rows):
            raise ValueError("row out of range for the stated length")
        if len(_rref(rows, self.n)[0]) != len(rows):
            raise ValueError("rows are linearly dependent")

    @classmethod
    def of_basis(cls, n: int, rows: list[int]) -> "GeneratorMatrix":
        """Rows independent by construction, a reduced or null-space basis: unchecked."""
        if not rows:
            raise ValueError("at least one row is required")
        gen = object.__new__(cls)
        vars(gen).update(n=n, rows=tuple(rows))
        return gen

    @property
    def k(self) -> int:
        return len(self.rows)

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "GeneratorMatrix":
        if not lines:
            raise ValueError("at least one row is required")
        words = [Word.from_string(s) for s in lines]
        return cls(words[0].n, tuple(w.bits for w in words))

    def row_strings(self) -> list[str]:
        return [str(Word(self.n, r)) for r in self.rows]

    def codewords(self) -> Code:
        """The span, linear by construction: no elimination over its 2^k words."""
        if self.k > MAX_ENUM_DIMENSION:
            raise CapExceeded(
                f"enumerating 2**{self.k} codewords; cap is k <= {MAX_ENUM_DIMENSION}")
        return Code.of_span(self.n, span_words(self.rows, self.n), self.rows)


def generator_from_code(code: Code) -> GeneratorMatrix:
    """Row-reduced basis of a linear code, from its kept basis rows if it has them."""
    reduced, _ = _rref(code._basis or code.words, code.n)
    if len(code) != 1 << len(reduced):
        raise ValueError("codewords do not form a linear subspace")
    return GeneratorMatrix.of_basis(code.n, reduced)


def dual_code(g: GeneratorMatrix) -> GeneratorMatrix:
    """Generator of the orthogonal complement, via the null space."""
    rows = _null_space_rows(g.rows, g.n)
    if not rows:
        raise ValueError("the dual of the full space is the zero code")
    return GeneratorMatrix.of_basis(g.n, rows)


def golay_code() -> GeneratorMatrix:
    """Cyclic [23,12] code: shifted copies of the fixed generator polynomial."""
    return GeneratorMatrix(
        GOLAY_LENGTH, tuple(GOLAY_GENERATOR_POLY << i for i in range(12)))


def weight_distribution(obj: GeneratorMatrix | Code) -> tuple[int, ...]:
    """Exact weight counts A_0..A_n; a generator enumerates its 2^k codewords."""
    code = obj if isinstance(obj, Code) else obj.codewords()
    return code.weight_distribution()


def is_projective(g: GeneratorMatrix) -> bool:
    """True iff the generator has no zero and no repeated column
    (equivalently, the dual minimum distance is at least 3)."""
    cols = {col.tobytes() for col in bit_matrix(g.rows, g.n).T}
    return bytes(g.k) not in cols and len(cols) == g.n


def coset_distribution_matrix(g: GeneratorMatrix) -> np.ndarray:
    """Weight histogram of every coset of the code generated by ``g``: row s counts, by
    weight 0..n, the words whose syndrome under a dual basis of ``g`` is s (bit b is
    the parity against the b-th check).  A syndrome recurrence over the pivot
    coordinates builds it without enumerating the 2^n words (README, Library layout);
    a count never exceeds 2^k, so int64 is exact for k <= 62."""
    n = g.n
    if g.k > 62:
        raise CapExceeded(f"coset counts reach 2**{g.k}; int64 holds k <= 62")
    if (n + 1) << (n - g.k) > COSET_TABLE_CAP:
        raise CapExceeded(f"coset table 2**{n - g.k} x {n + 1}; cap is {COSET_TABLE_CAP} cells")
    checks = _null_space_rows(g.rows, n)
    cosets = np.arange(1 << len(checks))
    hist = np.zeros((len(cosets), n + 1), dtype=np.int64)
    hist[cosets, np.bitwise_count(cosets)] = 1
    for i in _rref(g.rows, n)[1]:
        h_i = sum(((row >> i) & 1) << b for b, row in enumerate(checks))
        hist[:, 1:] += hist[cosets ^ h_i, :-1]  # the gather copies the old table
    return hist


def distinct_row_count(matrix: np.ndarray) -> int:
    """Number of distinct rows, by exact comparison of their bytes."""
    return len({row.tobytes() for row in np.ascontiguousarray(matrix)})
