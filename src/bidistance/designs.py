"""Closed-form bidistance distributions from combinatorial structure.

Codes with few weights carry enough regularity that their full pair
statistics follow without looping over pairs: a two-weight code's words
form a strongly regular graph, the 2-class case of the association scheme
a three-weight code gives, so both tables are one sum over class triples;
the block-design constructions fix every pair intersection outright.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ._bitops import AndCounts, pack_bits, popcount, row_ints, span_words
from .algebra import distinct_row_count, generator_from_code
from .core import BidistanceDistribution, Code, solve_directional_system

#: codewords in a measured graph or scheme: v x v tables, seconds of work at the cap
MEASURE_SIZE_CAP = 1 << 12


@dataclass(frozen=True)
class SrgParams:
    """Strongly regular graph parameters (v, k, lam, mu)."""

    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self) -> None:
        if not 0 < self.k < self.v or self.lam < 0 or self.mu < 0:
            raise ValueError(f"invalid graph parameters {self._tuple()}")
        if self.k * (self.k - self.lam - 1) != (self.v - self.k - 1) * self.mu:
            raise ValueError(f"edge-count identity fails for {self._tuple()}")
        if (self.v - 2 * self.k + self.mu - 2 < 0
                or self.v - 2 * self.k + self.lam < 0):
            raise ValueError(f"complement of {self._tuple()} would be negative")

    def _tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)

    @property
    def complement(self) -> "SrgParams":
        return SrgParams(self.v, self.v - self.k - 1,
                         self.v - 2 * self.k + self.mu - 2,
                         self.v - 2 * self.k + self.lam)


def srg_from_two_weight(n: int, k: int, w1: int, w2: int) -> SrgParams:
    """Parameters of the distance-w1 graph on a two-weight code's words.

    Solved exactly from the eigenvalue relations of the graph's Seidel-type
    adjacency matrix; non-integral or negative intermediates mean the input
    does not describe a projective two-weight code.
    """
    if not 0 < w1 < w2 <= n:
        raise ValueError("need 0 < w1 < w2 <= n")
    v = 1 << k
    span = w2 - w1
    rho0 = Fraction(n * v - (w1 + w2) * (v - 1), span)
    rho1 = Fraction(w1 + w2, span)
    rho2 = Fraction(w1 + w2 - v, span)
    valency = (v - 1 - rho0) / 2
    s, prod = rho1 + rho2, rho1 * rho2
    lam = (prod + 4 * valency - s - 3) / 4
    mu = (prod + 4 * valency + s + 1) / 4
    if any(x.denominator != 1 or x < 0 for x in (valency, lam, mu)):
        raise ValueError(
            f"not a valid two-weight input: (n, k, w1, w2) = ({n}, {k}, {w1}, {w2})")
    return SrgParams(v, int(valency), int(lam), int(mu))


def dimension_from_weights(n: int, w1: int, w2: int) -> int | None:
    """Dimension forced by length and the two weights, when determined."""
    denom = n * n + n + 4 * w1 * w2 - 2 * n * (w1 + w2)
    if denom <= 0:
        raise ValueError("the dimension formula needs n^2 + n + 4 w1 w2 > 2 n (w1 + w2)")
    quotient, rem = divmod(4 * w1 * w2, denom)
    if rem or quotient < 1 or quotient & (quotient - 1):
        return None
    return quotient.bit_length() - 1


def _class_triple_ahb(n: int, weights: Sequence[int], valences: Sequence[int],
                      p: Sequence) -> BidistanceDistribution:
    """Pair-frequency table of the nonzero words of a linear code whose weight
    classes, indexed from 0, form an association scheme: each ordered class
    triple (a, b, c), the classes of x, y and x + y, adds valences[a] * p[a][b][c]
    pairs at the offsets solve_directional_system gives for its three weights."""
    rows = []
    for a, b, c in itertools.product(range(len(weights)), repeat=3):
        freq = valences[a] * p[a][b][c]
        if freq == 0:
            continue
        if freq < 0:
            raise ValueError(f"negative frequency {freq}; inputs are inconsistent")
        try:
            pair = solve_directional_system(weights[a], weights[b], weights[c])
        except ValueError as exc:
            raise ValueError(
                f"classes ({a + 1}, {b + 1}, {c + 1}) have positive frequency {freq} "
                f"but no integer offsets: {exc}") from None
        rows.append((pair, freq))
    return BidistanceDistribution.from_off_diagonal(n, sum(valences), rows)


def two_weight_ahb(n: int, k: int, w1: int, w2: int,
                   count_w1: int, count_w2: int) -> BidistanceDistribution:
    """Pair-frequency table of a two-weight code with its zero word removed.

    The associated strongly regular graph is a 2-class association scheme,
    so its intersection numbers, read off (v, K, lam, mu), feed the same
    class-triple sum as ``three_weight_ahb``.
    """
    v = 1 << k
    if count_w1 < 0 or count_w2 < 0 or count_w1 + count_w2 != v - 1:
        raise ValueError("weight counts must cover exactly the nonzero words")
    graph = srg_from_two_weight(n, k, w1, w2)
    if graph.k != count_w1:
        raise ValueError(
            f"graph valency {graph.k} disagrees with the weight-{w1} count {count_w1}")
    deg, lam, mu = graph.k, graph.lam, graph.mu
    p = (((lam, deg - lam - 1), (deg - lam - 1, v - 2 * deg + lam)),
         ((mu, deg - mu), (deg - mu, v - 2 * deg + mu - 2)))
    return _class_triple_ahb(n, (w1, w2), (count_w1, count_w2), p)


def verify_srg(code: Code, w1: int) -> SrgParams:
    """Measure (v, K, lam, mu) on the distance-w1 graph of the codewords.

    Returns the measured constants, or raises if the graph fails any of
    regularity, connectedness, or constant common-neighbour counts.  The
    pair kernel gives the distances wt(x) + wt(y) - 2c over the words, then
    the common-neighbour counts over the rows of the 0/1 adjacency matrix.
    """
    v = len(code)
    if v > MEASURE_SIZE_CAP:
        raise ValueError(f"graph verification capped at {MEASURE_SIZE_CAP} vertices")
    words = AndCounts.of_code(code)
    adjacency = np.empty((v, v), dtype=np.uint8)
    for rows, cols, common in words.upper_tiles():
        near = words.weights[rows, None] + words.weights[cols] - 2 * common == w1
        adjacency[rows, cols], adjacency[cols, rows] = near, near.T
    np.fill_diagonal(adjacency, 0)
    # each vertex's neighbourhood is a length-v word; its weight is the degree
    graph = AndCounts(adjacency)
    degrees = set(graph.weights.tolist())
    if len(degrees) != 1:
        raise ValueError("not strongly regular: the graph is not regular")
    valency = degrees.pop()
    if valency == 0 or valency == v - 1:
        raise ValueError("not strongly regular: the graph is empty or complete")
    lams, mus = set(), set()
    for rows, cols, common in graph.upper_tiles():
        # kind is 1 on an edge, 0 off it and 2 on the diagonal
        diagonal = np.eye(*common.shape, rows.start - cols.start, dtype=np.uint8)
        kind = graph.bits[rows, cols] + 2 * diagonal
        lams.update(np.flatnonzero(np.bincount(common[kind == 1])).tolist())
        mus.update(np.flatnonzero(np.bincount(common[kind == 0])).tolist())
    if len(lams) > 1 or len(mus) > 1:
        raise ValueError("not strongly regular: common-neighbour counts vary")
    mu = mus.pop() if mus else 0
    if mu == 0:
        raise ValueError("not strongly regular: the graph is disconnected")
    return SrgParams(v, valency, lams.pop() if lams else 0, mu)


@dataclass(frozen=True)
class SchemeParams:
    """Valences and intersection numbers of a 3-class association scheme.

    ``p[k][i][j]`` counts, for any pair in class k, the third points in
    class i from one end and class j from the other; class 0 is equality.
    """

    valences: tuple[int, int, int]
    p: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        p = tuple(tuple(tuple(int(x) for x in row) for row in plane) for plane in self.p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "valences", tuple(int(x) for x in self.valences))
        v = (1,) + self.valences
        for k in range(4):
            for i in range(4):
                if sum(p[k][i]) != v[i]:
                    raise ValueError(f"row-sum identity fails at k={k}, i={i}")
                for j in range(4):
                    if p[k][i][j] != p[k][j][i]:
                        raise ValueError("intersection numbers are not symmetric")
        for i in range(4):
            if p[0][i][i] != v[i]:
                raise ValueError("p[0][i][i] must equal the valence")

    def to_json_dict(self) -> dict:
        return {
            "valences": list(self.valences),
            "p": [[list(row) for row in plane] for plane in self.p],
        }


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform down each column of the int64
    (2^k, m) ``a``, by k add/subtract butterflies on reshaped views, each over
    contiguous runs of rows; applied twice it scales by 2^k."""
    size, width = a.shape
    a, out, half = a.copy(), np.empty(a.shape, a.dtype), 1
    while half < size:
        pairs, sums = a.reshape(-1, 2, half * width), out.reshape(-1, 2, half * width)
        np.add(pairs[:, 0], pairs[:, 1], out=sums[:, 0])
        np.subtract(pairs[:, 0], pairs[:, 1], out=sums[:, 1])
        a, out, half = out, a, 2 * half
    return a


def scheme_from_three_weight(code: Code) -> SchemeParams:
    """Measure the distance-scheme intersection numbers of a three-weight code on every
    pair at once, by Walsh-Hadamard transforms of the weight-class indicators over the
    code's span (README, Library layout); the classes compose only if the transform
    has 4 distinct rows, as many as the dual coset matrix."""
    if len(code) > MEASURE_SIZE_CAP:
        raise ValueError(f"scheme measurement capped at {MEASURE_SIZE_CAP} codewords")
    generator = generator_from_code(code)
    dist = code.weight_distribution()
    weights = [w for w in range(1, code.n + 1) if dist[w]]
    if len(weights) != 3:
        raise ValueError(f"need exactly three nonzero weights, found {len(weights)}")
    if generator.k == code.n:
        raise ValueError("the dual of the full space is the zero code")
    class_of = np.zeros(code.n + 1, dtype=np.intp)
    class_of[weights] = (1, 2, 3)
    classes = class_of[popcount(span_words(generator.rows, code.n)).sum(axis=1)]
    spectra = _walsh_hadamard(np.equal.outer(classes, np.arange(4)).astype(np.int64))
    rows = distinct_row_count(spectra)
    if rows != 4:
        raise ValueError(
            f"not an association scheme: the dual coset matrix has {rows} distinct "
            "rows instead of 4")
    tables = _walsh_hadamard((spectra[:, :, None] * spectra[:, None]).reshape(-1, 16))
    measured = []
    for k in range(4):
        found = tables[classes == k] >> generator.k
        if (found != found[0]).any():
            raise ValueError(
                f"not an association scheme: counts vary across class-{k} pairs")
        measured.append(found[0].reshape(4, 4).tolist())
    return SchemeParams(tuple(dist[w] for w in weights), tuple(measured))


def three_weight_ahb(n: int, weights: Sequence[int],
                     scheme: SchemeParams) -> BidistanceDistribution:
    """Pair-frequency table of a three-weight code with its zero word removed:
    the class-triple sum over the scheme's classes 1-3."""
    w = tuple(int(x) for x in weights)
    if len(w) != 3 or not 0 < w[0] < w[1] < w[2] <= n:
        raise ValueError("weights must be three increasing values within the length")
    p = [[row[1:] for row in plane[1:]] for plane in scheme.p[1:]]
    return _class_triple_ahb(n, w, scheme.valences, p)


def with_zero_word(dist: BidistanceDistribution, weights: Sequence[int]) -> BidistanceDistribution:
    """Distribution of a full linear code from that of its nonzero words: the zero word
    adds one ordered pair per nonzero word on each axis, keyed by its weight."""
    zero = [(pair, c) for w, c in enumerate(weights) if w and c for pair in ((0, w), (w, 0))]
    return BidistanceDistribution.from_off_diagonal(dist.n, dist.size + 1, dist.multiset() + zero)


@dataclass(frozen=True)
class IncidenceDesign:
    """Symmetric (v, k, lam) block design on the point set 1..v.

    Construction validates the full definition: v blocks of size k, every
    point replicated k times, every point pair covered exactly lam times.
    """

    v: int
    k: int
    lam: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(map(tuple, map(sorted, self.blocks)))
        if not 2 <= self.k < self.v:
            raise ValueError("need 2 <= k < v")
        if len(blocks) != self.v:
            raise ValueError("a symmetric design has exactly v blocks")
        if len(set(blocks)) != len(blocks):
            raise ValueError("duplicate blocks")
        for block in blocks:
            if len(block) != self.k or len(set(block)) != self.k:
                raise ValueError("every block must hold k distinct points")
            if block[0] < 1 or block[-1] > self.v:
                raise ValueError("points must lie in 1..v")
        # the flat (v, k) block array: the blocks as ints, and the incidence matrix
        points = np.fromiter(itertools.chain.from_iterable(blocks), np.intp, self.v * self.k)
        object.__setattr__(self, "blocks", tuple(map(tuple, points.reshape(self.v, -1).tolist())))
        incidence = np.zeros((self.v, self.v), dtype=np.uint8)
        incidence.flat[points + np.arange(-1, self.v * self.v - 1, self.v).repeat(self.k)] = 1
        object.__setattr__(self, "_incidence", incidence)
        # blocks through both points i and j, exact in float64; i = j counts replication
        meets = incidence.T.astype(np.float64) @ incidence
        if (meets.diagonal() != self.k).any():
            raise ValueError("replication number differs from k")
        meets.flat[::self.v + 1] = self.lam
        if (meets != self.lam).any():
            raise ValueError(f"pair coverage is not constant at lam={self.lam}")

    def incidence(self) -> np.ndarray:
        """(v, v) uint8 0/1 matrix whose row i marks the points of block i."""
        return self._incidence.copy()

    def complement(self) -> "IncidenceDesign":
        full = frozenset(range(1, self.v + 1))
        return IncidenceDesign(
            self.v, self.v - self.k, self.v - 2 * self.k + self.lam,
            tuple(tuple(sorted(full - set(b))) for b in self.blocks))

    def to_json_dict(self) -> dict:
        return {"v": self.v, "k": self.k, "lambda": self.lam,
                "blocks": [list(b) for b in self.blocks]}


def sbibd_from_difference_set(v: int, difference_set: Iterable[int]) -> IncidenceDesign:
    """Develop a difference set through Z_v into a symmetric design on 1..v."""
    base = sorted({d % v for d in difference_set})
    k = len(base)
    if not 2 <= k < v:
        raise ValueError("need a base block with 2 <= k < v distinct residues")
    pair_count, rem = divmod(k * (k - 1), v - 1)
    if rem:
        raise ValueError(f"not a difference set: k(k-1) = {k * (k - 1)} is not "
                         f"divisible by v - 1 = {v - 1}")
    blocks = (np.add.outer(np.arange(v), base) % v + 1).tolist()  # sorted on construction
    try:
        return IncidenceDesign(v, k, pair_count, blocks)
    except ValueError as exc:
        raise ValueError(f"not a difference set modulo {v}: {exc}") from None


#: shipped difference sets (quadratic-residue and point/hyperplane types),
#: re-verified by sbibd_from_difference_set on every load
DIFFERENCE_SETS: dict[tuple[int, int, int], tuple[int, ...]] = {
    (7, 3, 1): (1, 2, 4),
    (11, 5, 2): (1, 3, 4, 5, 9),
    (13, 4, 1): (0, 1, 3, 9),
    (15, 7, 3): (0, 1, 2, 4, 5, 8, 10),
    (23, 11, 5): (1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18),
}


def catalog_design(v: int, k: int, lam: int) -> IncidenceDesign:
    """Build and re-verify one of the shipped designs."""
    try:
        dset = DIFFERENCE_SETS[(v, k, lam)]
    except KeyError:
        known = ", ".join(str(t) for t in sorted(DIFFERENCE_SETS))
        raise ValueError(f"no catalog design ({v}, {k}, {lam}); shipped: {known}") from None
    return sbibd_from_difference_set(v, dset)


def sbibd_codes(design: IncidenceDesign, family: int,
                puncture_point: int | None = None) -> Code:
    """Support-set code families built from a symmetric design.

    Family 1 takes the blocks as supports; 2 adds the block complements;
    3 extends every block word by one shared new coordinate; 4 punctures
    at a chosen point, keeping blocks through it and complements of the
    rest.  Requires v >= 2k so that word supports stay distinct.
    """
    v, k = design.v, design.k
    if v < 2 * k:
        raise ValueError(f"construction needs v >= 2k, got v={v}, k={k}")
    blocks = design.incidence()
    if family == 1:
        bits = blocks
    elif family in (2, 3):
        bits = np.concatenate([blocks, 1 - blocks])
        if family == 3:
            bits = np.concatenate([bits, np.repeat([[1], [0]], v, axis=0)], axis=1)
    elif family == 4:
        anchor = 1 if puncture_point is None else puncture_point
        if not 1 <= anchor <= v:
            raise ValueError(f"puncture point must lie in 1..{v}")
        through = blocks[:, anchor - 1] == 1
        bits = np.delete(np.concatenate([blocks[through], 1 - blocks[~through]]), anchor - 1, 1)
    else:
        raise ValueError("family must be 1, 2, 3, or 4")
    return Code(bits.shape[1], row_ints(pack_bits(bits)))


def sbibd_ahb(v: int, k: int, lam: int, family: int) -> BidistanceDistribution:
    """Closed-form pair frequencies for the four design code families: the design
    parameters fix every block intersection, so each family has a short fixed list of
    (offset, frequency) rows, whose coinciding offsets (at small parameters) the
    constructor sums."""
    if lam < 1 or not 2 <= k < v:
        raise ValueError("invalid design parameters")
    if lam * (v - 1) != k * (k - 1):
        raise ValueError(f"({v}, {k}, {lam}) is not symmetric: lam(v-1) != k(k-1)")
    if v < 2 * k:
        raise ValueError(f"construction needs v >= 2k, got v={v}, k={k}")
    diff = k - lam
    cross = v - 2 * k + lam
    if family == 1:
        n, size = v, v
        rows = [((diff, diff), v * (v - 1))]
    elif family in (2, 3):
        e = family - 2  # family 3's new coordinate: a 1 -> 0 flip from a block to a complement
        n, size = v + e, 2 * v
        rows = [((diff, diff), 2 * v * (v - 1)),
                ((k + e, v - k), v), ((v - k, k + e), v),
                ((lam + e, cross), v * (v - 1)), ((cross, lam + e), v * (v - 1))]
    elif family == 4:
        n, size = v - 1, v
        rows = [((diff, diff), k * (k - 1) + (v - k) * (v - k - 1)),
                ((lam, cross), k * (v - k)), ((cross, lam), k * (v - k))]
    else:
        raise ValueError("family must be 1, 2, 3, or 4")
    return BidistanceDistribution.from_off_diagonal(n, size, rows)
