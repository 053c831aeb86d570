"""Upper bounds on the decoder error probability, and discrepancy measures.

Three bounds are implemented.  The pair-distribution union bound sums
closed-form pairwise error probabilities weighted by the bidistance
frequencies ('ahb').  Two weight-distribution bounds key on the minimum
discrepancy and minimum symmetric discrepancy of the code
('cr_discrepancy' and 'cr_symmetric'); their inner sums run over integer
lattice offsets instead of real-valued discrepancy levels, using the
identity (q/(1-p))**gamma = p/(1-q).

The float sums run as batched numpy kernels under a sequential-summation
contract.  Each term is formed by the same float operations, in the same
order, as a per-term loop: powers are Python scalar ``**``, the binomials
converted to float are exactly those the loop converts (so one too large
for a float raises OverflowError as the loop does), and products
associate left to right.  Each sum is an ``np.add.accumulate`` along the
loop order, never a pairwise ``np.sum``; a cell outside the region adds
+0.0, which is exact.  So every bound is the same float, to the bit, as
the per-term loops kept in ``tests/helpers.py``.  The kernels run under
``np.errstate``, so an overflow gives ``inf`` silently as a Python float
product does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .channel import ChannelParams
from .core import BidistanceDistribution, Code, Word, dir_distances

#: near-integer thresholds are snapped before ceilings / strict comparisons,
#: so float noise in gamma cannot move a region boundary
SNAP = 1e-9

#: cells in one numpy block of a bound kernel; keeps the peak memory small
KERNEL_CELLS = 1 << 16

#: most (d10, d01) entries summed side by side in one block
PEP_LANES = 64


def region_threshold(d10: int | np.ndarray, d01: int | np.ndarray,
                     gamma: float) -> int | np.ndarray:
    """Least total flip count at which the rival word is preferred.

    Takes ints, or integer arrays for a threshold per entry.
    """
    tau = (np.asarray(d10) * gamma + d01) / (gamma + 1.0)
    nearest = np.rint(tau)
    t = np.where(np.abs(tau - nearest) < SNAP, nearest, np.ceil(tau)).astype(np.int64)
    return int(t) if t.ndim == 0 else t


def _binomial_terms(lengths: np.ndarray, combs: np.ndarray, x: float) -> np.ndarray:
    """Row r holds comb(d, k) * x**k * (1-x)**(d-k) for d = lengths[r] and
    k = 0..d, zeros after; ``combs`` holds the binomials as floats."""
    top = combs.shape[1]
    x_pow = np.array([x ** k for k in range(top)])
    y_pow = np.array([(1 - x) ** k for k in range(top)])
    return combs * x_pow * y_pow[np.maximum(lengths[:, None] - np.arange(top), 0)]


def _comb_rows(lengths: list[int]) -> np.ndarray:
    """Row r holds float(comb(d, k)) for d = lengths[r] and k = 0..d, zeros
    after; a binomial too large for a float raises OverflowError."""
    rows = np.zeros((len(lengths), max(lengths) + 1))
    for r, d in enumerate(lengths):
        half = [math.comb(d, k) for k in range(d // 2 + 1)]
        rows[r, :d + 1] = half + half[:(d + 1) // 2][::-1]
    return rows


@np.errstate(over="ignore", invalid="ignore")
def _pep_kernel(d10: np.ndarray, d01: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Float pairwise error probabilities of many (d10, d01) entries.

    The entries, sorted by (d10, d01), go in blocks of PEP_LANES lanes,
    halved until a block has at most KERNEL_CELLS cells.  A lane lays its
    entry's (i, j) grid out flat, i-major, with the cells below the
    threshold (and the padding) at +0.0, and accumulates along it: the sum
    runs i ascending, then j ascending from max(0, t - i), as the per-term
    loop does.
    """
    t = region_threshold(d10, d01, params.gamma)
    lengths, row = np.unique(np.concatenate([d10, d01]), return_inverse=True)
    q_row, p_row = row[:len(d10)], row[len(d10):]
    combs = _comb_rows(lengths.tolist())
    q_terms = _binomial_terms(lengths, combs, params.fq)
    p_terms = _binomial_terms(lengths, combs, params.fp)
    order = np.lexsort((d01, d10))
    rows_of, cols_of = d10[order] + 1, d01[order] + 1
    out = np.empty(len(order))
    start = 0
    while start < len(order):
        stop = min(start + PEP_LANES, len(order))
        while (stop - start > 1 and (stop - start) * rows_of[stop - 1]
               * cols_of[start:stop].max() > KERNEL_CELLS):
            stop = start + (stop - start) // 2
        block = order[start:stop]
        rows, cols = int(rows_of[stop - 1]), int(cols_of[start:stop].max())
        # region[e, i, j] = in_region[e, i + j]: 1.0 where i + j >= t, else
        # 0.0; a product with it is exact, and q * p == p * q
        in_region = (np.arange(rows + cols - 1) >= t[block, None]).astype(float)
        lane, step = in_region.strides
        region = as_strided(in_region, (len(block), rows, cols), (lane, step, step),
                            writeable=False)
        cells = p_terms[p_row[block], None, :cols] * region
        cells *= q_terms[q_row[block], :rows, None]
        flat = cells.reshape(len(block), -1)
        out[block] = np.add.accumulate(flat, axis=1, out=flat)[:, -1]
        start = stop
    return out


def pairwise_error_probability(d10: int, d01: int, params: ChannelParams,
                               exact: bool = False):
    """Probability that the decoder prefers a word at offsets (d10, d01).

    The two flip counts are independent binomials; their joint mass is
    summed over the preference region.  ``exact=True`` evaluates the same
    region sum in rational arithmetic and returns a Fraction.
    """
    if d10 < 0 or d01 < 0:
        raise ValueError("directional distances must be non-negative")
    if not exact:
        return float(_pep_kernel(np.array([d10]), np.array([d01]), params)[0])
    t = region_threshold(d10, d01, params.gamma)
    p, q = params.p, params.q
    q_terms = [math.comb(d10, i) * q ** i * (1 - q) ** (d10 - i) for i in range(d10 + 1)]
    p_terms = [math.comb(d01, j) * p ** j * (1 - p) ** (d01 - j) for j in range(d01 + 1)]
    total = Fraction(0)
    for i in range(d10 + 1):
        for j in range(max(0, t - i), d01 + 1):
            total += q_terms[i] * p_terms[j]
    return total


def discrepancy(x: Word, y: Word, params: ChannelParams) -> float:
    """Weighted disagreement gamma * d10 + d01."""
    d = dir_distances(x, y)
    return params.gamma * d.d10 + d.d01


def symmetric_discrepancy(x: Word, y: Word, params: ChannelParams) -> float:
    """Discrepancy recentred by the transmitted weight: subtracts wt(x)(gamma-1)."""
    return discrepancy(x, y, params) - x.weight * (params.gamma - 1.0)


def _min_over_pairs(code: Code, params: ChannelParams, symmetric: bool) -> float:
    """Minimum over the support of the code's (wt(x), d10, d01) table.

    Distinct words are exactly the pairs with (d10, d01) != (0, 0).  Each
    value is the float expression a per-pair loop evaluates, so the minimum
    is the same to the bit.
    """
    if len(code) < 2:
        raise ValueError("minimum discrepancy needs at least two codewords")
    g = params.gamma
    slope = g - 1.0 if symmetric else 0.0
    wt, a, b = code.pair_support().T
    off = (a != 0) | (b != 0)
    return float((g * a[off] + b[off] - wt[off] * slope).min())


def min_discrepancy(code: Code, params: ChannelParams) -> float:
    """Smallest discrepancy over ordered distinct codeword pairs."""
    return _min_over_pairs(code, params, symmetric=False)


def min_symmetric_discrepancy(code: Code, params: ChannelParams) -> float:
    return _min_over_pairs(code, params, symmetric=True)


class LatticePoint(NamedTuple):
    """Offsets of a word from a reference word: ``a`` support positions
    cleared, ``b`` non-support positions set.  The weighted size
    a + gamma * b is the discrepancy of the word from the reference."""

    a: int
    b: int


def lattice_word_count(n: int, i: int, j: int, point: LatticePoint) -> int:
    """Number of weight-i words at offsets ``point`` from a weight-j word.

    Depends only on the reference weight j, never on the word itself.
    """
    a, b = point
    if not (0 <= i <= n and 0 <= j <= n) or a < 0 or b < 0:
        raise ValueError("arguments out of range")
    if b + j - a != i or a > j or b > n - j:
        return 0
    return math.comb(j, a) * math.comb(n - j, b)


@dataclass(frozen=True)
class BoundReport:
    """A computed bound with its per-term breakdown.

    ``value`` is clamped to 1; ``raw_value`` keeps the unclamped number.
    """

    method: str
    value: float
    raw_value: float
    components: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "value": self.value,
            "raw_value": self.raw_value,
            "components": dict(self.components),
        }


def _report(method: str, raw: float, components: dict[str, float]) -> BoundReport:
    return BoundReport(method, min(1.0, raw), raw, components)


def ahb_union_bound(dist: BidistanceDistribution, params: ChannelParams) -> BoundReport:
    """Union bound driven by the off-diagonal bidistance frequencies."""
    entries = dist.multiset()
    total = 0.0
    components: dict[str, float] = {}
    if not entries:
        return _report("ahb", total, components)
    d10, d01 = np.array([pair for pair, _ in entries], dtype=np.int64).T
    for ((a, b), count), pep in zip(entries, _pep_kernel(d10, d01, params).tolist()):
        term = count * pep / dist.size
        components[f"{a},{b}"] = term
        total += term
    return _report("ahb", total, components)


def _float_binomials(m: int, used: np.ndarray) -> np.ndarray:
    """comb(m, k) as a float where the mask ``used`` flags k, 0.0 elsewhere.

    Only a binomial that some term uses is converted, so one too large for
    a float raises OverflowError where a per-term loop would.
    """
    row = np.zeros(m + 1)
    for k in np.flatnonzero(used).tolist():
        row[k] = float(math.comb(m, k))
    return row


def _kept(level: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Cells strictly below the threshold, a level within SNAP of it dropped."""
    return ~((np.abs(level - h) < SNAP) | (level >= h))


@np.errstate(over="ignore", invalid="ignore")
def _retained_mass(code: Code, params: ChannelParams,
                   h_threshold: Callable[[np.ndarray, int], np.ndarray]
                   ) -> tuple[float, dict[str, float]]:
    """Likelihood mass of received words with discrepancy below h(i, j).

    For each codeword weight class j and received weight i, words at
    offsets (a, b) from the codeword contribute
    (q/(1-p))**a * (p/(1-q))**b times their count, which equals
    (q/(1-p))**(a + gamma*b): the lattice enumeration replaces grouping
    by real discrepancy values, summing duplicate levels implicitly.

    ``h_threshold(i, j)`` takes an array of received weights i.  A class
    is an (i, a) grid with b = a + i - j; its terms accumulate along a,
    then the weighted rows along i.  The level a + gamma*b never falls as
    a grows along a row, so the kept cells of a row are a prefix of it:
    only the rows whose first cell is kept are laid out, a block of at
    most KERNEL_CELLS cells at a time.  No level is negative, so a row
    with h <= 0 keeps nothing, as the per-term loop skips it.
    """
    n = code.n
    g = params.gamma
    fp, fq = params.fp, params.fq
    ratio_a = fq / (1.0 - fp)
    ratio_b = fp / (1.0 - fq)
    pow_a = np.array([ratio_a ** k for k in range(n + 1)])
    pow_b = np.array([ratio_b ** k for k in range(n + 1)])
    weights = np.array([(1.0 - fq) ** i * (1.0 - fp) ** (n - i) for i in range(n + 1)])
    received = np.arange(n + 1)
    total = 0.0
    per_class: dict[str, float] = {}
    for j, count_j in enumerate(code.weight_distribution()):
        if not count_j:
            continue
        h = h_threshold(received, j)
        first_a = np.maximum(j - received, 0)
        rows = np.flatnonzero(_kept(first_a + g * (first_a + received - j), h))
        a = np.arange(j + 1)
        inner = np.zeros(n + 1)
        step = max(1, KERNEL_CELLS // (j + 1))
        for lo in range(0, len(rows), step):
            i = rows[lo:lo + step, None]
            b = a + i - j
            keep = (b >= 0) & (b <= n - j) & _kept(a + g * b, h[i])
            b = np.clip(b, 0, n - j)
            used_b = np.zeros(n - j + 1, dtype=bool)
            used_b[b[keep]] = True
            terms = (pow_a[a] * pow_b[b] * _float_binomials(j, keep.any(axis=0))[a]
                     * _float_binomials(n - j, used_b)[b])
            inner[i[:, 0]] = np.add.accumulate(np.where(keep, terms, 0.0), axis=1)[:, -1]
        class_mass = float(np.add.accumulate(weights * inner)[-1])
        total += count_j * class_mass
        per_class[f"retained[w={j}]"] = count_j * class_mass
    return total, per_class


def discrepancy_bound(code: Code, params: ChannelParams) -> BoundReport:
    """Weight-distribution bound keyed on the minimum discrepancy."""
    dmin = min_discrepancy(code, params)
    g = params.gamma
    total, components = _retained_mass(
        code, params, lambda i, j: (dmin + (g - 1.0) * (i - j)) / 2.0)
    return _report("cr_discrepancy", 1.0 - total / len(code), components)


def symmetric_discrepancy_bound(code: Code, params: ChannelParams) -> BoundReport:
    """Weight-distribution bound keyed on the minimum symmetric discrepancy."""
    dmin = min_symmetric_discrepancy(code, params)
    g = params.gamma
    total, components = _retained_mass(
        code, params, lambda i, j: (dmin + i * (g - 1.0)) / 2.0)
    return _report("cr_symmetric", 1.0 - total / len(code), components)
