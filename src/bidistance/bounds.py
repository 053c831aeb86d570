"""Upper bounds on the decoder error probability, and discrepancy measures.

Three bounds are implemented.  The pair-distribution union bound sums
closed-form pairwise error probabilities weighted by the bidistance
frequencies ('ahb').  Two weight-distribution bounds key on the minimum
discrepancy and minimum symmetric discrepancy of the code
('cr_discrepancy' and 'cr_symmetric').

All three are sums of one quantity, the flip-count tail
P(Bin(d1, q) + Bin(d2, p) >= t).  A pairwise error probability is the
tail at (d10, d01, region_threshold).  In the weight-distribution bounds
a received word of weight i at offsets (a, b) from a weight-j codeword
is kept when a + gamma*b < h(i, j); with i = j - a + b that test reads
(1 + gamma)(a + b) < dmin for 'cr_discrepancy' and
(1 + gamma)(a + b) < dmin_s + (gamma - 1) j for 'cr_symmetric', so the
error mass of class j is the tail at (j, n - j, t_j).  Each class error
is summed directly, never as 1 minus a retained mass.  Every threshold is
an exact integer ceiling, with gamma taken as ChannelParams.bracket's u/v.

``_flip_tail`` builds binomial pmf rows from log-binomials, one ``exp``
per (length, k), so no term overflows at any n; the p-tail is a sum from
the top of positive terms, so nothing cancels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ._bitops import BLOCK_CELLS
from .channel import ChannelParams
from .core import BidistanceDistribution, Code, Word, dir_distances


def region_threshold(d10: int | np.ndarray, d01: int | np.ndarray,
                     params: ChannelParams) -> int | np.ndarray:
    """Least total flip count at which the rival word is preferred,
    ceil((gamma d10 + d01) / (1 + gamma)) with gamma taken as u/v; takes
    ints, or integer arrays for a threshold per entry."""
    u, v = params.bracket(int(np.max(np.add(d10, d01))))
    return -(-(u * d10 + v * d01) // (u + v))


def _pmf_rows(lengths: np.ndarray, xs: tuple[Fraction, ...]) -> list[np.ndarray]:
    """For each x of ``xs``, row r holds the Bin(lengths[r], x) pmf at
    k = 0..max(lengths), zeros past lengths[r].  log x is taken from the
    integers of the Fraction, so it stays finite for an x below the
    smallest float."""
    k = np.arange(lengths.max() + 1)
    log_fact = np.array([math.lgamma(m + 1) for m in k.tolist()])
    rest = np.maximum(lengths[:, None] - k, 0)
    log_comb = log_fact[lengths, None] - log_fact[k] - log_fact[rest]
    inside = k <= lengths[:, None]
    rows = []
    for x in xs:
        log_x = math.log(x.numerator) - math.log(x.denominator)
        rows.append(np.where(inside, np.exp(log_comb + k * log_x + rest * math.log1p(-float(x))),
                             0.0))
    return rows


def _flip_tail(d1: np.ndarray, d2: np.ndarray, t: np.ndarray,
               params: ChannelParams) -> np.ndarray:
    """P(Bin(d1, q) + Bin(d2, p) >= t) for each entry of three int arrays.

    tail_p[r, k] = P(Bin(d2, p) >= k) is a cumulative sum from the top, and
    an entry's sum over the q flip count i gathers
    pmf_q[d1, i] * tail_p[d2, clip(t - i)], a block of entries of at most
    BLOCK_CELLS cells at a time.
    """
    lengths, row = np.unique(np.concatenate([d1, d2]), return_inverse=True)
    q_row, p_row = row[:len(d1)], row[len(d1):]
    pmf_q, pmf_p = _pmf_rows(lengths, (params.q, params.p))
    # column k sums pmf_p[:, k:]; the extra last column stays 0
    tail_p = np.zeros((len(lengths), pmf_p.shape[1] + 1))
    tail_p[:, -2::-1] = np.cumsum(pmf_p[:, ::-1], axis=1)
    i = np.arange(pmf_q.shape[1])
    out = np.empty(len(d1))
    step = max(1, BLOCK_CELLS // len(i))
    for lo in range(0, len(d1), step):
        block = slice(lo, lo + step)
        k = np.clip(t[block, None] - i, 0, tail_p.shape[1] - 1)
        out[block] = (pmf_q[q_row[block]] * tail_p[p_row[block, None], k]).sum(axis=1)
    return out


def pairwise_error_probability(d10: int, d01: int, params: ChannelParams,
                               exact: bool = False):
    """Probability that the decoder prefers a word at offsets (d10, d01).

    The two flip counts are independent binomials; their joint mass is
    summed over the preference region.  ``exact=True`` sums the same region
    in integers over qd**d10 * pd**d01 and returns a Fraction.
    """
    if d10 < 0 or d01 < 0:
        raise ValueError("directional distances must be non-negative")
    t = region_threshold(d10, d01, params)
    if not exact:
        return float(_flip_tail(np.array([d10]), np.array([d01]), np.array([t]), params)[0])
    (pn, pd), (qn, qd) = params.p.as_integer_ratio(), params.q.as_integer_ratio()
    q_num = [math.comb(d10, i) * qn ** i * (qd - qn) ** (d10 - i) for i in range(d10 + 1)]
    p_num = [math.comb(d01, j) * pn ** j * (pd - pn) ** (d01 - j) for j in range(d01 + 1)]
    tail = list(itertools.accumulate(reversed(p_num)))[::-1] + [0]
    total = sum(q_num[i] * tail[min(max(t - i, 0), d01 + 1)] for i in range(d10 + 1))
    return Fraction(total, qd ** d10 * pd ** d01)


def discrepancy(x: Word, y: Word, params: ChannelParams) -> float:
    """Weighted disagreement gamma * d10 + d01."""
    d = dir_distances(x, y)
    return params.gamma * d.d10 + d.d01


def symmetric_discrepancy(x: Word, y: Word, params: ChannelParams) -> float:
    """Discrepancy recentred by the transmitted weight: subtracts wt(x)(gamma-1)."""
    return discrepancy(x, y, params) - x.weight * (params.gamma - 1.0)


def _min_over_pairs(code: Code, x, y, slope):
    """Minimum of x a + y b - slope wt over the (wt, a = d10, b = d01) pair
    support at (a, b) != (0, 0), the pairs of distinct words; in floats, the
    same to the bit as a per-pair loop."""
    if len(code) < 2:
        raise ValueError("minimum discrepancy needs at least two codewords")
    wt, a, b = code.pair_support().T
    off = (a != 0) | (b != 0)
    return (x * a[off] + y * b[off] - wt[off] * slope).min()


def min_discrepancy(code: Code, params: ChannelParams) -> float:
    """Smallest discrepancy over ordered distinct codeword pairs."""
    return float(_min_over_pairs(code, params.gamma, 1, 0.0))


def min_symmetric_discrepancy(code: Code, params: ChannelParams) -> float:
    return float(_min_over_pairs(code, params.gamma, 1, params.gamma - 1.0))


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
        return asdict(self)


def _report(method: str, raw: float, components: dict[str, float]) -> BoundReport:
    return BoundReport(method, min(1.0, raw), raw, components)


def ahb_union_bound(dist: BidistanceDistribution, params: ChannelParams) -> BoundReport:
    """Union bound driven by the off-diagonal bidistance frequencies."""
    entries = dist.multiset()
    components: dict[str, float] = {}
    if entries:
        d10, d01 = np.array([pair for pair, _ in entries], dtype=np.int64).T
        peps = _flip_tail(d10, d01, region_threshold(d10, d01, params), params)
        for ((a, b), count), pep in zip(entries, peps.tolist()):
            components[f"{a},{b}"] = count * pep / dist.size
    return _report("ahb", sum(components.values(), 0.0), components)


def _class_thresholds(code: Code, params: ChannelParams,
                      symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """The code's weights j and t_j = ceil((dmin + slope j) / (1 + gamma)),
    dmin = min(gamma a + b - slope wt) over distinct pairs, slope gamma - 1
    or 0: with gamma = u/v and every term times v, exact integers."""
    u, v = params.bracket(code.n)
    slope = u - v if symmetric else 0
    dmin = int(_min_over_pairs(code, u, v, slope))
    j = np.flatnonzero(code.weight_distribution())
    return j, -(-(dmin + slope * j) // (u + v))


def _weight_class_bound(method: str, code: Code, params: ChannelParams,
                        symmetric: bool) -> BoundReport:
    """Sum over weight classes j of A_j / M times the tail at (j, n - j, t_j)."""
    counts = code.weight_distribution()
    j, t = _class_thresholds(code, params, symmetric)
    tails = _flip_tail(j, code.n - j, t, params)
    components = {f"error[w={w}]": counts[w] * tail / len(code)
                  for w, tail in zip(j.tolist(), tails.tolist())}
    return _report(method, sum(components.values(), 0.0), components)


def discrepancy_bound(code: Code, params: ChannelParams) -> BoundReport:
    """Weight-distribution bound keyed on the minimum discrepancy."""
    return _weight_class_bound("cr_discrepancy", code, params, symmetric=False)


def symmetric_discrepancy_bound(code: Code, params: ChannelParams) -> BoundReport:
    """Weight-distribution bound keyed on the minimum symmetric discrepancy."""
    return _weight_class_bound("cr_symmetric", code, params, symmetric=True)
