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

Each bound is a many-channel call, and the one-channel functions are its one-element calls;
each makes one call of the ``_TailPlan`` its code or distribution keeps (README, Library layout).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._bitops import BLOCK_CELLS
from .channel import ChannelParams
from .core import BidistanceDistribution, Code, Word, dir_distances


def region_threshold(d10: int | np.ndarray, d01: int | np.ndarray,
                     params: ChannelParams, n: int | None = None) -> int | np.ndarray:
    """Least total flip count at which the rival word is preferred,
    ceil((gamma d10 + d01) / (1 + gamma)) with gamma taken as u/v; takes
    ints, or integer arrays for a threshold per entry.  u/v is the bracket
    at ``n``, any bound on d10 + d01 (by default their maximum)."""
    u, v = params.bracket(int(np.max(np.add(d10, d01))) if n is None else n)
    return -(-(u * d10 + v * d01) // (u + v))


class _TailPlan:
    """P(Bin(d1, q) + Bin(d2, p) >= t) for fixed int arrays d1, d2, called with a call's
    thresholds and channels, one tail row per channel (README, Library layout): the
    log-binomial grid, -inf past each length, is built once and the plan is never written
    after; log x is taken from x's integers, each run of equal p builds its p-tail window as
    a local, and entries are summed BLOCK_CELLS cells at a time."""

    def __init__(self, d1: np.ndarray, d2: np.ndarray):
        lengths, row = np.unique(np.concatenate([d1, d2]), return_inverse=True)
        self.q_row, self.p_row = row[:len(d1)], row[len(d1):]
        self.k = np.arange(lengths.max(initial=0) + 1)  # no entries: a one-word code's AHB
        log_fact = np.array([math.lgamma(m + 1) for m in self.k.tolist()])
        self.rest = np.maximum(lengths[:, None] - self.k, 0)
        self.log_comb = np.where(self.k <= lengths[:, None], log_fact[lengths, None]
                                 - log_fact[self.k] - log_fact[self.rest], -np.inf)

    def _pmf(self, x: Fraction) -> np.ndarray:
        log_x = math.log(x.numerator) - math.log(x.denominator)
        return np.exp(self.log_comb + self.k * log_x + self.rest * math.log1p(-float(x)))

    def __call__(self, thresholds, channels: list[ChannelParams]):
        size, last = len(self.k), 2 * len(self.k) - 1
        step, p = max(1, BLOCK_CELLS // size), None
        for t, params in zip(thresholds, channels):
            if params.p != p:
                p, padded = params.p, np.zeros((len(self.log_comb), last + size))
                # column m is the p-tail at j = last - m: 0 for j >= size, the whole sum for j <= 0
                tail = np.cumsum(self._pmf(p)[:, ::-1], axis=1, out=padded[:, size:2 * size])
                padded[:, 2 * size:] = tail[:, -1:]
                window = sliding_window_view(padded, size, axis=1)
            pmf_q, start = self._pmf(params.q), last - np.minimum(np.maximum(t, 0), last)
            out = np.empty(len(self.q_row))
            for lo in range(0, len(out), step):
                block = slice(lo, lo + step)
                out[block] = (pmf_q[self.q_row[block]]
                              * window[self.p_row[block], start[block]]).sum(axis=1)
            yield out


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
        [row] = _TailPlan(np.array([d10]), np.array([d01]))([np.array([t])], [params])
        return float(row[0])
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


def _distinct_pairs(code: Code) -> np.ndarray:
    """(wt, a = d10, b = d01) of the pair support at (a, b) != (0, 0), the pairs
    of distinct words; a minimum over them is the same to the bit as a pair loop."""
    if len(code) < 2:
        raise ValueError("minimum discrepancy needs at least two codewords")
    support = code.pair_support()
    return support[support[:, 1:].any(axis=1)].T


def min_discrepancy(code: Code, params: ChannelParams) -> float:
    """Smallest discrepancy over ordered distinct codeword pairs."""
    _, a, b = _distinct_pairs(code)
    return float((params.gamma * a + b).min())


def min_symmetric_discrepancy(code: Code, params: ChannelParams) -> float:
    wt, a, b = _distinct_pairs(code)
    return float((params.gamma * a + b - wt * (params.gamma - 1.0)).min())


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

    def __float__(self) -> float:
        return self.value


def _report(method: str, keys: list[str], terms: list[float]) -> BoundReport:
    raw = sum(terms, 0.0)
    return BoundReport(method, min(1.0, raw), raw, dict(zip(keys, terms)))


def ahb_union_bounds(dist: BidistanceDistribution,
                     channels: list[ChannelParams]) -> list[BoundReport]:
    """The union bound at each channel over the off-diagonal rows, from the keys and tail
    plan the distribution keeps from its first call; thresholds use the bracket at n."""
    (d10, d01), counts = dist.pairs[1:].T, dist.counts[1:]
    keys, tail = dist._keep("_ahb", lambda: (list(map("{},{}".format, d10.tolist(), d01.tolist())),
                                             _TailPlan(d10, d01)))
    rows = tail((region_threshold(d10, d01, params, dist.n) for params in channels), channels)
    return [_report("ahb", keys, (counts * row / dist.size).tolist()) for row in rows]


def ahb_union_bound(dist: BidistanceDistribution, params: ChannelParams) -> BoundReport:
    """Union bound driven by the off-diagonal bidistance frequencies."""
    return ahb_union_bounds(dist, [params])[0]


def _class_thresholds(n: int, j: np.ndarray, pairs: tuple, params: ChannelParams,
                      symmetric: bool) -> np.ndarray:
    """t_j = ceil((dmin + slope j) / (1 + gamma)) at the weights j, dmin = min(gamma a + b
    - slope wt) over the distinct pairs ``(wt, a, b)``, slope gamma - 1 or 0: at
    gamma = u/v, exact integers."""
    wt, a, b = pairs
    u, v = params.bracket(n)
    slope = u - v if symmetric else 0
    dmin = int((u * a + v * b - slope * wt).min())
    return -(-(dmin + slope * j) // (u + v))


def _class_plan(code: Code) -> tuple:
    """The weight-class bounds' q-independent state: A_j, j, distinct pairs, keys, tail plan."""
    counts = np.array(code.weight_distribution(), dtype=np.int64)
    j = np.flatnonzero(counts)
    return (counts[j], j, _distinct_pairs(code), [f"error[w={w}]" for w in j.tolist()],
            _TailPlan(j, code.n - j))


def weight_class_bounds(code: Code, channels: list[ChannelParams],
                        symmetric: bool) -> list[BoundReport]:
    """'cr_symmetric' or 'cr_discrepancy' at each channel: over weight classes j, the
    sum of A_j / M times the tail at (j, n - j, t_j), from the class plan the code keeps."""
    counts, j, pairs, keys, tail = code._keep("_bounds", lambda: _class_plan(code))
    rows = tail((_class_thresholds(code.n, j, pairs, params, symmetric) for params in channels),
                channels)
    return [_report("cr_symmetric" if symmetric else "cr_discrepancy", keys,
                    (counts * row / len(code)).tolist()) for row in rows]


def discrepancy_bound(code: Code, params: ChannelParams) -> BoundReport:
    """Weight-distribution bound keyed on the minimum discrepancy."""
    return weight_class_bounds(code, [params], symmetric=False)[0]


def symmetric_discrepancy_bound(code: Code, params: ChannelParams) -> BoundReport:
    """Weight-distribution bound keyed on the minimum symmetric discrepancy."""
    return weight_class_bounds(code, [params], symmetric=True)[0]
