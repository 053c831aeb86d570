"""Upper bounds on the decoder error probability, and discrepancy measures.

Three bounds are implemented.  The pair-distribution union bound sums
closed-form pairwise error probabilities weighted by the bidistance
frequencies ('ahb').  Two weight-distribution bounds key on the minimum
discrepancy and minimum symmetric discrepancy of the code
('cr_discrepancy' and 'cr_symmetric'); their inner sums run over integer
lattice offsets instead of real-valued discrepancy levels, using the
identity (q/(1-p))**gamma = p/(1-q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .channel import ChannelParams
from .core import BidistanceDistribution, Code, Word, dir_distances

#: near-integer thresholds are snapped before ceilings / strict comparisons,
#: so float noise in gamma cannot move a region boundary
SNAP = 1e-9


def region_threshold(d10: int, d01: int, gamma: float) -> int:
    """Least total flip count at which the rival word is preferred."""
    tau = (d10 * gamma + d01) / (gamma + 1.0)
    nearest = round(tau)
    if abs(tau - nearest) < SNAP:
        return nearest
    return math.ceil(tau)


def pairwise_error_probability(d10: int, d01: int, params: ChannelParams,
                               exact: bool = False):
    """Probability that the decoder prefers a word at offsets (d10, d01).

    The two flip counts are independent binomials; their joint mass is
    summed over the preference region.  ``exact=True`` evaluates the same
    region sum in rational arithmetic and returns a Fraction.
    """
    if d10 < 0 or d01 < 0:
        raise ValueError("directional distances must be non-negative")
    t = region_threshold(d10, d01, params.gamma)
    if exact:
        p, q = params.p, params.q
    else:
        p, q = params.fp, params.fq
    q_terms = [math.comb(d10, i) * q ** i * (1 - q) ** (d10 - i) for i in range(d10 + 1)]
    p_terms = [math.comb(d01, j) * p ** j * (1 - p) ** (d01 - j) for j in range(d01 + 1)]
    total = Fraction(0) if exact else 0.0
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
    return min(g * a + b - wt * slope for wt, a, b in code.pair_table() if a or b)


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
    total = 0.0
    components: dict[str, float] = {}
    for (a, b), count in sorted(dist.entries.items()):
        if (a, b) == (0, 0):
            continue
        term = count * pairwise_error_probability(a, b, params) / dist.size
        components[f"{a},{b}"] = term
        total += term
    return _report("ahb", total, components)


def _retained_mass(code: Code, params: ChannelParams,
                   h_threshold: Callable[[int, int], float]) -> tuple[float, dict[str, float]]:
    """Likelihood mass of received words with discrepancy below h(i, j).

    For each codeword weight class j and received weight i, words at
    offsets (a, b) from the codeword contribute
    (q/(1-p))**a * (p/(1-q))**b times their count, which equals
    (q/(1-p))**(a + gamma*b): the lattice enumeration replaces grouping
    by real discrepancy values, summing duplicate levels implicitly.
    """
    n = code.n
    g = params.gamma
    fp, fq = params.fp, params.fq
    ratio_a = fq / (1.0 - fp)
    ratio_b = fp / (1.0 - fq)
    total = 0.0
    per_class: dict[str, float] = {}
    for j, count_j in enumerate(code.weight_distribution()):
        if not count_j:
            continue
        class_mass = 0.0
        for i in range(n + 1):
            h = h_threshold(i, j)
            if h <= 0:
                continue
            inner = 0.0
            for a in range(j + 1):
                b = a + i - j
                if b < 0 or b > n - j:
                    continue
                level = a + g * b
                if abs(level - h) < SNAP or level >= h:
                    continue
                inner += (ratio_a ** a * ratio_b ** b
                          * math.comb(j, a) * math.comb(n - j, b))
            class_mass += (1.0 - fq) ** i * (1.0 - fp) ** (n - i) * inner
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
