"""Shared brute-force oracles and deterministic random generators."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from bidistance.bounds import SNAP, BoundReport
from bidistance.channel import ChannelParams, _score_table, likelihood
from bidistance.core import BidistanceDistribution, Code, Word


def eq3_pairwise_oracle(d10: int, d01: int, params: ChannelParams) -> Fraction:
    """Pairwise error probability by exhaustive received-word enumeration.

    Builds an explicit word pair realizing the offsets (all coordinates
    differ), sums Pr(y | x) over every y whose likelihood under the rival
    is at least as large, comparing exact integer scores.
    """
    if d10 == 0 and d01 == 0:
        return Fraction(1)
    n = d10 + d01
    x = (1 << d10) - 1
    x_alt = ((1 << d01) - 1) << d10
    table = _score_table(n, params)
    numerator = 0
    for y in range(1 << n):
        s_x = table.score(d10, (x & ~y).bit_count(), (y & ~x).bit_count())
        s_alt = table.score(d01, (x_alt & ~y).bit_count(), (y & ~x_alt).bit_count())
        if s_alt >= s_x:
            numerator += s_x
    return Fraction(numerator, table.denominator)


def brute_mld(code: Code, y: Word, params: ChannelParams) -> Word | None:
    """The unique maximizer of the Fraction likelihood over the code, or
    None when the maximum is shared (a decoding failure)."""
    scores = [(likelihood(y, x, params), x) for x in code]
    best = max(s for s, _ in scores)
    winners = [x for s, x in scores if s == best]
    return winners[0] if len(winners) == 1 else None


def brute_error_probability(code: Code, params: ChannelParams) -> Fraction:
    """Decoder error probability as 1 - (1/M) * sum over all received y of
    Pr(y | brute_mld(y)), skipping the received words that fail."""
    success = Fraction(0)
    for bits in range(1 << code.n):
        y = Word(code.n, bits)
        x = brute_mld(code, y, params)
        if x is not None:
            success += likelihood(y, x, params)
    return 1 - success / len(code)


def brute_distribution_counts(code: Code) -> dict[tuple[int, int], int]:
    """Plain dictionary pair count, independent of the library loop."""
    counts: dict[tuple[int, int], int] = {}
    for x in code.words:
        for y in code.words:
            key = ((x & ~y).bit_count(), (y & ~x).bit_count())
            counts[key] = counts.get(key, 0) + 1
    return counts


def random_code(rng: random.Random, n: int, size: int) -> Code:
    words = rng.sample(range(1 << n), size)
    return Code(n, words)


def random_generator_rows(rng: random.Random, n: int, k: int) -> list[int]:
    """k independent random rows over F_2^n (resampled until full rank)."""
    while True:
        rows = [rng.randrange(1, 1 << n) for _ in range(k)]
        if _rank(rows) == k:
            return rows


def _rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    for row in rows:
        v = row
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                v ^= pivots[top]
            else:
                pivots[top] = v
                break
    return len(pivots)


def span_code(n: int, rows: list[int]) -> Code:
    words = [0]
    for row in rows:
        words += [w ^ row for w in words]
    return Code(n, words, is_linear=True)


def rows_from_columns(columns: tuple[int, ...], k: int) -> list[int]:
    """Generator rows whose column c is the k-bit vector columns[c]."""
    rows = []
    for r in range(k):
        row = 0
        for c, col in enumerate(columns):
            if (col >> r) & 1:
                row |= 1 << c
        rows.append(row)
    return rows


def macwilliams(weights: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Dual weight distribution via the Krawtchouk transform (oracle only)."""
    size = sum(weights)
    out = []
    for j in range(n + 1):
        acc = 0
        for i, a_i in enumerate(weights):
            if not a_i:
                continue
            kraw = sum((-1) ** l * math.comb(i, l) * math.comb(n - i, j - l)
                       for l in range(j + 1))
            acc += a_i * kraw
        assert acc % size == 0
        out.append(acc // size)
    return tuple(out)


def directional_pair(x: Word, y: Word) -> tuple[int, int]:
    """Independent recount of (d10, d01) straight from the bit tuples."""
    xb, yb = x.to_bits(), y.to_bits()
    d10 = sum(1 for a, b in zip(xb, yb) if a == 1 and b == 0)
    d01 = sum(1 for a, b in zip(xb, yb) if a == 0 and b == 1)
    return d10, d01


def padded_code(rng: random.Random, core: Code, n: int) -> Code:
    """Embed a core code in length n: constant bits shared by every
    codeword fill the new positions, then a seeded permutation moves
    every coordinate.  All codewords agree off the core, which scales
    every likelihood alike, so the padded code decodes as its core does.
    """
    perm = rng.sample(range(n), n)
    const = rng.getrandbits(n - core.n) << core.n
    words = [sum(1 << perm[i] for i in range(n) if (c | const) >> i & 1)
             for c in core.words]
    return Code(n, words)


# --- per-term bound loops, kept verbatim as references for the batched
# kernels in bidistance.bounds: the same float operations in the same order


def reference_region_threshold(d10: int, d01: int, gamma: float) -> int:
    """Least total flip count at which the rival word is preferred."""
    tau = (d10 * gamma + d01) / (gamma + 1.0)
    nearest = round(tau)
    if abs(tau - nearest) < SNAP:
        return nearest
    return math.ceil(tau)


def reference_pep(d10: int, d01: int, params: ChannelParams) -> float:
    """Float pairwise error probability, one term at a time."""
    if d10 < 0 or d01 < 0:
        raise ValueError("directional distances must be non-negative")
    t = reference_region_threshold(d10, d01, params.gamma)
    p, q = params.fp, params.fq
    q_terms = [math.comb(d10, i) * q ** i * (1 - q) ** (d10 - i) for i in range(d10 + 1)]
    p_terms = [math.comb(d01, j) * p ** j * (1 - p) ** (d01 - j) for j in range(d01 + 1)]
    total = 0.0
    for i in range(d10 + 1):
        for j in range(max(0, t - i), d01 + 1):
            total += q_terms[i] * p_terms[j]
    return total


def reference_min_over_pairs(code: Code, params: ChannelParams, symmetric: bool) -> float:
    """Minimum (symmetric) discrepancy over the support of the pair table."""
    if len(code) < 2:
        raise ValueError("minimum discrepancy needs at least two codewords")
    g = params.gamma
    slope = g - 1.0 if symmetric else 0.0
    return min(g * a + b - wt * slope for wt, a, b in code.pair_table() if a or b)


def reference_retained_mass(code: Code, params: ChannelParams,
                            h_threshold) -> tuple[float, dict[str, float]]:
    """Retained likelihood mass, one lattice term at a time."""
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


def _reference_report(method: str, raw: float, components: dict[str, float]) -> dict:
    return BoundReport(method, min(1.0, raw), raw, components).to_json_dict()


def reference_ahb(dist: BidistanceDistribution, params: ChannelParams) -> dict:
    """JSON form of the AHB union bound from the per-term loops."""
    total = 0.0
    components: dict[str, float] = {}
    for (a, b), count in sorted(dist.entries.items()):
        if (a, b) == (0, 0):
            continue
        term = count * reference_pep(a, b, params) / dist.size
        components[f"{a},{b}"] = term
        total += term
    return _reference_report("ahb", total, components)


def reference_cr(code: Code, params: ChannelParams, symmetric: bool) -> dict:
    """JSON form of either weight-class bound from the per-term loops."""
    dmin = reference_min_over_pairs(code, params, symmetric)
    g = params.gamma
    if symmetric:
        method = "cr_symmetric"
        total, components = reference_retained_mass(
            code, params, lambda i, j: (dmin + i * (g - 1.0)) / 2.0)
    else:
        method = "cr_discrepancy"
        total, components = reference_retained_mass(
            code, params, lambda i, j: (dmin + (g - 1.0) * (i - j)) / 2.0)
    return _reference_report(method, 1.0 - total / len(code), components)
