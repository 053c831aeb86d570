"""Shared brute-force oracles and deterministic random generators."""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction
from typing import Sequence

import numpy as np

from bidistance import bounds
from bidistance._bitops import AndCounts, popcount
from bidistance.algebra import (BinaryField, GeneratorMatrix, _null_space_rows,
                                coset_distribution_matrix, distinct_row_count, dual_code,
                                generator_from_code)
from bidistance.bounds import pairwise_error_probability
from bidistance.channel import ChannelParams, _channel_keys, _keys, likelihood
from bidistance.core import BidistanceDistribution, Code, ParseError, Word
from bidistance.designs import (MEASURE_SIZE_CAP, SchemeParams, SrgParams,
                               srg_from_two_weight)


def eq3_pairwise_oracle(d10: int, d01: int, params: ChannelParams) -> Fraction:
    """Pairwise error probability by exhaustive received-word enumeration.

    Builds an explicit word pair realizing the offsets (all coordinates
    differ), sums Pr(y | x) over every y whose likelihood under the rival
    is at least as large, comparing exact integer scores over the common
    denominator (dp*dq)**n.  The scores use powers of its own, so the oracle
    shares no code with the decoder's score function.
    """
    if d10 == 0 and d01 == 0:
        return Fraction(1)
    n = d10 + d01
    x = (1 << d10) - 1
    x_alt = ((1 << d01) - 1) << d10
    (pn, pd), (qn, qd) = params.p.as_integer_ratio(), params.q.as_integer_ratio()
    q_flip, q_keep, p_flip, p_keep, pd_pow, qd_pow = (
        [base ** i for i in range(n + 1)] for base in (qn, qd - qn, pn, pd - pn, pd, qd))

    def score(w: int, a: int, b: int) -> int:
        # a 1->0 and b 0->1 flips of a word of weight w, times (dp*dq)**n
        return (q_flip[a] * q_keep[w - a] * p_flip[b] * p_keep[n - w - b]
                * pd_pow[w] * qd_pow[n - w])

    numerator = 0
    for y in range(1 << n):
        s_x = score(d10, (x & ~y).bit_count(), (y & ~x).bit_count())
        s_alt = score(d01, (x_alt & ~y).bit_count(), (y & ~x_alt).bit_count())
        if s_alt >= s_x:
            numerator += s_x
    return Fraction(numerator, (pd * qd) ** n)


def brute_mld(code: Code, y: Word, params: ChannelParams) -> Word | None:
    """The unique maximizer of the Fraction likelihood over the code, or
    None when the maximum is shared (a decoding failure)."""
    scores = [(likelihood(y, x, params), x) for x in code]
    best = max(s for s, _ in scores)
    winners = [x for s, x in scores if s == best]
    return winners[0] if len(winners) == 1 else None


def kernel_ranks(code: Code, params: ChannelParams) -> list[int]:
    """The dense rank of the decoder's key of every (weight, c) cell, in cell
    order, for a code of one word per weight in ascending order: in the block
    min(w_k, c), row k's first w_k + 1 columns are its cells c <= w_k."""
    pairs = AndCounts.of_code(code)
    weights = pairs.weights
    key = _keys(np.minimum.outer(weights, np.arange(code.n + 1)),
                _channel_keys(pairs, *params.bracket(code.n)))
    cells = np.concatenate([row[:w + 1] for row, w in zip(key, weights.tolist())])
    return np.unique(cells, return_inverse=True)[1].tolist()


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


def reference_monte_carlo(code: Code, channels: Sequence[ChannelParams], trials: int,
                          seed: int) -> list[float]:
    """Monte Carlo estimates by the reproducibility contract, from the whole stream at
    once: every trial's codeword index, then every trial's n uniforms.  At each channel,
    c = wt(x & y) of every codeword and received word comes from one int64 product and
    the keys c(u + v) - w*v from the channel's bracket (u, v); a trial errs when another
    codeword's key ties or beats the sent word's."""
    rng = np.random.default_rng(seed)
    sent = rng.integers(0, len(code), size=trials)
    uniforms = rng.random((trials, code.n))
    bits = np.array([np.frombuffer(format(w, f"0{code.n}b")[::-1].encode(), np.uint8) - 48
                     for w in code.words], dtype=np.int64)
    weight, trial, ones = bits.sum(axis=1), np.arange(trials), bits[sent] == 1
    out = []
    for params in channels:
        flips = (uniforms < float(params.q)) & ones | (uniforms < float(params.p))
        common = bits @ (ones ^ flips).astype(np.int64).T
        u, v = params.bracket(code.n)
        key = common * (u + v) - weight[:, None] * v
        top = key.max(axis=0)
        errs = ((key == top).sum(axis=0) > 1) | (key[sent, trial] < top)
        out.append(int(errs.sum()) / trials)
    return out


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


def random_long_code(rng: random.Random, n: int, size: int) -> Code:
    """``size`` distinct uniform words of any length n, in draw order."""
    words: dict[int, None] = {}
    while len(words) < size:
        words.setdefault(rng.getrandbits(n))
    return Code(n, list(words))


def random_generator_rows(rng: random.Random, n: int, k: int) -> list[int]:
    """k independent random rows over F_2^n (resampled until full rank)."""
    while True:
        rows = [rng.randrange(1, 1 << n) for _ in range(k)]
        if reference_rank(rows) == k:
            return rows


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


#: lengths on both sides of each byte and 64-bit lane boundary
EDGE_LENGTHS = (1, 7, 8, 9, 63, 64, 65, 129)


# --- the per-lane and per-bit loops that int.from_bytes and Word's str form replaced

def reference_row_ints(packed: np.ndarray) -> list[int]:
    """The int of each packed row, one ``int.from_bytes`` over its little-endian bytes."""
    return [int.from_bytes(row.astype("<u8").tobytes(), "little") for row in packed]


def reference_to_bits(w: Word) -> tuple[int, ...]:
    return tuple((w.bits >> i) & 1 for i in range(w.n))


def reference_support(w: Word) -> tuple[int, ...]:
    return tuple(i for i in range(w.n) if (w.bits >> i) & 1)


def reference_from_bits(bits) -> Word:
    seq = list(bits)
    if any(b not in (0, 1) for b in seq):
        raise ValueError("symbols must be 0 or 1")
    return Word(len(seq), sum(b << i for i, b in enumerate(seq)))


# --- the binomial tail that judges a Monte Carlo error count against a bound

@functools.lru_cache(maxsize=8)
def _log_factorials(m: int) -> np.ndarray:
    """log j! for j = 0..m, from math.lgamma."""
    return np.array([math.lgamma(j + 1) for j in range(m + 1)])


def binomial_tail(trials: int, p: float, k: int) -> float:
    """P(Bin(trials, p) >= k): the sum over j >= k of each term's exp, the binomial
    coefficient taken from lgamma log-factorials; 1 or 0 where the tail is certain."""
    if k <= 0 or p >= 1:
        return 1.0
    if p <= 0 or k > trials:
        return 0.0
    log_fact, j = _log_factorials(trials), np.arange(k, trials + 1)
    return float(np.exp(log_fact[trials] - log_fact[j] - log_fact[trials - j]
                        + j * math.log(p) + (trials - j) * math.log1p(-p)).sum())


def edge_code(rng: random.Random, n: int, size: int = 8) -> Code:
    """The all-zeros and all-ones words plus random words, shuffled."""
    words = list({0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(size - 2)})
    rng.shuffle(words)
    return Code(n, words)


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


# --- the 2^n word sweep that the coset recurrence in bidistance.algebra replaced

_SWEEP_CHUNK = 1 << 20


def reference_coset_matrix(g: GeneratorMatrix) -> np.ndarray:
    """Weight histogram of every coset of the code generated by ``g``.

    Sweeps all 2^n words in chunks, bucketing each by its syndrome under
    a dual basis of ``g``; one row per coset, columns are weights 0..n.
    """
    n = g.n
    checks = _null_space_rows(g.rows, n)
    width = n + 1
    n_cosets = 1 << len(checks)
    hist = np.zeros(n_cosets * width, dtype=np.int64)
    for start in range(0, 1 << n, _SWEEP_CHUNK):
        stop = min(start + _SWEEP_CHUNK, 1 << n)
        words = np.arange(start, stop, dtype=np.uint64)
        weights = popcount(words)
        syndrome = np.zeros(stop - start, dtype=np.int64)
        for bit, h in enumerate(checks):
            syndrome |= (popcount(words & np.uint64(h)) & 1) << bit
        hist += np.bincount(syndrome * width + weights, minlength=n_cosets * width)
    return hist.reshape(n_cosets, width)


# --- the Python loops that the packed F_2 elimination and the basis span replaced


def reference_rank(words: Sequence[int]) -> int:
    """Rank over F_2 by the pivot loop Code._check_linear used; a set of
    distinct words is linear iff it has 2^rank members."""
    pivots: dict[int, int] = {}
    for w in words:
        v = w
        while v:
            h = v.bit_length() - 1
            if h in pivots:
                v ^= pivots[h]
            else:
                pivots[h] = v
                break
    return len(pivots)


def reference_rref(rows: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over F_2: (reduced rows, pivot columns)."""
    work = [int(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, len(work)) if (work[i] >> col) & 1), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and (work[i] >> col) & 1:
                work[i] ^= work[rank]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


def reference_defining_set_words(field: BinaryField, elems: Sequence[int]) -> list[int]:
    """The trace word of every field element beta, coordinate i the
    absolute trace of beta * d_i, sorted and deduplicated."""
    masks = set()
    for beta in range(field.order):
        w = 0
        for i, d in enumerate(elems):
            if field.trace(field.mul(beta, d)):
                w |= 1 << i
        masks.add(w)
    return sorted(masks)


def reference_word_text(w: Word) -> str:
    """A word's 0/1 string, one generator step per coordinate."""
    return "".join("1" if (w.bits >> i) & 1 else "0" for i in range(w.n))


def reference_sbibd_words(design, family: int, anchor: int = 1) -> list[int]:
    """Support masks of a design code family, point by point."""
    def mask(points, skip=None):
        return sum(1 << (p - 1 if skip is None or p < skip else p - 2)
                   for p in points if p != skip)
    full = set(range(1, design.v + 1))
    blocks, comps = design.blocks, [full - set(b) for b in design.blocks]
    if family == 1:
        return [mask(b) for b in blocks]
    if family == 2:
        return [mask(b) for b in blocks] + [mask(c) for c in comps]
    if family == 3:
        return [mask(b) | 1 << design.v for b in blocks] + [mask(c) for c in comps]
    return ([mask(b, anchor) for b in blocks if anchor in b]
            + [mask(c, anchor) for b, c in zip(blocks, comps) if anchor not in b])


def reference_srg(code: Code, w1: int) -> SrgParams:
    """verify_srg by one Python pass over the vertex pairs, with the
    adjacency rows held as bitmask ints."""
    v = len(code)
    words = code.words
    adjacency = []
    for x in words:
        row = 0
        for j, y in enumerate(words):
            if x != y and (x ^ y).bit_count() == w1:
                row |= 1 << j
        adjacency.append(row)
    degrees = {row.bit_count() for row in adjacency}
    if len(degrees) != 1:
        raise ValueError("not strongly regular: the graph is not regular")
    valency = degrees.pop()
    if valency == 0 or valency == v - 1:
        raise ValueError("not strongly regular: the graph is empty or complete")
    lams, mus = set(), set()
    for i in range(v):
        for j in range(i + 1, v):
            common = (adjacency[i] & adjacency[j]).bit_count()
            (lams if (adjacency[i] >> j) & 1 else mus).add(common)
    if len(lams) > 1 or len(mus) > 1:
        raise ValueError("not strongly regular: common-neighbour counts vary")
    mu = mus.pop() if mus else 0
    if mu == 0:
        raise ValueError("not strongly regular: the graph is disconnected")
    return SrgParams(v, valency, lams.pop() if lams else 0, mu)


def reference_two_weight_ahb(n: int, k: int, w1: int, w2: int,
                             count_w1: int, count_w2: int) -> BidistanceDistribution:
    """two_weight_ahb by the paper's six rows of doubled offsets, from
    counting triangles through the zero word in the graph and its
    complement, with the same validations; coinciding offsets aggregate."""
    v = 1 << k
    if count_w1 < 0 or count_w2 < 0 or count_w1 + count_w2 != v - 1:
        raise ValueError("weight counts must cover exactly the nonzero words")
    graph = srg_from_two_weight(n, k, w1, w2)
    if graph.k != count_w1:
        raise ValueError("graph valency disagrees with the weight-w1 count")
    lam, mu, a1, a2 = graph.lam, graph.mu, count_w1, count_w2
    doubled_rows = [
        ((w1, w1), a1 * a2 + lam * a1 - mu * a2),
        ((w2, w2), a2 * (a2 - a1 + mu - 1) + a1 * (a1 - lam - 1)),
        ((2 * w1 - w2, w2), a1 * (a1 - lam - 1)),
        ((w1, 2 * w2 - w1), a2 * (a1 - mu)),
        ((w2, 2 * w1 - w2), a1 * (a1 - lam - 1)),
        ((2 * w2 - w1, w1), a2 * (a1 - mu)),
    ]
    entries: dict[tuple[int, int], int] = {}
    for doubled, freq in doubled_rows:
        if freq == 0:
            continue
        if freq < 0:
            raise ValueError(f"negative frequency {freq}")
        if any(x % 2 or x < 0 for x in doubled):
            raise ValueError(f"doubled offsets {doubled} are odd or negative")
        pair = (doubled[0] // 2, doubled[1] // 2)
        entries[pair] = entries.get(pair, 0) + freq
    return BidistanceDistribution.from_off_diagonal(n, v - 1, entries)


def reference_scheme(code: Code, sample: int = 50) -> SchemeParams:
    """scheme_from_three_weight by the coset table and the pair kernel it
    used before its transforms, with the same checks in the same order.

    The dual's coset distribution matrix must have exactly four distinct
    rows.  Then, as linearity makes pair classes translation-invariant,
    p[k][i][j] counts the codewords y of class i with y ^ z of class j for
    representatives z of class k, a stride sample of at most ``sample`` of
    them per class (``sample=0`` takes all), in blocks: c = wt(y & z) from
    the pair kernel, wt(y ^ z) = wt(y) + wt(z) - 2c, one bincount of the
    classes.
    """
    if sample < 0:
        raise ValueError(f"sample must be non-negative, got {sample}")
    if len(code) > MEASURE_SIZE_CAP:
        raise ValueError(f"scheme measurement capped at {MEASURE_SIZE_CAP} codewords")
    generator = generator_from_code(code)
    dist = code.weight_distribution()
    weights = [w for w in range(1, code.n + 1) if dist[w]]
    if len(weights) != 3:
        raise ValueError(f"need exactly three nonzero weights, found {len(weights)}")
    rows = distinct_row_count(coset_distribution_matrix(dual_code(generator)))
    if rows != 4:
        raise ValueError(
            f"not an association scheme: the dual coset matrix has {rows} distinct "
            "rows instead of 4")
    words = AndCounts.of_code(code)
    wts = words.weights
    class_of = np.zeros(code.n + 1, dtype=np.intp)
    class_of[weights] = (1, 2, 3)
    cls_y = 4 * class_of[wts]
    valences = tuple(dist[w] for w in weights)
    measured = [tuple(map(tuple, np.diag((1,) + valences).tolist()))]
    for k, wk in enumerate(weights, start=1):
        reps = np.flatnonzero(wts == wk)
        if sample and len(reps) > sample:
            stride = -(-len(reps) // sample)
            reps = reps[::stride][:sample]
        tables = set()
        for start in range(0, len(reps), words.rows):
            block = reps[start:start + words.rows]
            wyz = wts[block, None] + wts - 2 * words.word_major(words.bits[block]).T
            cells = cls_y + class_of[wyz] + 16 * np.arange(len(block))[:, None]
            counts = np.bincount(cells.ravel(), minlength=16 * len(block))
            tables.update(tuple(map(tuple, t)) for t in counts.reshape(-1, 4, 4).tolist())
        if len(tables) != 1:
            raise ValueError(
                f"not an association scheme: counts vary across class-{k} pairs")
        measured.append(tables.pop())
    return SchemeParams(valences, tuple(measured))


# --- exact oracles for the float bounds in bidistance.bounds


@functools.lru_cache(maxsize=1 << 16)
def gamma_at_least(s: int, r: int, params: ChannelParams) -> bool:
    """s * gamma >= r, decided in Fractions as A**s <= B**r: gamma is
    log A / log B for A = p/(1-q) and B = q/(1-p), and log B < 0."""
    a, b = params.p / (1 - params.q), params.q / (1 - params.p)
    return a ** s <= b ** r


def reference_ceiling(e1: int, e2: int, params: ChannelParams) -> int:
    """Least integer k with gamma (k - e1) >= e2 - k, that is the ceiling of
    (gamma e1 + e2) / (1 + gamma).  The float gamma only picks where to
    start; exact comparisons walk to the answer."""
    g = params.gamma
    k = math.floor((g * e1 + e2) / (1.0 + g))
    while gamma_at_least(k - 1 - e1, e2 - k + 1, params):
        k -= 1
    while not gamma_at_least(k - e1, e2 - k, params):
        k += 1
    return k


def reference_region_threshold(d10: int, d01: int, params: ChannelParams) -> int:
    """Least total flip count k at which the rival word is preferred:
    (1 + gamma) k >= gamma d10 + d01."""
    return reference_ceiling(d10, d01, params)


def reference_cr_thresholds(code: Code, params: ChannelParams,
                            symmetric: bool) -> dict[int, int]:
    """t_j of each weight class j of either weight-class bound: the least k
    with (1 + gamma) k >= gamma a + b + s (gamma - 1)(j - wt) for some
    distinct pair (wt, a, b), s = 1 for the symmetric bound and 0 else."""
    s = int(symmetric)
    pairs = [(wt, a, b) for wt, a, b in code.pair_table() if a or b]
    if not pairs:
        raise ValueError("minimum discrepancy needs at least two codewords")
    return {j: min(reference_ceiling(a + s * (j - wt), b - s * (j - wt), params)
                   for wt, a, b in pairs)
            for j, count in enumerate(code.weight_distribution()) if count}


def reference_exact_pep(d10: int, d01: int, params: ChannelParams) -> Fraction:
    """Exact pairwise error probability as a double loop of Fraction terms
    over the preference region."""
    t = reference_region_threshold(d10, d01, params)
    p, q = params.p, params.q
    q_terms = [math.comb(d10, i) * q ** i * (1 - q) ** (d10 - i) for i in range(d10 + 1)]
    p_terms = [math.comb(d01, j) * p ** j * (1 - p) ** (d01 - j) for j in range(d01 + 1)]
    total = Fraction(0)
    for i in range(d10 + 1):
        for j in range(max(0, t - i), d01 + 1):
            total += q_terms[i] * p_terms[j]
    return total


def exact_flip_tail(d1: int, d2: int, t: int, params: ChannelParams) -> Fraction:
    """P(Bin(d1, q) + Bin(d2, p) >= t) in integers over the common
    denominator qd**d1 * pd**d2: fast enough for lengths in the thousands."""
    pn, pd = params.p.numerator, params.p.denominator
    qn, qd = params.q.numerator, params.q.denominator
    q_num = [math.comb(d1, i) * qn ** i * (qd - qn) ** (d1 - i) for i in range(d1 + 1)]
    p_num = [math.comb(d2, j) * pn ** j * (pd - pn) ** (d2 - j) for j in range(d2 + 1)]
    tail = list(itertools.accumulate(reversed(p_num)))[::-1] + [0]
    total = sum(q_num[i] * tail[min(max(t - i, 0), d2 + 1)] for i in range(d1 + 1))
    return Fraction(total, qd ** d1 * pd ** d2)


def reference_ahb(dist: BidistanceDistribution, params: ChannelParams) -> dict[str, Fraction]:
    """Exact AHB components: each frequency times the exact pairwise error
    probability, over the code size."""
    return {f"{a},{b}": count * pairwise_error_probability(a, b, params, exact=True)
            / dist.size
            for (a, b), count in sorted(dist.entries.items()) if (a, b) != (0, 0)}


def reference_cr(code: Code, params: ChannelParams, symmetric: bool) -> dict[str, Fraction]:
    """Exact error mass of each weight class of either weight-class bound.

    Takes dmin = alpha gamma + beta from the pair that minimizes it, by
    exact comparison; enumerates the (received weight i, a) lattice of
    class j, b = a + i - j, and counts a cell as an error when its level
    a + gamma*b is at least h(i, j), decided by ``gamma_at_least``.  Each
    class sum is an integer over the common denominator qd**j * pd**(n - j).
    """
    if len(code) < 2:
        raise ValueError("minimum discrepancy needs at least two codewords")
    s = int(symmetric)
    # gamma a + b - s wt (gamma - 1) = alpha gamma + beta
    forms = {(a - s * wt, b + s * wt) for wt, a, b in code.pair_table() if a or b}
    alpha, beta = functools.reduce(
        lambda x, y: y if gamma_at_least(x[0] - y[0], y[1] - x[1], params) else x, forms)
    n = code.n
    pn, pd = params.p.numerator, params.p.denominator
    qn, qd = params.q.numerator, params.q.denominator
    components: dict[str, Fraction] = {}
    for j, count in enumerate(code.weight_distribution()):
        if not count:
            continue
        numerator = 0
        for i in range(n + 1):
            # 2h = dmin + (gamma - 1) m: m = i (symmetric) or i - j
            m = i if symmetric else i - j
            for a in range(j + 1):
                b = a + i - j
                if not 0 <= b <= n - j:
                    continue
                # a + gamma b >= h  <=>  gamma (2b - alpha - m) >= beta - m - 2a
                if gamma_at_least(2 * b - alpha - m, beta - m - 2 * a, params):
                    numerator += (math.comb(j, a) * qn ** a * (qd - qn) ** (j - a)
                                  * math.comb(n - j, b) * pn ** b * (pd - pn) ** (n - j - b))
        components[f"error[w={j}]"] = (count * Fraction(numerator, qd ** j * pd ** (n - j))
                                       / len(code))
    return components


def reference_tail_gather(plan, t: np.ndarray, params: ChannelParams) -> np.ndarray:
    """A ``bounds._TailPlan`` call by a per-channel clip index: entry e's factors
    are its p-tail row at clip(t_e - k, 0, K) for k < K, gathered by one 2-D
    fancy index per block of the plan's entries."""
    pmf_p = plan._pmf(params.p)
    tail_p = np.zeros((len(pmf_p), pmf_p.shape[1] + 1))
    tail_p[:, -2::-1] = np.cumsum(pmf_p[:, ::-1], axis=1)
    pmf_q = plan._pmf(params.q)
    out = np.empty(len(plan.q_row))
    step = max(1, bounds.BLOCK_CELLS // len(plan.k))
    for lo in range(0, len(out), step):
        block = slice(lo, lo + step)
        k = np.clip(t[block, None] - plan.k, 0, tail_p.shape[1] - 1)
        out[block] = (pmf_q[plan.q_row[block]] * tail_p[plan.p_row[block, None], k]).sum(axis=1)
    return out


def reference_pair_table(code: Code) -> tuple[np.ndarray, np.ndarray]:
    """``core._pair_table`` one weight class at a time: per class wx, an int64
    accumulator of (class of y, c) cells, decoded into its own keys, and the
    classes' keys and counts joined in ascending wx."""
    pairs = AndCounts.of_code(code)
    wts, col_class = np.unique(pairs.weights, return_inverse=True)
    parts = []
    for k, wx in enumerate(wts.tolist()):
        rows = np.flatnonzero(col_class == k)
        acc = np.zeros(len(wts) * (wx + 1), dtype=np.int64)
        cells = col_class[:, None] * (wx + 1)
        for start in range(0, len(rows), pairs.rows):
            common = pairs.word_major(pairs.bits[rows[start:start + pairs.rows]])
            acc += np.bincount((cells + common).ravel(), minlength=len(acc))
        y, c = np.divmod(np.flatnonzero(acc), wx + 1)
        parts.append((np.column_stack([np.full_like(c, wx), wx - c, wts[y] - c]), acc[acc != 0]))
    keys, counts = map(np.concatenate, zip(*parts))
    return keys, counts


def reference_parse_code_text(text: str, source: str = "<text>") -> Code:
    """``core.parse_code_text`` line by line: each stripped line that is not
    blank or a '#' comment must be a 0/1 word of the first word's length."""
    masks: list[int] = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not re.match(r"^[01]+$", line):
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


# --- the dict form of the pair distribution that its sorted arrays replaced

#: channels of the dict-form check, one of them at p = q
DICT_FORM_CHANNELS = [ChannelParams.from_decimals("0.1", "0.1"),
                      ChannelParams.from_decimals("0.05", "0.3"),
                      ChannelParams.from_decimals("0.2", "0.45")]


def reference_project(pairs: np.ndarray, counts: np.ndarray) -> dict[tuple[int, int], int]:
    """The int64 sum of ``counts`` over each distinct row of the non-negative (K, 2)
    ``pairs``, as a dict in ascending (d10, d01): ``np.unique`` of one combined key
    with its first indices and inverse, then ``np.add.at``."""
    a, b = pairs.T
    _, first, inverse = np.unique(a * (b.max() + 1) + b, return_index=True, return_inverse=True)
    sums = np.zeros(len(first), dtype=np.int64)
    np.add.at(sums, inverse, counts)
    return dict(zip(map(tuple, pairs[first].tolist()), sums.tolist()))


def reference_json_dict(n: int, size: int, entries: dict[tuple[int, int], int]) -> dict:
    """``BidistanceDistribution.to_json_dict`` of a dict of entries, sorted."""
    return {"n": n, "size": size,
            "entries": [{"d10": a, "d01": b, "count": c} for (a, b), c in sorted(entries.items())]}


def reference_ahb_union_bounds(n: int, size: int, entries: dict[tuple[int, int], int],
                               channels: list[ChannelParams]) -> list:
    """``bounds.ahb_union_bounds`` from a dict of entries: int64 arrays by
    ``np.fromiter``, sorted by one ``lexsort``, (0, 0) left out, and a new tail
    plan for the call."""
    pairs = np.fromiter(itertools.chain.from_iterable(entries), np.int64).reshape(-1, 2)
    order = np.lexsort(pairs.T[::-1])[1:]
    if not len(order):
        return [bounds._report("ahb", [], []) for _ in channels]
    (d10, d01), counts = pairs[order].T, np.fromiter(entries.values(), np.int64)[order]
    keys = list(map("{},{}".format, d10.tolist(), d01.tolist()))
    rows = bounds._TailPlan(d10, d01)(
        [bounds.region_threshold(d10, d01, params, n) for params in channels], channels)
    return [bounds._report("ahb", keys, (counts * row / size).tolist()) for row in rows]


def check_dict_form(dist: BidistanceDistribution, want: dict[tuple[int, int], int]) -> None:
    """The distribution's arrays, ``entries``, views, JSON bytes and AHB reports
    equal those of the dict ``want`` by the references above; the second AHB
    call, over the channels reversed, reads the plan the first one kept."""
    ordered = sorted(want.items())
    assert dist.pairs.dtype == dist.counts.dtype == np.int64
    assert dist.pairs.shape == (len(want), 2) and dist.counts.shape == (len(want),)
    assert dist.pairs.tolist() == [list(pair) for pair, _ in ordered]
    assert dist.counts.tolist() == [count for _, count in ordered]
    assert not dist.pairs.flags.writeable and not dist.counts.flags.writeable
    assert list(dist.entries.items()) == ordered
    assert dist.multiset() == ordered[1:] and dist.off_diagonal() == dict(ordered[1:])
    assert json.dumps(dist.to_json_dict(), indent=2) == \
        json.dumps(reference_json_dict(dist.n, dist.size, want), indent=2)
    reports = reference_ahb_union_bounds(dist.n, dist.size, want, DICT_FORM_CHANNELS)
    assert bounds.ahb_union_bounds(dist, DICT_FORM_CHANNELS) == reports
    assert bounds.ahb_union_bounds(dist, DICT_FORM_CHANNELS[::-1]) == reports[::-1]
