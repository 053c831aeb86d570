"""Asymmetric-channel model, exact-likelihood decoding, and error probability.

Crossover probabilities are exact rationals parsed from decimal strings;
the supported regime is 0 < p <= q < 1/2, where p is the 0->1 and q the
1->0 flip probability.  Every decoder here is one block kernel, _RankKernel.
A codeword x's likelihood order for a received y depends only on the key
(wt(x), c = wt(x & y)); each call ranks every key once by a float order that
exact integers settle wherever rounding could decide it, so ties are exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from ._bitops import bit_matrix
from .core import CapExceeded, Code, ParseError, Word, dir_distances

DEFAULT_EXHAUSTIVE_CAP = 24

#: the most trials per Monte Carlo draw; the batching changes no estimate
MC_CHUNK = 1 << 15

#: (received word, codeword) cells per kernel block, the cap on a code's rank
#: keys, counted as one per (wt, a, b) triple over its weights, and the length
#: below which the float32 bit-matrix product counts exactly
_BLOCK_CELLS = 1 << 16
MAX_RANK_KEYS = 1 << 25
MAX_LENGTH = 1 << 24

_DECIMAL_RE = re.compile(r"^\d+(\.\d+)?$")


class RegimeError(ValueError):
    """Channel parameters outside the supported regime 0 < p <= q < 1/2."""


def parse_probability(text: str) -> Fraction:
    """Exact rational from a plain decimal literal.

    Scientific notation and signs are rejected: the written digits alone
    define the value used in all downstream exact arithmetic.
    """
    text = text.strip()
    if not _DECIMAL_RE.match(text):
        raise ParseError(f"not a plain decimal probability: {text!r}")
    return Fraction(text)


@dataclass(frozen=True)
class ChannelParams:
    """Crossover probabilities: p flips 0 to 1, q flips 1 to 0."""

    p: Fraction
    q: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.p, Fraction) or not isinstance(self.q, Fraction):
            raise TypeError("p and q must be Fractions; see from_decimals()")
        if not 0 < self.p <= self.q < Fraction(1, 2):
            raise RegimeError(f"need 0 < p <= q < 1/2, got p={self.p}, q={self.q}")

    @classmethod
    def from_decimals(cls, p: str, q: str) -> "ChannelParams":
        return cls(parse_probability(p), parse_probability(q))

    @cached_property
    def gamma(self) -> float:
        """The exponent g solving (q/(1-p))**g = p/(1-q); 1 exactly iff p = q."""
        num = self.p / (1 - self.q)
        den = self.q / (1 - self.p)
        if num == den:
            return 1.0
        return ((math.log(num.numerator) - math.log(num.denominator))
                / (math.log(den.numerator) - math.log(den.denominator)))

    @cached_property
    def fp(self) -> float:
        return float(self.p)

    @cached_property
    def fq(self) -> float:
        return float(self.q)


class _ScoreTable:
    """Integer likelihood scores over the common denominator (dp*dq)**n.

    score(w, a, b) / denominator equals the probability of receiving a
    word at flip offsets (a 1->0, b 0->1) from a transmitted word of
    weight w, so integer score comparison is exact likelihood comparison.
    """

    def __init__(self, n: int, params: ChannelParams):
        self.n = n
        pn, pd = params.p.numerator, params.p.denominator
        qn, qd = params.q.numerator, params.q.denominator
        rng = range(n + 1)
        self._q_flip = [qn ** i for i in rng]
        self._q_keep = [(qd - qn) ** i for i in rng]
        self._p_flip = [pn ** i for i in rng]
        self._p_keep = [(pd - pn) ** i for i in rng]
        self._pd_pow = [pd ** i for i in rng]
        self._qd_pow = [qd ** i for i in rng]
        self.denominator = (pd * qd) ** n

    def score(self, w: int, a: int, b: int) -> int:
        return (self._q_flip[a] * self._q_keep[w - a]
                * self._p_flip[b] * self._p_keep[self.n - w - b]
                * self._pd_pow[w] * self._qd_pow[self.n - w])


@lru_cache(maxsize=64)
def _score_table(n: int, params: ChannelParams) -> _ScoreTable:
    return _ScoreTable(n, params)


def likelihood(y: Word, x: Word, params: ChannelParams) -> Fraction:
    """Exact probability of receiving y given that x was transmitted."""
    flips = dir_distances(x, y)
    w = x.weight
    return (params.q ** flips.d10 * (1 - params.q) ** (w - flips.d10)
            * params.p ** flips.d01 * (1 - params.p) ** (x.n - w - flips.d01))


def llr(x: Word, x_alt: Word, y: Word, params: ChannelParams) -> float:
    """Log likelihood ratio log(Pr(y|x) / Pr(y|x_alt)).

    The sign is decided by exact rational comparison; the magnitude is an
    informational float.  Zero is returned only on an exact tie.
    """
    lx = likelihood(y, x, params)
    la = likelihood(y, x_alt, params)
    if lx == la:
        return 0.0
    val = (math.log(lx.numerator) - math.log(lx.denominator)
           - math.log(la.numerator) + math.log(la.denominator))
    want = 1.0 if lx > la else -1.0
    if val == 0.0 or (val > 0.0) != (lx > la):
        return math.copysign(math.ulp(0.0), want)
    return val


@dataclass(frozen=True)
class DecodeResult:
    """The unique most-likely codeword, or a failure marker on exact ties."""

    word: Word | None

    @property
    def is_failure(self) -> bool:
        return self.word is None


FAILURE = DecodeResult(None)


def _rank_keys(weights: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Dense rank of X**w * Y**c over the keys (w, c), c = 0..w, class by class.

    Keys sort by the float w*log X + c*log Y; neighbours within 1e-12 *
    (1 + top * sum(logs)), about 1000 times its rounding error, are settled
    by the exact integers X**w * Y**c * (xd*yd)**top, so no float alone
    decides an order.  X = xn/xd = q/(1-p) and Y = yn/yd = (1-q)(1-p)/(pq).
    """
    (pn, pd), (qn, qd) = params.p.as_integer_ratio(), params.q.as_integer_ratio()
    xn, xd, yn, yd = qn * pd, qd * (pd - pn), (qd - qn) * (pd - pn), pn * qn
    logs = [math.log(k) for k in (xn, xd, yn, yd)]
    top = int(weights[-1])
    w = np.repeat(weights, weights + 1)
    c = np.concatenate([np.arange(k + 1) for k in weights.tolist()])
    level = w * (logs[0] - logs[1]) + c * (logs[2] - logs[3])
    order = np.argsort(level)
    step = np.concatenate(([True], np.diff(level[order]) > 1e-12 * (1 + top * sum(logs))))
    bounds = np.flatnonzero(np.append(step, True))
    starts, sizes = bounds[:-1], np.diff(bounds)
    for s, k in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
        run = order[s:s + k]
        exact = [xn ** i * xd ** (top - i) * yn ** j * yd ** (top - j)
                 for i, j in zip(w[run].tolist(), c[run].tolist())]
        by = sorted(range(k), key=exact.__getitem__)
        run[:] = run[by]
        step[s + 1:s + k] = [exact[i] != exact[j] for i, j in zip(by, by[1:])]
    return (np.cumsum(step, dtype=np.int32) - 1)[np.argsort(order)]


class _RankKernel:
    """Exact maximum-likelihood decoding of blocks of received words.

    With c = wt(x & y) and v = wt(y), Pr(y | x) = p**v (1-p)**(n-v) *
    X**wt(x) * Y**c for X = q/(1-p), Y = (1-q)(1-p)/(pq): for a fixed y the
    argmax and its exact ties depend only on the key (wt(x), c), at
    offset[class] + c, ranked once by _rank_keys.  c is one float32 product
    of 0/1 bit matrices, exact in any summation order for n < 2^24.
    """

    def __init__(self, code: Code, params: ChannelParams):
        n = code.n
        if n >= MAX_LENGTH:
            raise CapExceeded(f"decoding needs n < {MAX_LENGTH}, got {n}")
        self.bits = bit_matrix(code.words, n)
        self.columns = self.bits.T.astype(np.float32)
        self.weights, self.cls = np.unique(self.bits.sum(axis=1, dtype=np.int64),
                                           return_inverse=True)
        keys = int(((self.weights + 1) * (n - self.weights + 1)).sum())
        if keys > MAX_RANK_KEYS:
            raise CapExceeded(f"decoding n={n} over {len(self.weights)} weights needs "
                              f"{keys} rank keys; cap is {MAX_RANK_KEYS}")
        self.base = np.concatenate(([0], np.cumsum(self.weights + 1)))[self.cls]
        self.rank_of = _rank_keys(self.weights, params)
        self.rows = max(1, _BLOCK_CELLS // len(code))

    def decide(self, received: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Winner's c, winning codeword and exact-tie flag per 0/1 received row."""
        common = (received.astype(np.float32) @ self.columns).astype(np.int64)
        rank = self.rank_of[self.base + common]
        win = rank.argmax(axis=1)
        at = np.arange(len(win)), win
        tie = np.count_nonzero(rank == rank[at][:, None], axis=1) > 1
        return common[at], win, tie


def mld_decode(code: Code, y: Word, params: ChannelParams) -> DecodeResult:
    """Decode y to the unique likelihood maximizer; any exact tie fails."""
    if code.n != y.n:
        raise ValueError(f"length mismatch: code n={code.n}, word n={y.n}")
    _, win, tie = _RankKernel(code, params).decide(bit_matrix([y.bits], code.n))
    return FAILURE if tie[0] else DecodeResult(code.word(int(win[0])))


def exact_error_probability(code: Code, params: ChannelParams,
                            cap: int = DEFAULT_EXHAUSTIVE_CAP) -> Fraction:
    """Average decoder error probability by exhaustive received-word sweep.

    Counts, over all 2^n received words, how often each (class, c, wt(y))
    cell wins without a tie, then sums count * score(w, w - c, wt(y) - c)
    exactly: the mass decoded back to its transmitted word.  Failures (exact
    ties) count as errors for every transmitted word.  Guarded by the cap.
    """
    if code.n > cap:
        raise CapExceeded(
            f"exhaustive sweep needs 2**{code.n} received words; cap is n <= {cap}")
    n = code.n
    kernel = _RankKernel(code, params)
    rows = min(1 << n, 1 << (kernel.rows.bit_length() - 1))
    counts = np.zeros((len(kernel.weights), n + 1, n + 1), dtype=np.int64)
    for start in range(0, 1 << n, rows):
        counters = np.arange(start, start + rows, dtype="<u8").view(np.uint8).reshape(rows, 8)
        received = np.unpackbits(counters, 1, n, "little")
        common, win, tie = kernel.decide(received)
        cell = np.ravel_multi_index((kernel.cls[win], common, received.sum(1)), counts.shape)
        counts += np.bincount(cell[~tie], minlength=counts.size).reshape(counts.shape)
    table = _score_table(n, params)
    cls, common, weight = np.nonzero(counts)
    success = sum(k * table.score(w, w - c, v - c) for k, w, c, v in zip(
        counts[cls, common, weight].tolist(), kernel.weights[cls].tolist(),
        common.tolist(), weight.tolist()))
    return 1 - Fraction(success, len(code) * table.denominator)


def monte_carlo_error_probability(code: Code, params: ChannelParams,
                                  trials: int, seed: int) -> tuple[float, float]:
    """Estimate the decoder error rate by simulation.

    Returns (estimate, standard_error) with the binomial standard error
    sqrt(e(1-e)/trials).

    Reproducibility contract: the generator is numpy's PCG64 via
    ``numpy.random.default_rng(seed)``.  Transmitted codeword indices for
    all trials are drawn first with a single ``integers`` call; channel
    flips then take n uniform doubles per trial from the same stream, drawn in
    batches of at most MC_CHUNK trials, compared with q (on 1s) or p (on 0s).
    A trial errs when the exact decoder (as mld_decode) ties or picks
    another codeword.  Any length n is accepted.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    kernel = _RankKernel(code, params)
    ones = kernel.bits.astype(bool)
    tx = rng.integers(0, len(code), size=trials)
    errors = 0
    rows = min(kernel.rows, MC_CHUNK)
    for start in range(0, trials, rows):
        idx = tx[start:start + rows]
        u = rng.random((len(idx), code.n))
        # u < q on ones, u < p on zeros: with p <= q, (u < q & one) | (u < p)
        flips = u < params.fq
        flips &= ones[idx]
        flips |= u < params.fp
        _, win, tie = kernel.decide(kernel.bits[idx] ^ flips)
        errors += int(np.count_nonzero(tie | (win != idx)))
    estimate = errors / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr
