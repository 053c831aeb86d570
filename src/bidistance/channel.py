"""Asymmetric-channel model, exact-likelihood decoding, and error probability.

Crossover probabilities are exact rationals parsed from decimal strings,
so likelihood comparisons (and therefore decoder ties) are decided
exactly rather than by float rounding.  The supported regime is
0 < p <= q < 1/2, where p is the 0->1 and q the 1->0 flip probability.
Every decoder here is one exact block kernel, _RankKernel.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from ._bitops import bit_matrix
from .core import CapExceeded, Code, ParseError, Word, dir_distances

DEFAULT_EXHAUSTIVE_CAP = 24

#: Monte Carlo draws happen in fixed batches of this many trials, which is
#: part of the reproducibility contract (see monte_carlo_error_probability).
MC_CHUNK = 1 << 15

#: (received word, codeword) cells per kernel block, the largest rank table,
#: one entry per (wt, a, b) triple over the code's weights, and the length
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


class _RankKernel:
    """Exact maximum-likelihood decoding of blocks of received words.

    Pr(y | x) depends only on (wt(x), a, b), the weight and the 1->0 and
    0->1 flips, read from c = wt(x & y) as a = wt(x) - c, b = wt(y) - c,
    and keyed offset[wt(x)] + a*(n - wt(x) + 1) + b.  c comes from one
    float32 product of 0/1 bit matrices: every partial sum is an integer
    at most n < 2^24, so it is exact in any summation order.  Keys are
    scored on first sight; rank_of holds each seen key's dense rank among
    the distinct scores seen (equal scores share one, unseen keys are -1).
    """

    def __init__(self, code: Code, params: ChannelParams):
        n = code.n
        if n >= MAX_LENGTH:
            raise CapExceeded(f"decoding needs n < {MAX_LENGTH}, got {n}")
        self.bits = bit_matrix(code.words, n)
        self.columns = self.bits.T.astype(np.float32)
        wts = self.bits.sum(axis=1, dtype=np.int64)
        self.weights, cls = np.unique(wts, return_inverse=True)
        self.span = n - self.weights + 1
        self.offset = np.concatenate(([0], np.cumsum((self.weights + 1) * self.span)))
        if self.offset[-1] > MAX_RANK_KEYS:
            raise CapExceeded(f"decoding n={n} over {len(self.weights)} weights needs "
                              f"{self.offset[-1]} rank keys; cap is {MAX_RANK_KEYS}")
        self.table = _score_table(n, params)
        self.base = self.offset[cls] + wts * self.span[cls]
        self.stride = self.span[cls] + 1
        self.rank_of = np.full(self.offset[-1], -1, dtype=np.int32)
        self.scores: dict[int, int] = {}
        self.distinct: list[int] = []
        self.rows = max(1, _BLOCK_CELLS // len(code))

    def decide(self, received: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Winning key, winning codeword and exact-tie flag per 0/1 received row."""
        common = (received.astype(np.float32) @ self.columns).astype(np.int64)
        keys = self.base + received.sum(axis=1, dtype=np.int64)[:, None] - common * self.stride
        rank = self.rank_of[keys]
        if rank.min() < 0:
            self._rank(np.unique(keys[rank < 0]))
            rank = self.rank_of[keys]
        win = rank.argmax(axis=1)[:, None]
        tie = np.count_nonzero(rank == np.take_along_axis(rank, win, axis=1), axis=1) > 1
        return np.take_along_axis(keys, win, axis=1)[:, 0], win[:, 0], tie

    def _rank(self, fresh: np.ndarray) -> None:
        """Score fresh keys and merge their scores into the sorted distinct
        list: each seen rank moves up by the number of new scores below it."""
        cls = np.searchsorted(self.offset, fresh, side="right") - 1
        a, b = np.divmod(fresh - self.offset[cls], self.span[cls])
        scores = list(map(self.table.score, self.weights[cls].tolist(), a.tolist(), b.tolist()))
        placed = [(bisect.bisect_left(self.distinct, s), s) for s in sorted(set(scores))]
        placed = [(i, s) for i, s in placed if self.distinct[i:i + 1] != [s]]
        seen = np.fromiter(self.scores, dtype=np.int64, count=len(self.scores))
        self.rank_of[seen] += np.searchsorted([i for i, _ in placed], self.rank_of[seen],
                                              side="right")
        for i, s in reversed(placed):
            self.distinct.insert(i, s)
        self.scores.update(zip(fresh.tolist(), scores))
        self.rank_of[fresh] = [bisect.bisect_left(self.distinct, s) for s in scores]


def mld_decode(code: Code, y: Word, params: ChannelParams) -> DecodeResult:
    """Decode y to the unique likelihood maximizer; any exact tie fails."""
    if code.n != y.n:
        raise ValueError(f"length mismatch: code n={code.n}, word n={y.n}")
    _, win, tie = _RankKernel(code, params).decide(bit_matrix([y.bits], code.n))
    return FAILURE if tie[0] else DecodeResult(code.word(int(win[0])))


def exact_error_probability(code: Code, params: ChannelParams,
                            cap: int = DEFAULT_EXHAUSTIVE_CAP) -> Fraction:
    """Average decoder error probability by exhaustive received-word sweep.

    Counts, over all 2^n received words, how often each (wt, a, b) key
    wins without a tie, then sums count * score exactly: the mass decoded
    back to its transmitted word.  Failures (exact ties) count as errors
    for every transmitted word.  Guarded by the length cap.
    """
    if code.n > cap:
        raise CapExceeded(
            f"exhaustive sweep needs 2**{code.n} received words; cap is n <= {cap}")
    kernel = _RankKernel(code, params)
    rows = min(1 << code.n, 1 << (kernel.rows.bit_length() - 1))
    counts = np.zeros(len(kernel.rank_of), dtype=np.int64)
    for start in range(0, 1 << code.n, rows):
        counters = np.arange(start, start + rows, dtype="<u8").view(np.uint8).reshape(rows, 8)
        keys, _, tie = kernel.decide(np.unpackbits(counters, 1, code.n, "little"))
        counts += np.bincount(keys[~tie], minlength=len(counts))
    success = sum(int(counts[k]) * kernel.scores[k] for k in np.flatnonzero(counts).tolist())
    return 1 - Fraction(success, len(code) * kernel.table.denominator)


def monte_carlo_error_probability(code: Code, params: ChannelParams,
                                  trials: int, seed: int) -> tuple[float, float]:
    """Estimate the decoder error rate by simulation.

    Returns (estimate, standard_error) with the binomial standard error
    sqrt(e(1-e)/trials).

    Reproducibility contract: the generator is numpy's PCG64 via
    ``numpy.random.default_rng(seed)``.  Transmitted codeword indices for
    all trials are drawn first with a single ``integers`` call; channel
    flips are then drawn in fixed batches of MC_CHUNK trials as uniform
    (batch, n) matrices compared per-bit against q (on 1s) or p (on 0s).
    A trial errs when the exact decoder (as mld_decode) ties or picks
    another codeword.  Any length n is accepted.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n = code.n
    rng = np.random.default_rng(seed)
    kernel = _RankKernel(code, params)
    flip_prob = np.where(kernel.bits.astype(bool), params.fq, params.fp)
    tx = rng.integers(0, len(code), size=trials)
    errors = 0
    for start in range(0, trials, MC_CHUNK):
        idx = tx[start:start + MC_CHUNK]
        flips = rng.random((len(idx), n)) < flip_prob[idx]
        received = kernel.bits[idx] ^ flips
        for s in range(0, len(idx), kernel.rows):
            _, win, tie = kernel.decide(received[s:s + kernel.rows])
            errors += int(np.count_nonzero(tie | (win != idx[s:s + kernel.rows])))
    estimate = errors / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr
