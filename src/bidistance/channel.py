"""Asymmetric-channel model, exact-likelihood decoding, and error probability.

Crossover probabilities are exact rationals parsed from decimal strings;
the supported regime is 0 < p <= q < 1/2, where p is the 0->1 and q the
1->0 flip probability.  Every decoder here is one exact block kernel of
integer likelihood keys, _RankKernel; the README's "One exact decoding
kernel" paragraph derives them.
"""

from __future__ import annotations

import decimal
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._bitops import AndCounts, bit_matrix, packed_rows
from .core import CapExceeded, Code, ParseError, Word, _Frozen, dir_distances

DEFAULT_EXHAUSTIVE_CAP = 24

#: int64 (class, c, wt(y)) counts held at once by exact_error_probabilities, 8 MiB
EXACT_CELLS = 1 << 20

_DECIMAL_RE = re.compile(r"^[0-9]+(\.[0-9]+)?$")


class RegimeError(ValueError):
    """Channel parameters outside the supported regime 0 < p <= q < 1/2."""


def parse_probability(text: str) -> Fraction:
    """Exact rational from a plain decimal literal.

    Scientific notation, signs and non-ASCII digits or spaces are rejected:
    the written digits alone define the value used in all downstream exact
    arithmetic.
    """
    text = text.strip(" \t\n\r\v\f")
    if not _DECIMAL_RE.match(text):
        raise ParseError(f"not a plain decimal probability: {text!r}")
    return Fraction(text)


@dataclass(frozen=True)
class ChannelParams(_Frozen):
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

    def _log_terms(self) -> tuple:
        """(X, log X, its error) for X = A = p/(1-q) <= B = q/(1-p) < 1, then gamma, kept
        as ``_logs``: log X from X's integers, or near 1, where their difference cancels,
        log1p of the exact X - 1; the error 2**-42 times their logs, far above either
        rounding; gamma 1 exactly iff p = q, else log A / log B."""
        out = []
        for x in (self.p / (1 - self.q), self.q / (1 - self.p)):
            top, bottom = math.log(x.numerator), math.log(x.denominator)
            log_x = math.log1p(x - 1) if x > Fraction(15, 16) else top - bottom
            out.append((x, log_x, 2.0 ** -42 * (abs(top) + abs(bottom))))
        return (*out, 1.0 if self.p == self.q else out[0][1] / out[1][1])

    @property
    def gamma(self) -> float:
        """The exponent g solving (q/(1-p))**g = p/(1-q); 1 exactly iff p = q."""
        return self._keep("_logs", self._log_terms)[2]

    def _order(self, a: int, b: int) -> int:
        """Sign of gamma - a/b, that is of B**a - A**b: floats, then 50-digit
        decimals, outside margins far above their rounding, else integers."""
        (big_a, log_a, err_a), (big_b, log_b, err_b), _ = self._keep("_logs", self._log_terms)
        x, margin = a * log_b - b * log_a, a * err_b + b * err_a
        if abs(x) > margin:
            return 1 if x > 0 else -1
        with decimal.localcontext(decimal.Context(prec=50)) as ctx:
            x = (a * (ctx.ln(big_b.numerator) - ctx.ln(big_b.denominator))
                 - b * (ctx.ln(big_a.numerator) - ctx.ln(big_a.denominator)))
            if abs(x) > decimal.Decimal(margin).scaleb(-30):
                return 1 if x > 0 else -1
        left = big_b.numerator ** a * big_a.denominator ** b
        right = big_a.numerator ** b * big_b.denominator ** a
        return (left > right) - (left < right)

    def bracket(self, n: int) -> tuple[int, int]:
        """Integers (u, v) with u/v on the same side of gamma as every fraction
        of denominator at most 2n + 2, and equal to gamma if gamma is one, by a
        Stern-Brocot descent in runs, kept per n (README, Library layout); raises
        CapExceeded where callers' keys, below 4n(u + v), would pass int64."""
        return self._keep(f"_bracket{n}", lambda: self._descend(n))

    def _descend(self, n: int) -> tuple[int, int]:
        """``bracket(n)`` by the descent, which ``bracket`` runs once per n."""
        limit = 2 * n + 2
        (a, b), (c, d) = (1, 1), (1, 0)
        while b + d <= limit:
            k = _last(lambda k: self._order(a + k * c, b + k * d) >= 0,
                      (limit - b) // d if d else math.inf)
            a, b = a + k * c, b + k * d
            k = _last(lambda k: self._order(c + k * a, d + k * b) < 0, (limit - d) // b)
            c, d = c + k * a, d + k * b
        u, v = (a, b) if self._order(a, b) == 0 else (a + c, b + d)
        if 4 * n * (u + v) >= 1 << 63:
            raise CapExceeded(f"gamma ~ {u}/{v} at n={n} overflows int64 keys")
        return u, v


def _last(keep, most: float) -> int:
    """Largest k in [0, most] with keep(k), keep true up to some k: gallop, bisect."""
    lo, hi = 0, 1
    while hi <= most and keep(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, most + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if keep(mid) else (lo, mid)
    return lo


class _ScoreTable:
    """Integer likelihood scores over the common denominator (dp*dq)**n.

    score(w, a, b) / denominator equals the probability of receiving a
    word at flip offsets (a 1->0, b 0->1) from a transmitted word of
    weight w, so integer score comparison is exact likelihood comparison.
    """

    def __init__(self, n: int, params: ChannelParams):
        self.n = n
        (pn, pd), (qn, qd) = params.p.as_integer_ratio(), params.q.as_integer_ratio()
        self._powers = [[base ** i for i in range(n + 1)]
                        for base in (qn, qd - qn, pn, pd - pn, pd, qd)]
        self.denominator = (pd * qd) ** n

    def score(self, w: int, a: int, b: int) -> int:
        q_flip, q_keep, p_flip, p_keep, pd_pow, qd_pow = self._powers
        return (q_flip[a] * q_keep[w - a] * p_flip[b] * p_keep[self.n - w - b]
                * pd_pow[w] * qd_pow[self.n - w])


_score_table = _ScoreTable


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
    if val == 0.0 or (val > 0.0) != (lx > la):
        return math.ulp(0.0) if lx > la else -math.ulp(0.0)
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
    """Exact maximum-likelihood decoding of blocks of received words by the integer keys
    c(u + v) - w*v of (w, c) = (wt(x), wt(x & y)), (u, v) = params.bracket(n), which rank
    as the likelihoods do (README, Library layout).  Per channel: u + v and each
    codeword's w*v, in int32 when 4n(u + v) < 2**31 and in int64 otherwise."""

    def __init__(self, code: Code, *channels: ChannelParams):
        n = code.n
        self.common = AndCounts.of_code(code)
        self.weights = np.flatnonzero(code.weight_distribution())
        self.channels = []
        for params in channels:
            u, v = params.bracket(n)
            width = np.int32 if 4 * n * (u + v) < 1 << 31 else np.int64
            self.channels.append((width(u + v), self.common.weights.astype(width) * width(v)))

    def keys(self, common: np.ndarray, channel: int = 0, high=0) -> np.ndarray:
        """The (M, rows) keys of a block's codeword-major c = wt(x & y), plus the
        per-codeword count ``high`` of ones the block's words share, if any."""
        slope, offset = self.channels[channel]
        key = np.multiply(common, slope, dtype=slope.dtype)
        key += (high * slope - offset).astype(slope.dtype)[:, None]
        return key

    def decide(self, common: np.ndarray, channel: int = 0,
               high=0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The keys, as keys(); each column's top key; and whether the top is held
        at least twice, an exact tie."""
        key = self.keys(common, channel, high)
        top = key.max(axis=0)
        return key, top, (key == top).sum(axis=0, dtype=np.int32) > 1


def mld_decode(code: Code, y: Word, params: ChannelParams) -> DecodeResult:
    """Decode y to the unique likelihood maximizer; any exact tie fails."""
    if code.n != y.n:
        raise ValueError(f"length mismatch: code n={code.n}, word n={y.n}")
    kernel = _RankKernel(code, params)
    key, _, tie = kernel.decide(kernel.common.word_major(bit_matrix([y.bits], code.n)))
    return FAILURE if tie[0] else DecodeResult(code.word(int(key[:, 0].argmax())))


def exact_error_probability(code: Code, params: ChannelParams,
                            cap: int = DEFAULT_EXHAUSTIVE_CAP) -> Fraction:
    """The one-channel call of exact_error_probabilities."""
    return exact_error_probabilities(code, [params], cap)[0]


def exact_error_probabilities(code: Code, channels: list[ChannelParams],
                              cap: int = DEFAULT_EXHAUSTIVE_CAP) -> list[Fraction]:
    """Average decoder error probability at each channel, by one sweep of the 2^n
    received words per group of channels whose counts fit in EXACT_CELLS, each untied
    top key scored exactly through the channel's sorted distinct keys (README, Library
    layout).  Exact ties count as errors.  Guarded by the cap."""
    n = code.n
    if n > cap:
        raise CapExceeded(f"exhaustive sweep needs 2**{n} received words; cap is n <= {cap}")
    if not channels:
        return []
    kernel = _RankKernel(code, *channels)
    weights = kernel.weights.tolist()
    cells = np.concatenate([k * (n + 1) + np.arange(w + 1) for k, w in enumerate(weights)])
    ranked = []
    for u, v in (params.bracket(n) for params in channels):
        cell_key = np.concatenate([np.arange(w + 1) * (u + v) - w * v for w in weights])
        distinct, first = np.unique(cell_key, return_index=True)
        ranked.append((distinct, cells[first]))
    shape = (len(weights), n + 1, n + 1)
    group = max(1, EXACT_CELLS // math.prod(shape))
    rows = min(1 << n, 1 << (kernel.common.rows.bit_length() - 1))
    low = np.unpackbits(np.arange(rows, dtype="<u8").view(np.uint8).reshape(rows, 8),
                        1, n, "little")
    low_common, low_weight = kernel.common.word_major(low), low.sum(1, dtype=np.int64)
    words = code.packed()
    counts = np.empty((min(group, len(channels)), *shape), dtype=np.int64)
    out = []
    for first in range(0, len(channels), group):
        part = range(first, min(first + group, len(channels)))
        counts[:] = 0
        for start in range(0, 1 << n, rows):
            high = start and np.bitwise_count(words & packed_rows([start], n)).sum(1, dtype=int)
            weight = low_weight + start.bit_count()
            for channel, tally in zip(part, counts):
                _, top, tie = kernel.decide(low_common, channel, high)
                distinct, reps = ranked[channel]
                cell = reps[np.searchsorted(distinct, top)] * (n + 1) + weight
                tally += np.bincount(cell[~tie], minlength=tally.size).reshape(shape)
        for channel, tally in zip(part, counts):
            table = _score_table(n, channels[channel])
            cls, common, weight = np.nonzero(tally)
            success = sum(k * table.score(w, w - c, v - c) for k, w, c, v in zip(
                tally[cls, common, weight].tolist(), kernel.weights[cls].tolist(),
                common.tolist(), weight.tolist()))
            out.append(1 - Fraction(success, len(code) * table.denominator))
    return out


def monte_carlo_error_probability(code: Code, params: ChannelParams,
                                  trials: int, seed: int) -> tuple[float, float]:
    """Estimate the decoder error rate by simulation.

    Returns (estimate, standard_error) with the binomial standard error
    sqrt(e(1-e)/trials).

    Reproducibility contract: the generator is numpy's PCG64 via
    ``numpy.random.default_rng(seed)``.  Transmitted codeword indices for
    all trials are drawn first with a single ``integers`` call; channel
    flips then take n uniform doubles per trial from the same stream, drawn
    per decode block of trials, compared with q (on 1s) or p (on 0s); the
    stream, and so every estimate, does not depend on the block size.
    A trial errs when the exact decoder (as mld_decode) ties or picks
    another codeword.  Any length n is accepted.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    kernel = _RankKernel(code, params)
    tx = rng.integers(0, len(code), size=trials)
    errors = 0
    fp, fq = float(params.p), float(params.q)
    rows = kernel.common.rows
    for start in range(0, trials, rows):
        idx = tx[start:start + rows]
        sent = kernel.common.bits[idx]
        u = rng.random((len(idx), code.n))
        # u < q on ones, u < p on zeros: with p <= q, (u < q & one) | (u < p)
        flips = u < fq
        flips &= sent.view(bool)
        flips |= u < fp
        key, top, tie = kernel.decide(kernel.common.word_major(sent ^ flips))
        errors += int(np.count_nonzero(tie | (key[idx, np.arange(len(idx))] < top)))
    estimate = errors / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr
