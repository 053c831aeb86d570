"""Asymmetric-channel model, exact-likelihood decoding, and error probability.

Crossover probabilities are exact rationals parsed from decimal strings;
the supported regime is 0 < p <= q < 1/2, where p is the 0->1 and q the
1->0 flip probability.  Every decoder here ranks the pair kernel's blocks by
the same integer likelihood keys, from _channel_keys and _keys; the README's
"One exact decoding kernel" paragraph derives them.
"""

from __future__ import annotations

import decimal
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._bitops import BLOCK_CELLS, AndCounts, bit_matrix
from .core import CapExceeded, Code, ParseError, Word, _Frozen, dir_distances

DEFAULT_EXHAUSTIVE_CAP = 24

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


def _score_table(n: int, params: ChannelParams) -> tuple:
    """(score, denominator (dp*dq)**n): score(w, a, b) / denominator is the probability of
    receiving a word at flip offsets (a 1->0, b 0->1) from a sent word of weight w, so
    integer score comparison is exact likelihood comparison."""
    (pn, pd), (qn, qd) = params.p.as_integer_ratio(), params.q.as_integer_ratio()
    q_flip, q_keep, p_flip, p_keep, pd_pow, qd_pow = (
        [base ** i for i in range(n + 1)] for base in (qn, qd - qn, pn, pd - pn, pd, qd))

    def score(w: int, a: int, b: int) -> int:
        return (q_flip[a] * q_keep[w - a] * p_flip[b] * p_keep[n - w - b]
                * pd_pow[w] * qd_pow[n - w])

    return score, (pd * qd) ** n


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


def _channel_keys(pairs: AndCounts, u: int, v: int) -> tuple[np.integer, np.ndarray]:
    """A channel's slope u + v and each codeword's offset w*v, for the keys c(u + v) - w*v
    of (w, c) = (wt(x), wt(x & y)) and (u, v) = params.bracket(n), which rank as the
    likelihoods do (README, Library layout): int32 when 4n(u + v) < 2**31, else int64."""
    width = np.int32 if 4 * pairs.bits.shape[1] * (u + v) < 1 << 31 else np.int64
    return width(u + v), pairs.weights.astype(width) * width(v)


def _keys(common: np.ndarray, channel: tuple[np.integer, np.ndarray]) -> np.ndarray:
    """The (M, rows) keys of a block's codeword-major c = wt(x & y)."""
    slope, offset = channel
    key = np.multiply(common, slope, dtype=slope.dtype)
    key -= offset[:, None]
    return key


def _decide(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's top key, and whether the top is held at least twice, an exact tie."""
    top = key.max(axis=0)
    return top, (key == top).sum(axis=0, dtype=np.int32) > 1


def mld_decode(code: Code, y: Word, params: ChannelParams) -> DecodeResult:
    """Decode y to the unique likelihood maximizer; any exact tie fails."""
    if code.n != y.n:
        raise ValueError(f"length mismatch: code n={code.n}, word n={y.n}")
    pairs = AndCounts.of_code(code)
    key = _keys(pairs.word_major(bit_matrix([y.bits], code.n)),
                _channel_keys(pairs, *params.bracket(code.n)))
    _, tie = _decide(key)
    return FAILURE if tie[0] else DecodeResult(code.word(int(key[:, 0].argmax())))


def exact_error_probability(code: Code, params: ChannelParams,
                            cap: int = DEFAULT_EXHAUSTIVE_CAP) -> Fraction:
    """The one-channel call of exact_error_probabilities."""
    return exact_error_probabilities(code, [params], cap)[0]


def exact_error_probabilities(code: Code, channels: list[ChannelParams],
                              cap: int = DEFAULT_EXHAUSTIVE_CAP) -> list[Fraction]:
    """Average decoder error probability at each channel, by one sweep of the 2^n
    received words per channel: untied winners are counted by (index among the channel's
    sorted distinct keys, wt(y)) and scored exactly from each key's first (w, c) (README,
    Library layout).  Exact ties count as errors.  Guarded by the cap."""
    n = code.n
    if n > cap:
        raise CapExceeded(f"exhaustive sweep needs 2**{n} received words; cap is n <= {cap}")
    pairs = AndCounts.of_code(code)
    weight, common = np.array([(w, c) for w in np.flatnonzero(code.weight_distribution())
                               for c in range(w + 1)], dtype=np.int64).T
    b = min(n, pairs.rows.bit_length() - 1)
    low = np.unpackbits(np.arange(1 << b, dtype="<u8").view(np.uint8).reshape(-1, 8),
                        1, n, "little")
    low_common, low_weight = pairs.word_major(low), low.sum(1, dtype=np.int64)
    high = pairs.bits[:, b:].T.astype(np.int32)
    out = []
    for params in channels:
        u, v = params.bracket(n)
        distinct, first = np.unique(common * (u + v) - weight * v, return_index=True)
        slope, _ = channel = _channel_keys(pairs, u, v)
        low_key, tally = _keys(low_common, channel), np.zeros(len(distinct) * (n + 1), np.int64)
        # from block k - 1 to k, hi gains bit b + j, j the lowest one of k, and loses those below
        jump, shift = (2 * high - high.cumsum(0)) * slope, np.zeros(len(code), slope.dtype)
        for k in range(1 << n - b):
            shift += jump[(k & -k).bit_length() - 1] if k else 0
            top, tie = _decide(low_key + shift[:, None])
            cell = np.searchsorted(distinct, top) * (n + 1) + low_weight + k.bit_count()
            tally += np.bincount(cell[~tie], minlength=tally.size)
        score, denominator = _score_table(n, params)
        cell = np.flatnonzero(tally)
        rep, received = first[cell // (n + 1)], cell % (n + 1)
        success = sum(t * score(w, w - c, y - c) for t, w, c, y in zip(
            tally[cell].tolist(), weight[rep].tolist(), common[rep].tolist(), received.tolist()))
        out.append(1 - Fraction(success, len(code) * denominator))
    return out


def monte_carlo_error_probability(code: Code, params: ChannelParams,
                                  trials: int, seed: int) -> tuple[float, float]:
    """The one-channel call of monte_carlo_error_probabilities: (estimate, standard
    error), the binomial standard error sqrt(e(1-e)/trials)."""
    estimate = monte_carlo_error_probabilities(code, [params], trials, seed)[0]
    return estimate, math.sqrt(estimate * (1.0 - estimate) / trials)


def monte_carlo_error_probabilities(code: Code, channels: list[ChannelParams],
                                    trials: int, seed: int) -> list[float]:
    """Estimate the decoder error rate at each channel by simulation.

    Reproducibility contract: the generator is numpy's PCG64 via
    ``numpy.random.default_rng(seed)``.  Transmitted codeword indices for
    all trials are drawn first with a single ``integers`` call; channel
    flips then take n uniform doubles per trial from the same stream, drawn
    per decode block of trials, compared with q (on 1s) or p (on 0s); the
    stream, and so every estimate, does not depend on the block size, and
    every channel reads the same stream, so each estimate is its one-channel call's.
    A trial errs when the exact decoder (as mld_decode) ties or picks
    another codeword.  Any length n is accepted.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    pairs = AndCounts.of_code(code)
    tx = rng.integers(0, len(code), size=trials)
    errors = [0] * len(channels)
    rows = max(1, BLOCK_CELLS // max(len(code), code.n))
    terms = [(float(params.p), float(params.q), params.bracket(code.n)) for params in channels]
    for start in range(0, trials, rows):
        idx = tx[start:start + rows]
        sent, u, trial = pairs.bits[idx], rng.random((len(idx), code.n)), np.arange(len(idx))
        for i, (p, q, bracket) in enumerate(terms):
            if not i or p != terms[i - 1][0]:  # one u < p per block and run of equal p
                below_p = u < p
            # u < q on ones, u < p on zeros: with p <= q, (u < q & one) | (u < p)
            flips = u < q
            flips &= sent.view(bool)
            flips |= below_p
            key = _keys(pairs.word_major(sent ^ flips), _channel_keys(pairs, *bracket))
            # errs iff another key is at least the sent one's: hide it under every key
            own, key[idx, trial] = key[idx, trial], np.iinfo(key.dtype).min
            errors[i] += int(np.count_nonzero(key.max(axis=0) >= own))
    return [e / trials for e in errors]
