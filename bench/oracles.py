"""Reference computations for the benchmark's checks.

Nothing here imports the package under test.  Codes are read back from
the files the jobs use, pairs are counted by a plain double loop, and
every probability is an exact Fraction built from the closed forms of
the paper: the pairwise error probability sums two independent binomial
flip counts over the region where the rival word is at least as likely,
and the decoder error probability enumerates every received word.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

#: the paper's worked example: p = 0.1, q = 0.15 and two codes of length 6
EXAMPLE_P = Fraction(1, 10)
EXAMPLE_Q = Fraction(15, 100)
EXAMPLE_C1 = ("111000", "011100", "110000")
EXAMPLE_C2 = ("111000", "000111", "110000")
EXAMPLE_GAMMA = 1.1944
#: exact decoder error probability and AHB bound of C1 and C2, and the
#: value both Cotardo-Ravagnani bounds take on either code
EXAMPLE_PE = (0.2328, 0.101)
EXAMPLE_AHB = (0.2683, 0.1129)
EXAMPLE_CR = 0.5435


def word_mask(text: str) -> int:
    """Bitmask of a 0/1 string; character i is coordinate i."""
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"not a 0/1 word: {text!r}")
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


def word_text(n: int, mask: int) -> str:
    return format(mask, f"0{n}b")[::-1]


def read_code(path) -> tuple[int, list[int]]:
    """Length and words of a code file: one 0/1 word a line, '#' comments."""
    n = None
    words = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if n is None:
                n = len(line)
            elif len(line) != n:
                raise ValueError(f"{path}: word lengths differ")
            words.append(word_mask(line))
    if n is None:
        raise ValueError(f"{path}: no words")
    return n, words


def pair_counts(words: list[int]) -> dict[tuple[int, int], int]:
    """Frequency of (d10, d01) over all ordered pairs, diagonal included."""
    counts: dict[tuple[int, int], int] = {}
    for x in words:
        for y in words:
            key = ((x & ~y).bit_count(), (y & ~x).bit_count())
            counts[key] = counts.get(key, 0) + 1
    return counts


def gamma(p: Fraction, q: Fraction) -> float:
    return math.log(p / (1 - q)) / math.log(q / (1 - p))


class PairwiseError:
    """Exact pairwise error probabilities on one channel, memoised.

    With x sent and a rival x' at offsets (d10, d01), i of the d10
    positions where only x holds a 1 flip (probability q each) and j of
    the d01 positions where only x' holds a 1 flip (probability p each).
    The rival is at least as likely iff
    ((1-p)/q)**(t-d01) * ((1-q)/p)**(t-d10) >= 1 with t = i + j, a
    condition that only grows with t; ties count as errors.  The sums run
    over integer numerators of the common denominator qd**d10 * pd**d01.
    """

    def __init__(self, p: Fraction, q: Fraction):
        self.p, self.q = p, q
        pn, pd, qn, qd = p.numerator, p.denominator, q.numerator, q.denominator
        self._digits = (pn, pd - pn, pd, qn, qd - qn, qd)
        # (1-p)/q and (1-q)/p as numerator, denominator pairs
        self._keep = ((pd - pn) * qd, pd * qn)
        self._other = ((qd - qn) * pd, qd * pn)
        self._log_keep = math.log(self._keep[0]) - math.log(self._keep[1])
        self._log_other = math.log(self._other[0]) - math.log(self._other[1])
        self._memo: dict[tuple[int, int], Fraction] = {}

    def _rival_wins(self, t: int, d10: int, d01: int) -> bool:
        num = den = 1
        for (top, bottom), e in ((self._keep, t - d01), (self._other, t - d10)):
            if e >= 0:
                num *= top ** e
                den *= bottom ** e
            else:
                num *= bottom ** -e
                den *= top ** -e
        return num >= den

    def threshold(self, d10: int, d01: int) -> int:
        """Least total flip count at which the rival is at least as likely."""
        u, v = self._log_keep, self._log_other
        t = max(0, min(d10 + d01, math.ceil((v * d10 + u * d01) / (u + v))))
        # the float estimate only picks where to start; exact tests decide
        while t > 0 and self._rival_wins(t - 1, d10, d01):
            t -= 1
        while not self._rival_wins(t, d10, d01):
            t += 1
        return t

    def __call__(self, d10: int, d01: int) -> Fraction:
        key = (d10, d01)
        if key not in self._memo:
            self._memo[key] = self._compute(d10, d01)
        return self._memo[key]

    def _compute(self, d10: int, d01: int) -> Fraction:
        pn, pk, pd, qn, qk, qd = self._digits
        t = self.threshold(d10, d01)
        flips_q = [comb(d10, i) * qn ** i * qk ** (d10 - i) for i in range(d10 + 1)]
        tail = [0] * (d01 + 2)
        for j in range(d01, -1, -1):
            tail[j] = tail[j + 1] + comb(d01, j) * pn ** j * pk ** (d01 - j)
        num = sum(flips_q[i] * tail[max(0, t - i)] for i in range(d10 + 1) if t - i <= d01)
        return Fraction(num, qd ** d10 * pd ** d01)


def ahb_bound(counts: dict[tuple[int, int], int], size: int,
              pep: PairwiseError) -> Fraction:
    """Union bound over the off-diagonal pair frequencies, unclamped."""
    total = sum((c * pep(a, b) for (a, b), c in counts.items() if (a, b) != (0, 0)),
                Fraction(0))
    return total / size


def mld_error_probability(n: int, words: list[int], p: Fraction, q: Fraction) -> Fraction:
    """Average error probability of exact maximum-likelihood decoding.

    Every one of the 2**n received words y is decoded; any exact tie for
    the highest likelihood is a failure.  For a codeword x of weight w the
    likelihood of y (weight k) is q**a (1-q)**(w-a) p**b (1-p)**(n-w-b)
    with a = wt(x & ~y) and b = k - w + a, which falls as a grows, so the
    best word of each weight class is the one with the fewest 1->0 flips.
    """
    classes: dict[int, list[int]] = {}
    for x in words:
        classes.setdefault(x.bit_count(), []).append(x)
    likelihoods: dict[tuple[int, int, int], Fraction] = {}

    def likelihood(w: int, a: int, k: int) -> Fraction:
        key = (w, a, k)
        value = likelihoods.get(key)
        if value is None:
            b = k - w + a
            value = q ** a * (1 - q) ** (w - a) * p ** b * (1 - p) ** (n - w - b)
            likelihoods[key] = value
        return value

    decoded: dict[tuple[int, int, int], int] = {}
    for y in range(1 << n):
        k = y.bit_count()
        best = None
        best_key = None
        tied = False
        for w, xs in classes.items():
            amin, count = n + 1, 0
            for x in xs:
                a = (x & ~y).bit_count()
                if a < amin:
                    amin, count = a, 1
                elif a == amin:
                    count += 1
            value = likelihood(w, amin, k)
            if best is None or value > best:
                best, best_key, tied = value, (w, amin, k), count > 1
            elif value == best:
                tied = True
        if not tied:
            decoded[best_key] = decoded.get(best_key, 0) + 1
    success = sum((c * likelihoods[key] for key, c in decoded.items()), Fraction(0))
    return 1 - success / len(words)
