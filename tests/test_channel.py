import math
import random
import tracemalloc
from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidistance import _bitops, channel
from bidistance.bounds import region_threshold
from bidistance._bitops import MAX_LENGTH, AndCounts, pack_bits, row_ints
from bidistance.channel import (ChannelParams, RegimeError,
                                _RankKernel, _score_table,
                                exact_error_probabilities, exact_error_probability,
                                likelihood, llr, mld_decode,
                                monte_carlo_error_probability, parse_probability)
from bidistance.core import CapExceeded, Code, ParseError, Word, dir_distances
from helpers import (EDGE_LENGTHS, brute_error_probability, brute_mld,
                     edge_code, kernel_ranks, padded_code, random_code)

_channel = ChannelParams.from_decimals

#: derandomized, with no example database, so every run draws the same cases
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def decoding_cases(draw):
    """A code with n <= 8 and a channel in the regime; p = q half the time."""
    n = draw(st.integers(1, 8))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                          max_size=min(8, 1 << n), unique=True))
    p = draw(st.integers(1, 49))
    q = p if draw(st.booleans()) else draw(st.integers(p, 49))
    return Code(n, words), ChannelParams(Fraction(p, 100), Fraction(q, 100))


#: p = q, next to p = q, gamma = 3 exactly, and gamma about 10.8 at a tiny p
KEY_CHANNELS = [_channel("0.1", "0.1"), _channel("0.05", "0.050000000001"),
                _channel("0.025", "0.325"), _channel("0.0001", "0.45")]
KEY_IDS = ["p_eq_q", "near_p_eq_q", "gamma_3", "wide_gamma"]


@st.composite
def key_cases(draw):
    """A code with n <= 9 and M <= 12 at one of KEY_CHANNELS."""
    n = draw(st.integers(1, 9))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                          max_size=min(12, 1 << n), unique=True))
    return Code(n, words), draw(st.sampled_from(KEY_CHANNELS))


@st.composite
def block_cases(draw):
    """A code with 4 <= n <= 10 and 2 <= M <= 8, and a channel list holding
    KEY_CHANNELS with one of them repeated."""
    n = draw(st.integers(4, 10))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=2, max_size=8,
                          unique=True))
    return Code(n, words), KEY_CHANNELS + [draw(st.sampled_from(KEY_CHANNELS))]


class TestParseProbability:
    def test_exact_value(self):
        assert parse_probability("0.15") == Fraction(3, 20)
        assert parse_probability("0.1") == Fraction(1, 10)
        assert parse_probability(" 0.1 ") == Fraction(1, 10)

    @pytest.mark.parametrize("bad", ["1e-3", "-0.1", "+0.2", "0.1.2", "abc", ".5", "",
                                     "\u0660.\u0661", "\uff10.\uff11", "\u20030.1"])
    def test_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_probability(bad)


class TestChannelParams:
    def test_regime_enforced(self):
        with pytest.raises(RegimeError):
            ChannelParams.from_decimals("0.3", "0.2")
        with pytest.raises(RegimeError):
            ChannelParams.from_decimals("0.1", "0.5")
        with pytest.raises(RegimeError):
            ChannelParams.from_decimals("0.0", "0.1")
        ChannelParams.from_decimals("0.2", "0.2")  # p = q allowed

    def test_fractions_required(self):
        with pytest.raises(TypeError):
            ChannelParams(0.1, 0.15)

    def test_gamma_example(self, params_ex1):
        assert abs(params_ex1.gamma - 1.1944) <= 5e-5

    @pytest.mark.parametrize("p, q", [("0.49999999999999999998", "0.49999999999999999999"),
                                      ("0.4999999999", "0.49999999995")])
    def test_gamma_near_one_half(self, p, q):
        # A and B are within 1e-9 of 1, where the logs of their integers
        # cancel; gamma is 1 + 2e-20 (nearest float 1.0) and 1.0000000001
        params = ChannelParams.from_decimals(p, q)
        with localcontext(Context(prec=60)):
            dp, dq = Decimal(p), Decimal(q)
            expected = float((dp / (1 - dq)).ln() / (dq / (1 - dp)).ln())
        assert abs(params.gamma - expected) <= 2 * math.ulp(1.0)

    def test_gamma_equal_probabilities(self):
        assert ChannelParams.from_decimals("0.2", "0.2").gamma == 1.0

    def test_gamma_against_high_precision(self):
        getcontext().prec = 50
        params = ChannelParams.from_decimals("0.1", "0.11")
        expected = (Decimal("0.1") / Decimal("0.89")).ln() / \
            (Decimal("0.11") / Decimal("0.9")).ln()
        assert abs(params.gamma - float(expected)) < 1e-12

    def test_gamma_at_least_one(self):
        rng = random.Random(3)
        for _ in range(100):
            a = rng.randrange(1, 500)
            b = rng.randrange(a, 500)
            assert ChannelParams(Fraction(a, 1000), Fraction(b, 1000)).gamma >= 1.0


    @pytest.mark.parametrize("p, q", [("0.1", "0.15"), ("0.2", "0.2"), ("0.025", "0.325"),
                                      ("0.05", "0.050000000001"), ("0.0001", "0.45"),
                                      ("0.4999999999", "0.49999999995")])
    def test_bracket_sides_match_exact_powers(self, p, q):
        # u/v against every r/s with s <= 2n + 2 near gamma, each compared as
        # gamma is, by A**s vs B**r: at p = q and gamma = 3 the integers
        # decide ties, and at the last channel the float logs cannot order
        # the fractions (its float gamma reads 1.0), so the decimals do
        params = _channel(p, q)
        big_a, big_b = params.p / (1 - params.q), params.q / (1 - params.p)
        for n in (0, 1, 7, 20):
            g = Fraction(*params.bracket(n))
            for s in range(1, 2 * n + 3):
                for r in range(s, int(params.gamma * s) + 3 * s + 2):
                    f = Fraction(r, s)
                    exact = (big_b ** r > big_a ** s) - (big_b ** r < big_a ** s)
                    assert exact == (g > f) - (g < f)

    def test_bracket_descends_once_per_length(self, monkeypatch):
        orders = []
        order = ChannelParams._order
        monkeypatch.setattr(ChannelParams, "_order",
                            lambda self, a, b: orders.append((a, b)) or order(self, a, b))
        params = _channel("0.1", "0.15")
        first = params.bracket(40)
        descent = len(orders)
        assert descent and params.bracket(40) == first and len(orders) == descent
        assert _channel("0.1", "0.15").bracket(40) == first and len(orders) == 2 * descent
        params.bracket(41)
        assert len(orders) > 2 * descent

    def test_bracket_refuses_keys_past_int64(self):
        # keys stay below 4n(u + v): at (0.1, 0.2) that fits int64 at n = 2^28, not at 2^30
        params = _channel("0.1", "0.2")
        assert params.bracket(2 ** 28) == (854253228, 617888479)
        with pytest.raises(CapExceeded, match="overflows int64 keys"):
            params.bracket(2 ** 30)


class TestLikelihood:
    def test_no_flips(self, params_ex1):
        x = Word.from_string("1100")
        expected = (1 - params_ex1.p) ** 2 * (1 - params_ex1.q) ** 2
        assert likelihood(x, x, params_ex1) == expected

    def test_single_symbol(self, params_ex1):
        assert likelihood(Word(1, 0), Word(1, 1), params_ex1) == params_ex1.q

    def test_two_flips(self, params_ex1):
        got = likelihood(Word.from_string("01"), Word.from_string("10"), params_ex1)
        assert got == Fraction(3, 200)

    def test_sums_to_one_exactly(self, params_ex1):
        # over every received word, in integer-score space (n = 16)
        n = 16
        table = _score_table(n, params_ex1)
        x = Word(n, 0b1011001110001011)
        w = x.weight
        total = sum(table.score(w, (x.bits & ~y).bit_count(), (y & ~x.bits).bit_count())
                    for y in range(1 << n))
        assert total == table.denominator


class TestLlr:
    def test_identical_words(self, params_ex1):
        x = Word.from_string("101")
        assert llr(x, x, Word.from_string("001"), params_ex1) == 0.0

    def test_true_word_preferred(self, params_ex1):
        x = Word.from_string("1100")
        alt = Word.from_string("0011")
        assert llr(x, alt, x, params_ex1) > 0

    def test_threshold_equivalence(self):
        # sign(llr) <= 0 exactly when the total flip count reaches the ceiling
        rng = random.Random(17)
        for params in (ChannelParams.from_decimals("0.1", "0.15"),
                       ChannelParams.from_decimals("0.2", "0.2"),
                       ChannelParams.from_decimals("0.05", "0.050000000001"),
                       ChannelParams.from_decimals("0.025", "0.325")):
            for _ in range(12):
                n = rng.randrange(2, 11)
                x = Word(n, rng.getrandbits(n))
                alt = Word(n, rng.getrandbits(n))
                if x == alt:
                    continue
                d = dir_distances(x, alt)
                threshold = region_threshold(d.d10, d.d01, params)
                for y in range(1 << n):
                    word = Word(n, y)
                    k10 = (x.bits & ~alt.bits & ~y).bit_count()
                    k01 = (~x.bits & alt.bits & y).bit_count()
                    assert (llr(x, alt, word, params) <= 0) == (k10 + k01 >= threshold)


class TestMldDecode:
    def test_singleton_always_decodes(self, params_ex1):
        code = Code.from_strings(["1010"])
        for y in range(16):
            res = mld_decode(code, Word(4, y), params_ex1)
            assert not res.is_failure and res.word == Word.from_string("1010")

    def test_example_received_word(self, c1, params_ex1):
        res = mld_decode(c1, Word.from_string("111000"), params_ex1)
        assert res.word == Word.from_string("111000")

    def test_exact_tie_fails(self, params_ex1):
        code = Code.from_strings(["10", "01"])
        res = mld_decode(code, Word.from_string("11"), params_ex1)
        assert res.is_failure and res.word is None

    def test_maximizer_exhaustive(self, params_ex1):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randrange(2, 12)
            code = random_code(rng, n, rng.randrange(2, min(6, 1 << n) + 1))
            y = Word(n, rng.getrandbits(n))
            res = mld_decode(code, y, params_ex1)
            best = max(likelihood(y, x, params_ex1) for x in code)
            winners = [x for x in code if likelihood(y, x, params_ex1) == best]
            if len(winners) == 1:
                assert res.word == winners[0]
            else:
                assert res.is_failure

    def test_length_mismatch(self, c1, params_ex1):
        with pytest.raises(ValueError):
            mld_decode(c1, Word(5, 0), params_ex1)

    def test_matches_oracle_across_lanes(self):
        # lengths past one and two 64-bit lanes, near-codeword received words
        rng = random.Random(31)
        for params in (ChannelParams.from_decimals("0.2", "0.2"),
                       ChannelParams.from_decimals("0.05", "0.3")):
            for n in (63, 64, 65, 100, 128, 129, 150):
                code = Code(n, {rng.getrandbits(n) for _ in range(rng.randrange(1, 7))})
                for _ in range(6):
                    base = rng.choice(code.words)
                    noise = sum(1 << i for i in rng.sample(range(n), rng.randrange(0, n // 2)))
                    y = Word(n, base ^ noise)
                    res = mld_decode(code, y, params)
                    assert res.word == brute_mld(code, y, params)

    @PROPERTY
    @given(decoding_cases())
    def test_matches_oracle_on_every_word(self, case):
        code, params = case
        for bits in range(1 << code.n):
            y = Word(code.n, bits)
            assert mld_decode(code, y, params).word == brute_mld(code, y, params)


class TestRankKernel:
    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    def test_decode_at_byte_and_lane_edges(self, n):
        rng = random.Random(100 + n)
        code = edge_code(rng, n)
        received = ({0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(6)}
                    | {x ^ (1 << rng.randrange(n)) for x in code.words})
        for params in (_channel("0.2", "0.2"), _channel("0.05", "0.3")):
            for bits in sorted(received):
                y = Word(n, bits)
                assert mld_decode(code, y, params).word == brute_mld(code, y, params)

    def test_length_beyond_exact_float32_refused_before_allocating(self, params_ex1):
        n = MAX_LENGTH
        code, y = Code(n, [0]), Word(n, 0)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="n < "):
                mld_decode(code, y, params_ex1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (1, n) bit matrix alone would take 16 MiB
        assert peak < 1 << 20

    @pytest.mark.parametrize("params", [_channel("0.2", "0.2"), _channel("0.05", "0.3"),
                                        _channel("0.05", "0.050000000001")],
                             ids=["p_eq_q", "asymmetric", "near_p_eq_q"])
    def test_rank_order_is_likelihood_order(self, params):
        # every pair of keys (w, c), (w', c') and every received weight v at
        # which both cells occur compare as their exact likelihood scores do;
        # near p = q, distinct likelihoods have levels closer than the slack
        n = 9
        code = Code(n, [(1 << w) - 1 for w in range(n + 1)])
        kernel = _RankKernel(code, params)
        table = _score_table(n, params)
        keys = [(w, c) for w in kernel.weights.tolist() for c in range(w + 1)]
        rank = kernel_ranks(kernel, n)
        assert len(rank) == len(keys)
        for (w, c), r in zip(keys, rank):
            for (w2, c2), r2 in zip(keys, rank):
                for v in range(max(c, c2), min(c + n - w, c2 + n - w2) + 1):
                    s, s2 = table.score(w, w - c, v - c), table.score(w2, w2 - c2, v - c2)
                    assert (r > r2) - (r < r2) == (s > s2) - (s < s2)

    @pytest.mark.parametrize("params", [_channel("0.05", "0.05"), _channel("0.05", "0.3")],
                             ids=["p_eq_q", "asymmetric"])
    def test_long_code_ranks_match_exact_integers(self, params):
        # three weight classes at n = 3000: the dense rank of the decoder's
        # keys is that of X**w * Y**c, compared as integers over the common
        # denominator
        n = 3000
        code = Code(n, [(1 << w) - 1 for w in (700, 1501, 2999)])
        kernel = _RankKernel(code, params)
        x = params.q / (1 - params.p)
        y = (1 - params.q) * (1 - params.p) / (params.p * params.q)
        top = 2999
        exact = [x.numerator ** w * x.denominator ** (top - w)
                 * y.numerator ** c * y.denominator ** (top - c)
                 for w in (700, 1501, 2999) for c in range(w + 1)]
        distinct = sorted(set(exact))
        dense = {value: i for i, value in enumerate(distinct)}
        assert kernel_ranks(kernel, n) == [dense[value] for value in exact]
        if params.p == params.q:
            # X**w * Y**c = X**(w - 2c) at p = q, so only w - 2c decides
            assert len(distinct) == len({w - 2 * c for w in (700, 1501, 2999)
                                         for c in range(w + 1)})

    def test_wide_gamma_keys_fit_int64(self):
        # gamma is about 10.8 at p = 0.0001, q = 0.45, so u is about 11 v and
        # v about 4n; at n = 3000 every key c(u + v) - w v is below
        # 4n(u + v), far inside int64, and the ranks are those of the exact
        # integers X**w * Y**c over a common denominator
        params = _channel("0.0001", "0.45")
        n, weights = 3000, (1, 1501, 2999)
        u, v = params.bracket(n)
        assert 10 * v < u < 11 * v and 4 * n * (u + v) < 1 << 40
        kernel = _RankKernel(Code(n, [(1 << w) - 1 for w in weights]), params)
        x = params.q / (1 - params.p)
        y = (1 - params.q) * (1 - params.p) / (params.p * params.q)
        y_pow = [y.denominator ** n]  # y_pow[c] = yn**c * yd**(n - c)
        for _ in range(n):
            y_pow.append(y_pow[-1] // y.denominator * y.numerator)
        x_pow = {w: x.numerator ** w * x.denominator ** (n - w) for w in weights}
        exact = [x_pow[w] * y_pow[c] for w in weights for c in range(w + 1)]
        dense = {value: i for i, value in enumerate(sorted(set(exact)))}
        assert kernel_ranks(kernel, n) == [dense[value] for value in exact]

    @pytest.mark.parametrize("params", KEY_CHANNELS, ids=KEY_IDS)
    def test_int64_keys_compare_as_scores(self, params):
        # the keys decide computes for every (w, c), against every received
        # weight v at which two cells both occur, compare as their exact
        # scores do, so equal keys mean equal likelihoods
        n = 9
        kernel = _RankKernel(Code(n, [(1 << w) - 1 for w in range(n + 1)]), params)
        # row c of the block holds min(c, w) for the weight-w codeword
        key = kernel.decide(np.minimum.outer(np.arange(n + 1), np.arange(n + 1)))[0]
        assert key.dtype == (np.int32 if 4 * n * sum(params.bracket(n)) < 1 << 31 else np.int64)
        keys = [(w, c, int(key[w, c])) for w in range(n + 1) for c in range(w + 1)]
        table = _score_table(n, params)
        for w, c, k in keys:
            for w2, c2, k2 in keys:
                for v in range(max(c, c2), min(c + n - w, c2 + n - w2) + 1):
                    s, s2 = table.score(w, w - c, v - c), table.score(w2, w2 - c2, v - c2)
                    assert (k > k2) - (k < k2) == (s > s2) - (s < s2)

    def test_keys_past_int32_decode_as_brute_force(self):
        # gamma is about 143 at p = 1e-50, q = 0.45, so at n = 4000 the keys
        # c(u + v) - w v of the words sent pass 2**31
        params = _channel("0." + "0" * 49 + "1", "0.45")
        n = 4000
        u, v = params.bracket(n)
        assert 1 << 32 < n * (u + v) < 1 << 40
        rng = random.Random(71)
        code = Code(n, [rng.getrandbits(n) for _ in range(4)])
        for x in code.words:
            # clear about a tenth of the ones, as the q flips would
            y = Word(n, x & ~(rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)))
            assert mld_decode(code, y, params).word == brute_mld(code, y, params)

    @pytest.mark.parametrize("n", [1315, 1316])
    def test_key_width_at_the_int32_edge(self, n):
        # at p = 1e-50, q = 0.45, 4n(u + v) is just below 2**31 at n = 1315 and
        # past it at n = 1316, so the keys are int32 and then int64
        params = _channel("0." + "0" * 49 + "1", "0.45")
        edge = 4 * n * sum(params.bracket(n))
        assert (1 << 30 < edge < 1 << 31) if n == 1315 else (1 << 31 <= edge < 1 << 32)
        rng = random.Random(n)
        code = Code(n, [rng.getrandbits(n) for _ in range(4)])
        kernel = _RankKernel(code, params)
        key = kernel.keys(kernel.common.word_major(kernel.common.bits))
        assert key.dtype == (np.int32 if edge < 1 << 31 else np.int64)
        for x in code.words:
            for flips in (0, 1, 3, 40):
                y = Word(n, x ^ sum(1 << i for i in rng.sample(range(n), flips)))
                assert mld_decode(code, y, params).word == brute_mld(code, y, params)

    @PROPERTY
    @given(key_cases())
    def test_mld_decode_matches_brute_force(self, case):
        code, params = case
        for bits in range(1 << code.n):
            y = Word(code.n, bits)
            assert mld_decode(code, y, params).word == brute_mld(code, y, params)

    @pytest.mark.parametrize("params", KEY_CHANNELS, ids=KEY_IDS)
    def test_monte_carlo_block_flags_match_brute_force(self, monkeypatch, params):
        # one Monte Carlo block at n = 65, two 64-bit lanes: a trial errs
        # exactly when brute_mld does not decode its received word to the
        # word sent, ties included
        rng = random.Random(67)
        code = padded_code(rng, random_code(rng, 8, 10), 65)
        trials, seed = 400, 11
        received, keyed = [], []
        product, keys = AndCounts.word_major, _RankKernel.keys

        def keep_keys(self, common, *args):
            key = keys(self, common, *args)
            keyed.append(key.copy())
            return key
        monkeypatch.setattr(AndCounts, "word_major",
                            lambda self, rows: received.append(rows) or product(self, rows))
        monkeypatch.setattr(_RankKernel, "keys", keep_keys)
        estimate, _ = monte_carlo_error_probability(code, params, trials, seed)
        [block], [key] = received, keyed
        top = key.max(axis=0)
        tie = (key == top).sum(axis=0) > 1
        sent = np.random.default_rng(seed).integers(0, len(code), size=trials)
        flags = tie | (key[sent, np.arange(trials)] != top)
        assert flags.tolist() == [brute_mld(code, Word(65, bits), params) != code.word(i)
                                  for bits, i in zip(row_ints(pack_bits(block)), sent.tolist())]
        assert flags.any() and flags.sum() / trials == estimate

    def test_no_score_table_outside_exhaustive_sweep(self, monkeypatch, c1, params_ex1):
        def refuse(*args):
            raise AssertionError("score table built")
        monkeypatch.setattr(channel, "_score_table", refuse)
        assert monte_carlo_error_probability(c1, params_ex1, 2000, seed=1)[0] > 0
        for bits in range(1 << 6):
            y = Word(6, bits)
            assert mld_decode(c1, y, params_ex1).word == brute_mld(c1, y, params_ex1)
        with pytest.raises(AssertionError, match="score table"):
            exact_error_probability(c1, params_ex1)


class TestExactErrorProbability:
    def test_example_values(self, c1, c2, params_ex1):
        assert abs(float(exact_error_probability(c1, params_ex1)) - 0.2328) <= 5e-5
        assert abs(float(exact_error_probability(c2, params_ex1)) - 0.101) <= 5e-4

    def test_singleton_never_errs(self, params_ex1):
        assert exact_error_probability(Code.from_strings(["110"]), params_ex1) == 0

    def test_range(self, params_ex1):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randrange(1, 9)
            code = random_code(rng, n, rng.randrange(1, min(6, 1 << n) + 1))
            value = exact_error_probability(code, params_ex1)
            assert 0 <= value <= 1

    def test_order_invariance(self, params_ex1):
        code = Code.from_strings(["111000", "011100", "110000"])
        permuted = Code.from_strings(["110000", "111000", "011100"])
        assert exact_error_probability(code, params_ex1) == \
            exact_error_probability(permuted, params_ex1)

    @PROPERTY
    @given(decoding_cases())
    def test_matches_oracle_sum(self, case):
        code, params = case
        assert exact_error_probability(code, params) == brute_error_probability(code, params)

    def test_cap(self, params_ex1):
        code = Code(25, [0, 1])
        with pytest.raises(CapExceeded, match="cap"):
            exact_error_probability(code, params_ex1)
        exact_error_probability(Code(5, [0, 1]), params_ex1, cap=5)


class TestExactErrorProbabilities:
    @PROPERTY
    @given(decoding_cases())
    def test_matches_oracle_at_every_channel(self, case):
        # p = q, a channel next to p = q, a repeated channel and several p values
        code, params = case
        channels = [params, _channel("0.1", "0.1"), _channel("0.05", "0.050000000001"),
                    params, _channel("0.025", "0.325")]
        assert exact_error_probabilities(code, channels) == \
            [brute_error_probability(code, c) for c in channels]

    @settings(PROPERTY, max_examples=20)
    @given(block_cases())
    def test_matches_oracle_over_many_blocks(self, case):
        # a 16-cell block holds at most 8 received words here, so every sweep
        # runs in at least two blocks and the high bits of c(x, y) are used
        code, channels = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_bitops, "BLOCK_CELLS", 16)
            assert 2 * AndCounts.of_code(code).rows <= 1 << code.n
            assert exact_error_probabilities(code, channels) == \
                [brute_error_probability(code, c) for c in channels]

    def test_many_channels_in_bounded_memory(self):
        # 2000 channels at n = 10, M = 64: the shared low c table and one block
        # of keys at a time, never one low table per channel
        rng = random.Random(29)
        code = random_code(rng, 10, 64)
        channels = [ChannelParams(Fraction(1, 20), Fraction(1, 20) + Fraction(k, 10000))
                    for k in range(2000)]
        tracemalloc.start()
        try:
            exact_error_probabilities(code, channels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 << 20

    def test_empty_channel_list(self, c1):
        assert exact_error_probabilities(c1, []) == []

    def test_groups_under_the_cell_budget(self, monkeypatch, c1):
        # c1 has two weight classes at n = 6: 2 * 7 * 7 count cells a channel
        channels = [_channel("0.1", q) for q in ("0.1", "0.15", "0.2", "0.25", "0.3")]
        whole = exact_error_probabilities(c1, channels)
        sweeps = []
        product = AndCounts.word_major
        monkeypatch.setattr(AndCounts, "word_major",
                            lambda self, *args: sweeps.append(1) or product(self, *args))
        monkeypatch.setattr(channel, "EXACT_CELLS", 2 * 2 * 7 * 7)
        assert exact_error_probabilities(c1, channels) == whole
        # three groups of at most two channels share the one product of the call
        assert len(sweeps) == 1

    def test_one_bit_matrix_per_call(self, monkeypatch, c1):
        built = []
        of_code = AndCounts.of_code
        monkeypatch.setattr(AndCounts, "of_code", classmethod(
            lambda cls, code: built.append(1) or of_code(code)))
        grid = [_channel("0.05", f"0.{q:02d}") for q in range(5, 45, 4)]
        assert len(exact_error_probabilities(c1, grid)) == 10
        assert len(built) == 1


class TestMonteCarlo:
    def test_deterministic(self, c1, params_ex1):
        a = monte_carlo_error_probability(c1, params_ex1, trials=5000, seed=99)
        b = monte_carlo_error_probability(c1, params_ex1, trials=5000, seed=99)
        assert a == b

    def test_singleton(self, params_ex1):
        est, err = monte_carlo_error_probability(
            Code.from_strings(["0101"]), params_ex1, trials=2000, seed=1)
        assert est == 0.0 and err == 0.0

    def test_tracks_exact_value(self, c1, params_ex1):
        exact = float(exact_error_probability(c1, params_ex1))
        est, stderr = monte_carlo_error_probability(c1, params_ex1,
                                                    trials=200_000, seed=7)
        assert abs(est - exact) <= 3 * stderr

    def test_convergence_over_seed_set(self, params_ex1):
        # at 4 standard errors, expect at most one outlier per hundred seeds
        rng = random.Random(53)
        code = random_code(rng, 7, 5)
        exact = float(exact_error_probability(code, params_ex1))
        hits = 0
        seeds = range(100)
        for seed in seeds:
            est, stderr = monte_carlo_error_probability(code, params_ex1,
                                                        trials=4000, seed=seed)
            if abs(est - exact) <= 4 * stderr:
                hits += 1
        assert hits >= 99

    def test_invalid_trials(self, c1, params_ex1):
        with pytest.raises(ValueError):
            monte_carlo_error_probability(c1, params_ex1, trials=0, seed=0)

    def test_negative_seed_named(self, c1, params_ex1):
        with pytest.raises(ValueError, match="seed"):
            monte_carlo_error_probability(c1, params_ex1, trials=10, seed=-1)

    @pytest.mark.parametrize("code, params, trials, seed, expected", [
        pytest.param(random_code(random.Random(61), 6, 12), _channel("0.2", "0.2"),
                     20000, 3, (0.6317, 0.003410682556322121), id="p_eq_q_ties"),
        pytest.param(random_code(random.Random(62), 9, 20), _channel("0.01", "0.45"),
                     20000, 4, (0.5437, 0.003522004471888132), id="strongly_asymmetric"),
        pytest.param(padded_code(random.Random(64), random_code(random.Random(63), 8, 10), 64),
                     _channel("0.03", "0.06"), 10000, 5,
                     (0.0788, 0.0026942635357366214), id="padded_64"),
        pytest.param(Code(10, [0b1011001110]), _channel("0.1", "0.2"), 3000, 6,
                     (0.0, 0.0), id="single_word"),
        pytest.param(Code.from_strings(["111000", "011100", "110000"]),
                     _channel("0.1", "0.15"), 37768, 8,
                     (0.22961237026053802, 0.002164164643019038), id="two_batches"),
        pytest.param(padded_code(random.Random(66), random_code(random.Random(65), 7, 9), 40),
                     _channel("0.05", "0.05"), 8000, 10,
                     (0.100125, 0.0033559645479168876), id="p_eq_q_padded_40"),
    ])
    def test_reproducibility_pinned(self, code, params, trials, seed, expected):
        # the draws and the decisions are a contract: these must never change
        got = monte_carlo_error_probability(code, params, trials, seed)
        assert got == expected and all(type(v) is float for v in got)

    def test_beyond_64_tracks_core(self):
        # a padded code decodes as its core, so its estimate tracks the
        # core's exact error probability at any length
        rng = random.Random(80)
        core = random_code(rng, 8, 6)
        code = padded_code(rng, core, 80)
        params = _channel("0.05", "0.12")
        exact = float(exact_error_probability(core, params))
        trials = 20000
        est, _ = monte_carlo_error_probability(code, params, trials, seed=12)
        assert abs(est - exact) <= 5 * math.sqrt(exact * (1 - exact) / trials)
