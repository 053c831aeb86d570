import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bidistance.bounds import (LatticePoint, ahb_union_bound, discrepancy,
                               discrepancy_bound, lattice_word_count,
                               min_discrepancy, min_symmetric_discrepancy,
                               pairwise_error_probability, region_threshold,
                               symmetric_discrepancy,
                               symmetric_discrepancy_bound)
from bidistance.channel import ChannelParams, exact_error_probability
from bidistance.core import Code, Word, bidistance_distribution
from helpers import (eq3_pairwise_oracle, random_code, reference_ahb,
                     reference_cr, reference_pep, reference_region_threshold)

#: derandomized, with no example database, so every run draws the same cases
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def channels(draw):
    """A channel in the regime; p = q (gamma = 1, SNAP ties) half the time."""
    p = draw(st.integers(1, 49))
    q = p if draw(st.booleans()) else draw(st.integers(p, 49))
    return ChannelParams(Fraction(p, 100), Fraction(q, 100))


@st.composite
def bound_cases(draw):
    """A random code with 1 <= n <= 130 and 1 <= M <= 40, and a channel."""
    n = draw(st.integers(1, 130))
    size = draw(st.integers(1, min(40, 1 << n)))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size,
                          max_size=size, unique=True))
    return Code(n, words), draw(channels())


def _outcome(fn):
    """What ``fn()`` returns, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # the comparison needs every failure's type
        return type(exc)


class TestPairwiseErrorProbability:
    def test_identical_offsets(self, params_ex1):
        assert pairwise_error_probability(0, 0, params_ex1) == 1.0
        assert pairwise_error_probability(0, 0, params_ex1, exact=True) == 1

    def test_single_down_flip(self, params_ex1):
        assert pairwise_error_probability(1, 0, params_ex1, exact=True) == Fraction(3, 20)

    def test_single_up_flip(self, params_ex1):
        assert pairwise_error_probability(0, 1, params_ex1, exact=True) == Fraction(1, 10)

    def test_matches_exhaustive_oracle(self, params_ex1):
        for d10 in range(7):
            for d01 in range(7 - d10):
                exact = pairwise_error_probability(d10, d01, params_ex1, exact=True)
                assert exact == eq3_pairwise_oracle(d10, d01, params_ex1)
                approx = pairwise_error_probability(d10, d01, params_ex1)
                assert abs(approx - float(exact)) < 1e-12

    def test_oracle_agreement_symmetric_channel(self):
        params = ChannelParams.from_decimals("0.25", "0.25")
        for d10 in range(5):
            for d01 in range(5 - d10):
                assert pairwise_error_probability(d10, d01, params, exact=True) == \
                    eq3_pairwise_oracle(d10, d01, params)

    def test_negative_rejected(self, params_ex1):
        with pytest.raises(ValueError):
            pairwise_error_probability(-1, 0, params_ex1)
        with pytest.raises(ValueError):
            pairwise_error_probability(0, -1, params_ex1)

    @PROPERTY
    @given(st.integers(0, 150), st.integers(0, 150), channels())
    @example(0, 0, ChannelParams(Fraction(1, 10), Fraction(3, 20)))
    @example(2, 2, ChannelParams(Fraction(1, 5), Fraction(1, 5)))
    def test_float_path_matches_per_term_loop(self, d10, d01, params):
        assert pairwise_error_probability(d10, d01, params) == \
            reference_pep(d10, d01, params)

    def test_overflow_as_per_term_loop(self, params_ex1):
        with pytest.raises(OverflowError):
            reference_pep(1100, 1100, params_ex1)
        with pytest.raises(OverflowError):
            pairwise_error_probability(1100, 1100, params_ex1)


class TestRegionThreshold:
    def test_plain_values(self, params_ex1):
        g = params_ex1.gamma
        assert region_threshold(1, 1, g) == 1
        assert region_threshold(0, 1, g) == 1
        assert region_threshold(1, 2, g) == 2

    def test_snapping_at_equal_probabilities(self):
        # gamma is exactly 1; even totals give integral thresholds
        assert region_threshold(2, 2, 1.0) == 2
        assert region_threshold(2, 1, 1.0) == 2  # 1.5 rounds up

    def test_snap_tolerance(self):
        assert region_threshold(2, 2, 1.0 + 1e-12) == 2

    def test_arrays_match_scalar_rule(self):
        d10, d01 = np.divmod(np.arange(40 * 40), 40)
        for gamma in (1.0, 1.0 + 1e-12, 1.5, 2.0, 37 / 13, 4.25):
            got = region_threshold(d10, d01, gamma)
            assert got.tolist() == [reference_region_threshold(a, b, gamma)
                                    for a, b in zip(d10.tolist(), d01.tolist())]


class TestAhbUnionBound:
    def test_example_values(self, c1, c2, params_ex1):
        b1 = ahb_union_bound(bidistance_distribution(c1), params_ex1)
        b2 = ahb_union_bound(bidistance_distribution(c2), params_ex1)
        assert abs(b1.value - 0.2683) <= 5e-5
        assert abs(b2.value - 0.1129) <= 5e-5
        assert b1.method == "ahb"

    def test_singleton_is_zero(self, params_ex1):
        report = ahb_union_bound(
            bidistance_distribution(Code.from_strings(["101"])), params_ex1)
        assert report.value == 0.0 and report.components == {}

    def test_clamped_at_one(self):
        params = ChannelParams.from_decimals("0.4", "0.45")
        code = Code(4, list(range(16)))
        report = ahb_union_bound(bidistance_distribution(code), params)
        assert report.value == 1.0 and report.raw_value > 1.0

    def test_components_sum_to_raw(self, c1, params_ex1):
        report = ahb_union_bound(bidistance_distribution(c1), params_ex1)
        assert math.isclose(sum(report.components.values()), report.raw_value)

    def test_json_round_trip_fields(self, c1, params_ex1):
        doc = ahb_union_bound(bidistance_distribution(c1), params_ex1).to_json_dict()
        assert set(doc) == {"method", "value", "raw_value", "components"}


def _assert_reports_equal(code: Code, params: ChannelParams) -> None:
    """All three reports equal the per-term loops' with ==, or both raise
    the same exception type."""
    dist = bidistance_distribution(code)
    assert _outcome(lambda: ahb_union_bound(dist, params).to_json_dict()) == \
        _outcome(lambda: reference_ahb(dist, params))
    for symmetric, bound in ((False, discrepancy_bound),
                             (True, symmetric_discrepancy_bound)):
        assert _outcome(lambda: bound(code, params).to_json_dict()) == \
            _outcome(lambda: reference_cr(code, params, symmetric))


class TestAgainstPerTermLoops:
    """The batched kernels give the per-term loops' floats, to the bit."""

    @PROPERTY
    @given(bound_cases())
    @example((Code.from_strings(["101"]), ChannelParams(Fraction(1, 10), Fraction(3, 20))))
    # the weight-0 class of this code keeps an empty region in cr_symmetric
    @example((Code.from_strings(["1111", "1110", "0000"]),
              ChannelParams(Fraction(1, 100), Fraction(45, 100))))
    @example((Code.from_strings(["110", "011", "101"]),
              ChannelParams(Fraction(1, 4), Fraction(1, 4))))
    def test_reports_equal(self, case):
        _assert_reports_equal(*case)

    def test_seeded_codes(self):
        rng = random.Random(83)
        for k in range(40):
            n = rng.randrange(1, 131)
            size = rng.randrange(1, min(40, 1 << n) + 1)
            words: set[int] = set()
            while len(words) < size:
                words.add(rng.getrandbits(n))
            p = rng.randrange(1, 50)
            q = p if k % 2 else rng.randrange(p, 50)
            _assert_reports_equal(Code(n, words),
                                  ChannelParams(Fraction(p, 100), Fraction(q, 100)))

    @pytest.mark.parametrize("n", [1100, 3000])
    def test_large_lengths(self, n, params_ex1):
        # the same value at n = 1100 (a negative CR "bound"), the same
        # OverflowError at n = 3000, as the per-term loops give
        rng = random.Random(n)
        _assert_reports_equal(Code(n, [rng.getrandbits(n) for _ in range(3)]), params_ex1)


class TestDiscrepancies:
    def test_identical_words(self, params_ex1):
        x = Word.from_string("1101")
        assert discrepancy(x, x, params_ex1) == 0.0
        expected = -x.weight * (params_ex1.gamma - 1.0)
        assert symmetric_discrepancy(x, x, params_ex1) == pytest.approx(expected)

    def test_example_minimums(self, c1, c2, params_ex1):
        assert min_discrepancy(c1, params_ex1) == 1.0
        assert min_discrepancy(c2, params_ex1) == 1.0
        expected = 3.0 - 2.0 * params_ex1.gamma
        assert abs(min_symmetric_discrepancy(c1, params_ex1) - expected) < 1e-12
        assert abs(min_symmetric_discrepancy(c1, params_ex1) - 0.6112) <= 5e-5

    def test_repetition_pair(self, params_ex1):
        code = Code.from_strings(["000000", "111111"])
        assert min_discrepancy(code, params_ex1) == 6.0

    def test_needs_two_words(self, params_ex1):
        with pytest.raises(ValueError):
            min_discrepancy(Code.from_strings(["01"]), params_ex1)

    def test_matches_pair_loop(self, params_ex1):
        # exact float equality with a per-pair loop, on one and several
        # 64-bit lanes and over a grid of channels
        rng = random.Random(61)
        grid = [params_ex1] + [ChannelParams(Fraction(1, 20), Fraction(k, 40))
                               for k in (2, 3, 7, 11, 19)]
        codes = [random_code(rng, n, rng.randrange(2, min(7, 1 << n) + 1))
                 for n in (rng.randrange(2, 9) for _ in range(30))]
        for n in (64, 65, 100, 128, 130):
            size = rng.randrange(2, 12)
            codes.append(Code(n, list({rng.getrandbits(n) for _ in range(size)})))
        for code in codes:
            words = list(code)
            for params in grid:
                direct = min(discrepancy(x, y, params)
                             for x in words for y in words if x != y)
                direct_sym = min(symmetric_discrepancy(x, y, params)
                                 for x in words for y in words if x != y)
                assert min_discrepancy(code, params) == direct
                assert min_symmetric_discrepancy(code, params) == direct_sym


class TestLatticeWordCount:
    def test_zero_offsets(self):
        assert lattice_word_count(6, 3, 3, LatticePoint(0, 0)) == 1

    def test_counted_example(self):
        assert lattice_word_count(6, 3, 3, LatticePoint(1, 1)) == 9

    def test_exhaustive_count(self):
        # all weight-3 words at offsets (1, 1) from a fixed weight-3 word
        reference = 0b000111
        count = 0
        for y in range(1 << 6):
            if y.bit_count() != 3:
                continue
            a = (reference & ~y).bit_count()
            b = (y & ~reference).bit_count()
            if (a, b) == (1, 1):
                count += 1
        assert count == lattice_word_count(6, 3, 3, LatticePoint(1, 1))

    def test_reference_independence(self):
        rng = random.Random(67)
        for _ in range(20):
            n = rng.randrange(2, 9)
            j = rng.randrange(0, n + 1)
            i = rng.randrange(0, n + 1)
            a = rng.randrange(0, j + 1)
            b = rng.randrange(0, n - j + 1)
            counts = set()
            for x in range(1 << n):
                if x.bit_count() != j:
                    continue
                got = sum(1 for y in range(1 << n)
                          if y.bit_count() == i
                          and (x & ~y).bit_count() == a
                          and (y & ~x).bit_count() == b)
                counts.add(got)
            assert counts == {lattice_word_count(n, i, j, LatticePoint(a, b))}

    def test_mismatched_weight_is_zero(self):
        assert lattice_word_count(6, 2, 3, LatticePoint(0, 0)) == 0


class TestWeightClassBounds:
    def test_example_both_codes_both_bounds(self, c1, c2, params_ex1):
        for code in (c1, c2):
            assert abs(discrepancy_bound(code, params_ex1).value - 0.5435) <= 5e-5
            assert abs(symmetric_discrepancy_bound(code, params_ex1).value - 0.5435) <= 5e-5

    def test_method_tags(self, c1, params_ex1):
        assert discrepancy_bound(c1, params_ex1).method == "cr_discrepancy"
        assert symmetric_discrepancy_bound(c1, params_ex1).method == "cr_symmetric"

    def test_example4_curves(self):
        # the two weight-class bounds separate, and both sit above the truth
        code_a = Code.from_strings(["01011", "11000", "10111"])
        code_b = Code.from_strings(["1111", "1001", "0000"])
        for code in (code_a, code_b):
            gaps = []
            for qi in range(10, 50, 3):
                params = ChannelParams(Fraction(1, 10), Fraction(qi, 100))
                exact = float(exact_error_probability(code, params))
                b1 = discrepancy_bound(code, params).value
                b2 = symmetric_discrepancy_bound(code, params).value
                assert b1 >= exact - 1e-9 and b2 >= exact - 1e-9
                gaps.append(abs(b1 - b2))
            assert max(gaps) > 1e-3

    def test_incomparability_example5(self, ex5_code):
        mild = ChannelParams.from_decimals("0.1", "0.11")
        harsh = ChannelParams.from_decimals("0.4", "0.45")
        dist = bidistance_distribution(ex5_code)
        ahb_mild = ahb_union_bound(dist, mild).value
        assert ahb_mild < discrepancy_bound(ex5_code, mild).value
        assert ahb_mild < symmetric_discrepancy_bound(ex5_code, mild).value
        ahb_harsh = ahb_union_bound(dist, harsh).value
        assert discrepancy_bound(ex5_code, harsh).value < ahb_harsh
        assert symmetric_discrepancy_bound(ex5_code, harsh).value < ahb_harsh

    def test_dominance_sample(self):
        rng = random.Random(71)
        grid = [(Fraction(a, 20), Fraction(b, 20))
                for a in range(1, 10) for b in range(a, 10)]
        for _ in range(12):
            n = rng.randrange(3, 9)
            code = random_code(rng, n, rng.randrange(2, min(6, 1 << n) + 1))
            dist = bidistance_distribution(code)
            for p, q in grid[:: 5]:
                params = ChannelParams(p, q)
                exact = float(exact_error_probability(code, params))
                assert ahb_union_bound(dist, params).value >= exact - 1e-9
                assert discrepancy_bound(code, params).value >= exact - 1e-9
                assert symmetric_discrepancy_bound(code, params).value >= exact - 1e-9
