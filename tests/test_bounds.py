import gc
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bidistance import bounds
from bidistance.bounds import (LatticePoint, _class_thresholds, _distinct_pairs, _TailPlan,
                               ahb_union_bound, ahb_union_bounds, discrepancy,
                               discrepancy_bound,
                               lattice_word_count, min_discrepancy,
                               min_symmetric_discrepancy, pairwise_error_probability,
                               region_threshold, symmetric_discrepancy,
                               symmetric_discrepancy_bound, weight_class_bounds)
from bidistance.channel import ChannelParams, exact_error_probabilities, exact_error_probability
from bidistance.core import Code, Word, bidistance_distribution
from bidistance.designs import DIFFERENCE_SETS, catalog_design, sbibd_codes
from helpers import (eq3_pairwise_oracle, exact_flip_tail, gamma_at_least,
                     random_code, reference_ahb, reference_cr, reference_tail_gather,
                     reference_cr_thresholds, reference_exact_pep,
                     reference_region_threshold)

#: derandomized, with no example database, so every run draws the same cases
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


#: gamma just above 1, exactly 3 twice, just above 3, and above 1 by so
#: little that the float gamma reads 1.0: thresholds here sit on or within
#: 1e-11 of a fraction with a small denominator
NEAR_RATIONAL = [ChannelParams.from_decimals(p, q) for p, q in (
    ("0.05", "0.050000000001"), ("0.025", "0.325"), ("0.0025", "0.1425"),
    ("0.025", "0.325000000001"), ("0.4999999999", "0.49999999995"))]


@st.composite
def channels(draw):
    """A channel in the regime: p = q (gamma = 1) a third of the time, a
    near-rational gamma from NEAR_RATIONAL a third, else p < q."""
    kind = draw(st.integers(0, 2))
    if kind == 2:
        return draw(st.sampled_from(NEAR_RATIONAL))
    p = draw(st.integers(1, 49))
    q = p if kind == 0 else draw(st.integers(p, 49))
    return ChannelParams(Fraction(p, 100), Fraction(q, 100))


#: relative tolerance of a float bound against its exact value
REL = 1e-12


@st.composite
def bound_cases(draw):
    """A random code with 1 <= n <= 40 and 1 <= M <= 40, and a channel."""
    n = draw(st.integers(1, 40))
    size = draw(st.integers(1, min(40, 1 << n)))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size,
                          max_size=size, unique=True))
    return Code(n, words), draw(channels())


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
    @given(st.integers(0, 40), st.integers(0, 40), channels())
    @example(0, 0, ChannelParams(Fraction(1, 10), Fraction(3, 20)))
    @example(2, 2, ChannelParams(Fraction(1, 5), Fraction(1, 5)))
    def test_float_path_matches_per_term_loop(self, d10, d01, params):
        exact = pairwise_error_probability(d10, d01, params, exact=True)
        assert math.isclose(pairwise_error_probability(d10, d01, params), float(exact),
                            rel_tol=REL)

    def test_integer_tail_helper_matches_exact(self):
        for params in (ChannelParams(Fraction(1, 10), Fraction(3, 20)),
                       ChannelParams(Fraction(1, 4), Fraction(1, 4))):
            for d10 in range(9):
                for d01 in range(9):
                    t = region_threshold(d10, d01, params)
                    assert exact_flip_tail(d10, d01, t, params) == \
                        pairwise_error_probability(d10, d01, params, exact=True)

    def test_integer_tail_equals_fraction_loop(self):
        for params in (ChannelParams(Fraction(1, 10), Fraction(3, 20)),
                       ChannelParams(Fraction(1, 4), Fraction(1, 4))):
            for d10 in range(31):
                for d01 in range(31):
                    assert pairwise_error_probability(d10, d01, params, exact=True) == \
                        reference_exact_pep(d10, d01, params)

    def test_large_offsets_stay_finite(self, params_ex1):
        # (1100, 1100) underflows to 0.0; the others are near 1e-100
        for d10, d01 in ((1100, 1100), (1100, 300), (300, 1100)):
            pep = pairwise_error_probability(d10, d01, params_ex1)
            assert 0.0 <= pep <= 1.0
            t = region_threshold(d10, d01, params_ex1)
            assert math.isclose(pep, float(exact_flip_tail(d10, d01, t, params_ex1)),
                                rel_tol=1e-10)


@st.composite
def tail_cases(draw):
    """A tail plan's lengths d1, d2 (zero lengths included), the BLOCK_CELLS it
    runs under, and per call a channel and thresholds from below 0 to past d1 + d2."""
    size = draw(st.integers(1, 12))
    d1, d2 = (draw(st.lists(st.integers(0, 40), min_size=size, max_size=size))
              for _ in range(2))
    block = draw(st.sampled_from([bounds.BLOCK_CELLS, 1, 16, 100]))
    calls = draw(st.lists(st.tuples(channels(), st.lists(
        st.integers(-5, max(d1) + max(d2) + 5), min_size=size, max_size=size)),
        min_size=1, max_size=4))
    return np.array(d1), np.array(d2), block, calls


#: p runs a, a, b, a over one plan's thresholds, each q apart from every p
P_RUNS = [ChannelParams.from_decimals(p, q) for p, q in
          (("0.05", "0.1"), ("0.05", "0.3"), ("0.07", "0.3"), ("0.05", "0.2"))]
P_RUNS_PLAN = np.array([3, 0, 7]), np.array([5, 2, 0])
P_RUNS_T = [np.array(t) for t in ([2, 0, 9], [-1, 3, 5], [4, 12, 0], [8, 1, 2])]


class TestTailWindow:
    @PROPERTY
    @given(tail_cases())
    @example((*P_RUNS_PLAN, 16, list(zip(P_RUNS, map(np.ndarray.tolist, P_RUNS_T)))))
    def test_window_gather_equals_clip_gather(self, case):
        # each call's p-tail windows read the same factors as a clip index, so
        # every sum is the same to the bit, across p changes inside one call
        d1, d2, block, calls = case
        plan = _TailPlan(d1, d2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "BLOCK_CELLS", block)
            rows = plan([np.array(t) for _, t in calls], [params for params, _ in calls])
            for row, (params, t) in zip(rows, calls):
                t = np.array(t)
                assert row.tobytes() == \
                    reference_tail_gather(plan, t, params).tobytes()

    def test_one_window_per_run_of_p_and_no_plan_writes(self, monkeypatch):
        # a call builds one p-tail window, from one _pmf at p, per run of equal p:
        # p runs a, a, b, a build 3; no call, one- or many-channel, writes the plan
        plan = _TailPlan(*P_RUNS_PLAN)
        kept, seen, pmf = dict(vars(plan)), [], _TailPlan._pmf
        monkeypatch.setattr(_TailPlan, "_pmf", lambda plan, x: seen.append(x) or pmf(plan, x))
        rows = list(plan(P_RUNS_T, P_RUNS))
        assert [x for x in seen if x in {params.p for params in P_RUNS}] == \
            [P_RUNS[0].p, P_RUNS[2].p, P_RUNS[3].p]
        list(plan(P_RUNS_T[:1], P_RUNS[:1]))
        assert vars(plan).keys() == kept.keys()
        assert all(vars(plan)[name] is value for name, value in kept.items())
        for row, t, params in zip(rows, P_RUNS_T, P_RUNS):
            assert row.tobytes() == reference_tail_gather(plan, t, params).tobytes()


def test_ahb_call_retains_no_window():
    # a many-channel AHB call leaves the distribution holding its keys and the tail
    # plan's __init__ arrays; each p-tail window, 3x the log-binomial grid, is freed
    rng = random.Random(45)
    dist = bidistance_distribution(Code(3000, [rng.getrandbits(3000) for _ in range(32)]))
    grid = [ChannelParams.from_decimals(p, q) for p, q in
            (("0.01", "0.2"), ("0.01", "0.25"), ("0.02", "0.25"))]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ahb_union_bounds(dist, grid)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    keys, plan = dist._ahb
    arrays = sum(a.nbytes for a in (plan.q_row, plan.p_row, plan.k, plan.rest, plan.log_comb))
    assert plan.log_comb.nbytes > 1 << 19
    assert retained <= arrays + sys.getsizeof(keys) + sum(map(sys.getsizeof, keys)) + (64 << 10)


#: n = 12 words on which AHB at REENTRY_A reads 0.39408, not 0.04098, when the
#: kept window is swapped for REENTRY_B's between its build and its use
REENTRY_WORDS = [0, 0b111111, 0b111111000000, 0b101010101010, 0b010101010101, 0b110011001100]
REENTRY_A, REENTRY_B = ("0.01", "0.2"), ("0.15", "0.3")


#: each bound with what keeps its plan: the distribution for AHB, the code for CR
KEPT_PLANS = {"ahb": (bidistance_distribution, ahb_union_bound),
              "cr_discrepancy": (lambda code: code, discrepancy_bound),
              "cr_symmetric": (lambda code: code, symmetric_discrepancy_bound)}


@pytest.mark.parametrize("keeper, bound", KEPT_PLANS.values(), ids=list(KEPT_PLANS))
def test_kept_plan_survives_a_reentrant_call(monkeypatch, keeper, bound):
    # channel A's q-pmf first evaluates the same kept plan at channel B, another p:
    # A's report still equals a fresh distribution's or code's, and so does B's
    a, b = ChannelParams.from_decimals(*REENTRY_A), ChannelParams.from_decimals(*REENTRY_B)
    fresh = [bound(keeper(Code(12, REENTRY_WORDS)), params) for params in (a, b)]
    kept, nested, pmf = keeper(Code(12, REENTRY_WORDS)), [], _TailPlan._pmf

    def pmf_after_reentry(plan, x):
        if x == a.q and not nested:
            nested.append(bound(kept, b))
        return pmf(plan, x)

    monkeypatch.setattr(_TailPlan, "_pmf", pmf_after_reentry)
    assert [bound(kept, a)] + nested == fresh


def test_kept_plans_shared_across_threads():
    # more threads than cores, switching every microsecond, alternate two channels on
    # one kept distribution and code: every report equals a fresh one at its channel
    channels = [ChannelParams.from_decimals(*pq) for pq in (REENTRY_A, REENTRY_B)]
    fresh = {(name, params): bound(keeper(Code(12, REENTRY_WORDS)), params)
             for name, (keeper, bound) in KEPT_PLANS.items() for params in channels}
    code = Code(12, REENTRY_WORDS)
    kept = {name: (keeper(code), bound) for name, (keeper, bound) in KEPT_PLANS.items()}
    wrong, done = [], []

    def run(params):
        for _ in range(300):
            wrong.extend(name for name, (holder, bound) in kept.items()
                         if bound(holder, params) != fresh[name, params])
        done.append(params)

    threads = [threading.Thread(target=run, args=(channels[i % 2],)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(done) == 4 and wrong == []


class TestRegionThreshold:
    def test_plain_values(self, params_ex1):
        assert region_threshold(1, 1, params_ex1) == 1
        assert region_threshold(0, 1, params_ex1) == 1
        assert region_threshold(1, 2, params_ex1) == 2

    def test_snapping_at_equal_probabilities(self):
        # gamma is exactly 1; even totals give integral thresholds
        params = ChannelParams.from_decimals("0.2", "0.2")
        assert region_threshold(2, 2, params) == 2
        assert region_threshold(2, 1, params) == 2  # 1.5 rounds up

    def test_snap_tolerance(self):
        # gamma - 1 is about 6e-12: (25 gamma + 19) / (1 + gamma) is just
        # above 22, which a 1e-9 snap to the nearest integer took as 22
        params = ChannelParams.from_decimals("0.05", "0.050000000001")
        assert region_threshold(25, 19, params) == 23
        assert region_threshold(2, 2, params) == 2
        assert region_threshold(2, 1, params) == 2

    def test_arrays_match_scalar_rule(self):
        d10, d01 = np.divmod(np.arange(40 * 40), 40)
        for params in [ChannelParams.from_decimals(*pq) for pq in (
                ("0.2", "0.2"), ("0.1", "0.15"), ("0.01", "0.45"))] + NEAR_RATIONAL:
            got = region_threshold(d10, d01, params)
            assert got.tolist() == [reference_region_threshold(a, b, params)
                                    for a, b in zip(d10.tolist(), d01.tolist())]

    @PROPERTY
    @given(st.integers(0, 40), st.integers(0, 40), channels())
    @example(25, 19, NEAR_RATIONAL[0])
    def test_matches_brute_integer_comparison(self, d10, d01, params):
        # the least k with A**(k - d10) <= B**(d01 - k), by a scan over every k
        t = region_threshold(d10, d01, params)
        brute = next(k for k in range(d10 + d01 + 1)
                     if gamma_at_least(k - d10, d01 - k, params))
        assert t == brute == reference_region_threshold(d10, d01, params)

    @PROPERTY
    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=2, max_size=8,
                             unique=True))), channels())
    def test_cr_thresholds_match_brute_integer_comparison(self, case, params):
        # t_j = min over the distinct pairs of the least k with
        # (1 + gamma) k >= gamma a + b + s (gamma - 1)(j - wt), by a scan
        n, words = case
        code = Code(n, words)
        pairs = [key for key in code.pair_table() if key[1] or key[2]]
        j = np.flatnonzero(code.weight_distribution())
        for symmetric in (False, True):
            s = int(symmetric)
            t = _class_thresholds(n, j, _distinct_pairs(code), params, symmetric)
            brute = {w: min(next(k for k in range(-2 * n, 3 * n + 2) if gamma_at_least(
                             k - a - s * (w - wt), b - s * (w - wt) - k, params))
                            for wt, a, b in pairs)
                     for w in j.tolist()}
            assert dict(zip(j.tolist(), t.tolist())) == brute \
                == reference_cr_thresholds(code, params, symmetric)


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
        assert report.value == float(report) == 1.0 and report.raw_value > 1.0

    def test_components_sum_to_raw(self, c1, params_ex1):
        report = ahb_union_bound(bidistance_distribution(c1), params_ex1)
        assert math.isclose(sum(report.components.values()), report.raw_value)
        assert float(report) == report.value == report.raw_value

    def test_json_round_trip_fields(self, c1, params_ex1):
        doc = ahb_union_bound(bidistance_distribution(c1), params_ex1).to_json_dict()
        assert set(doc) == {"method", "value", "raw_value", "components"}


def _assert_close(report, exact: dict[str, Fraction], rel_tol: float = REL) -> None:
    """Components and raw value within ``rel_tol`` of the exact ones."""
    assert list(report.components) == list(exact)
    for key, value in exact.items():
        assert math.isclose(report.components[key], float(value), rel_tol=rel_tol)
    assert math.isclose(report.raw_value, float(sum(exact.values(), Fraction(0))),
                        rel_tol=rel_tol)
    assert report.value == min(1.0, report.raw_value)


def _assert_reports_match(code: Code, params: ChannelParams) -> None:
    """All three reports against exact per-term Fraction loops; the
    weight-class bounds of a one-word code raise as the loops do."""
    dist = bidistance_distribution(code)
    _assert_close(ahb_union_bound(dist, params), reference_ahb(dist, params))
    for symmetric, bound in ((False, discrepancy_bound),
                             (True, symmetric_discrepancy_bound)):
        if len(code) < 2:
            with pytest.raises(ValueError):
                bound(code, params)
        else:
            _assert_close(bound(code, params), reference_cr(code, params, symmetric))


class TestAgainstPerTermLoops:
    """The tail kernel against exact per-term loops: the AHB bound against
    the exact pairwise error probabilities, the weight-class bounds against
    a Fraction sum over the (received weight, a) lattice with its level
    test."""

    @PROPERTY
    @given(bound_cases())
    @example((Code.from_strings(["101"]), ChannelParams(Fraction(1, 10), Fraction(3, 20))))
    # the weight-0 class of this code keeps an empty region in cr_symmetric
    @example((Code.from_strings(["1111", "1110", "0000"]),
              ChannelParams(Fraction(1, 100), Fraction(45, 100))))
    @example((Code.from_strings(["110", "011", "101"]),
              ChannelParams(Fraction(1, 4), Fraction(1, 4))))
    def test_reports_equal(self, case):
        _assert_reports_match(*case)

    def test_seeded_codes(self):
        rng = random.Random(83)
        for k in range(40):
            n = rng.randrange(1, 41)
            size = rng.randrange(1, min(40, 1 << n) + 1)
            words: set[int] = set()
            while len(words) < size:
                words.add(rng.getrandbits(n))
            p = rng.randrange(1, 50)
            q = p if k % 2 else rng.randrange(p, 50)
            _assert_reports_match(Code(n, words),
                                  ChannelParams(Fraction(p, 100), Fraction(q, 100)))

    @pytest.mark.parametrize("n", [1100, 3000])
    def test_large_lengths(self, n, params_ex1):
        # every value a valid probability, and equal to integer-arithmetic
        # tails: no term overflows, underflows early or cancels
        rng = random.Random(n)
        code = Code(n, [rng.getrandbits(n) for _ in range(3)])
        dist = bidistance_distribution(code)
        ahb = {f"{a},{b}": count * exact_flip_tail(
                   a, b, reference_region_threshold(a, b, params_ex1), params_ex1) / dist.size
               for (a, b), count in dist.multiset()}
        checks = [(ahb_union_bound(dist, params_ex1), ahb)]
        counts = code.weight_distribution()
        for symmetric, bound in ((False, discrepancy_bound),
                                 (True, symmetric_discrepancy_bound)):
            cr = {f"error[w={j}]": counts[j] * exact_flip_tail(j, n - j, t, params_ex1)
                  / len(code)
                  for j, t in reference_cr_thresholds(code, params_ex1, symmetric).items()}
            checks.append((bound(code, params_ex1), cr))
        for report, exact in checks:
            assert 0.0 < report.raw_value <= 1.0
            _assert_close(report, exact, rel_tol=1e-10)


@st.composite
def grid_cases(draw):
    """A random code with 1 <= n <= 130 and 1 <= M <= 24, and a channel list
    with two p values, a repeated channel, p = q and a near-p = q channel,
    in a drawn order."""
    n = draw(st.integers(1, 130))
    size = draw(st.integers(1, min(24, 1 << n)))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size,
                          max_size=size, unique=True))
    drawn = draw(st.lists(channels(), min_size=1, max_size=3))
    fixed = [ChannelParams.from_decimals(p, q) for p, q in (
        ("0.05", "0.050000000001"), ("0.2", "0.2"), ("0.01", "0.3"), ("0.05", "0.3"))]
    grid = draw(st.permutations(drawn + fixed + [drawn[0]]))
    return Code(n, words), grid


class TestManyChannelCalls:
    """A many-channel call equals the one-channel call at each channel to
    the bit, whatever the other channels of the list: its tail plan keeps
    only the p-tail of the latest p, and the AHB thresholds take the
    bracket at the code length."""

    @PROPERTY
    @given(grid_cases())
    @example((Code.from_strings(["101"]), [NEAR_RATIONAL[0], ChannelParams(
        Fraction(1, 10), Fraction(3, 20)), NEAR_RATIONAL[0]]))
    def test_reports_equal_one_channel_reports(self, case):
        code, grid = case
        dist = bidistance_distribution(code)
        # fresh instances, so no bracket is shared with the grid's channels
        alone = [ChannelParams(params.p, params.q) for params in grid]
        checks = [(ahb_union_bounds(dist, grid),
                   [ahb_union_bound(dist, params) for params in alone])]
        for symmetric, bound in ((False, discrepancy_bound),
                                 (True, symmetric_discrepancy_bound)):
            if len(code) < 2:
                with pytest.raises(ValueError):
                    weight_class_bounds(code, grid, symmetric)
            else:
                checks.append((weight_class_bounds(code, grid, symmetric),
                               [bound(code, params) for params in alone]))
        for many, one in checks:
            assert len(many) == len(grid)
            for got, want in zip(many, one):
                assert got.method == want.method
                assert got.value == want.value and got.raw_value == want.raw_value
                assert list(got.components) == list(want.components)
                assert all(got.components[k] == v for k, v in want.components.items())
        if len(code) < 2:
            assert all(r.value == r.raw_value == 0.0 and r.components == {}
                       for r in checks[0][0])

    def test_weight_class_call_reads_the_pair_support_once(self, monkeypatch):
        # the distinct pairs and the classes are built once per code, not once
        # per channel or per call: both bounds share the code's kept plan
        code = random_code(random.Random(9), 10, 12)
        grid = [ChannelParams.from_decimals("0.05", q) for q in ("0.05", "0.1", "0.2", "0.3")]
        reads = []
        support = Code.pair_support
        monkeypatch.setattr(Code, "pair_support", lambda self: reads.append(1) or support(self))
        for symmetric in (False, True):
            many = weight_class_bounds(code, grid, symmetric)
            assert len(reads) == 1
            assert many == [weight_class_bounds(code, [params], symmetric)[0]
                            for params in grid]
        assert len(reads) == 1

    def test_ahb_call_builds_its_plan_once(self, monkeypatch):
        # the distribution keeps the keys and the tail plan of its first AHB call;
        # later calls, at any channels, build no plan and give the same reports
        dist = bidistance_distribution(random_code(random.Random(12), 9, 10))
        grid = [ChannelParams.from_decimals(p, q) for p, q in
                (("0.05", "0.05"), ("0.05", "0.3"), ("0.1", "0.2"))]
        plans = []
        plan = bounds._TailPlan
        monkeypatch.setattr(bounds, "_TailPlan", lambda *a: plans.append(1) or plan(*a))
        first = ahb_union_bounds(dist, grid)
        assert len(plans) == 1
        assert ahb_union_bounds(dist, grid[::-1]) == first[::-1]
        assert [ahb_union_bound(dist, params) for params in grid] == first
        assert len(plans) == 1
        fresh = bidistance_distribution(random_code(random.Random(12), 9, 10))
        assert ahb_union_bounds(fresh, grid) == first and len(plans) == 2

    @PROPERTY
    @given(grid_cases())
    def test_thresholds_at_code_length_equal_per_entry_thresholds(self, case):
        # a test s gamma >= r with equality has a denominator at most the
        # pair's length, so the finer bracket at n gives the same ceilings
        code, grid = case
        _, d10, d01 = code.pair_support().T
        for params in grid:
            assert region_threshold(d10, d01, params, code.n).tolist() == [
                region_threshold(a, b, params) for a, b in zip(d10.tolist(), d01.tolist())]


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

    @pytest.mark.parametrize("n, i, j, point", [
        (6, 7, 3, (0, 0)), (6, -1, 3, (0, 0)), (6, 3, 7, (0, 0)), (6, 3, -1, (0, 0)),
        (6, 3, 3, (-1, 0)), (6, 3, 3, (0, -1)),
    ])
    def test_out_of_range_refused(self, n, i, j, point):
        with pytest.raises(ValueError, match="arguments out of range"):
            lattice_word_count(n, i, j, LatticePoint(*point))


class TestWeightClassBounds:
    def test_example_both_codes_both_bounds(self, c1, c2, params_ex1):
        for code in (c1, c2):
            assert abs(discrepancy_bound(code, params_ex1).value - 0.5435) <= 5e-5
            assert abs(symmetric_discrepancy_bound(code, params_ex1).value - 0.5435) <= 5e-5

    def test_components_sum_to_raw(self, c1, params_ex1):
        for bound in (discrepancy_bound, symmetric_discrepancy_bound):
            report = bound(c1, params_ex1)
            assert set(report.components) == {"error[w=2]", "error[w=3]"}
            assert math.isclose(sum(report.components.values()), report.raw_value)

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

    def test_claims_past_criterion_10b(self):
        # criterion 10b's 45 channels on 40 seeded codes with n 9-14 and M 2-64 and
        # on every sbibd catalog code with n <= 16: each bound dominates the exact
        # error probability, and neither AHB nor the CR bounds is always the tighter
        grid = [ChannelParams.from_decimals(f"0.{a:02d}", f"0.{b:02d}")
                for a in range(5, 50, 5) for b in range(a, 50, 5)]
        rng = random.Random(2026)
        codes = [random_code(rng, n, rng.randrange(2, 65))
                 for n in (rng.randrange(9, 15) for _ in range(40))]
        codes += [code for v, k, lam in DIFFERENCE_SETS for family in (1, 2, 3, 4)
                  if (code := sbibd_codes(catalog_design(v, k, lam), family)).n <= 16]
        assert len(codes) == 56
        ahb_tighter = cr_tighter = False
        for code in codes:
            columns = zip(exact_error_probabilities(code, grid),
                          ahb_union_bounds(bidistance_distribution(code), grid),
                          weight_class_bounds(code, grid, False),
                          weight_class_bounds(code, grid, True))
            for exact, ahb, *cr in columns:
                cr_min = min(r.value for r in cr)
                assert min(ahb.value, cr_min) >= float(exact) - 1e-9
                ahb_tighter |= ahb.value < cr_min
                cr_tighter |= cr_min < ahb.value
        assert ahb_tighter and cr_tighter
