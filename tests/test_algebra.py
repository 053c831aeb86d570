import math
import random
import tracemalloc

import numpy as np
import pytest

from bidistance import algebra
from bidistance._bitops import packed_rows, popcount, row_reduce
from bidistance.algebra import (GOLAY_GENERATOR_POLY, BinaryField,
                                GeneratorMatrix, _null_space_rows, _poly_mod, _rref,
                                coset_distribution_matrix, defining_set_code,
                                distinct_row_count, dual_code,
                                generator_from_code, golay_code, is_projective,
                                relative_trace, smallest_irreducible,
                                trace_code_27_6, weight_distribution)
from bidistance.core import CapExceeded, Code
from helpers import (macwilliams, random_generator_rows, reference_coset_matrix,
                     reference_defining_set_words, reference_rank, reference_rref,
                     span_code)


class TestFieldConstruction:
    def test_default_moduli(self):
        assert smallest_irreducible(3) == 0b1011           # x^3 + x + 1
        assert BinaryField(6).modulus == 0b1000011         # x^6 + x + 1

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            BinaryField(3, 0b1001)  # x^3 + 1 = (x + 1)(x^2 + x + 1)

    def test_degree_checked(self):
        with pytest.raises(ValueError):
            BinaryField(3, 0b10011)

    def test_supported_range(self):
        with pytest.raises(ValueError):
            BinaryField(17)

    def test_default_moduli_give_fields(self):
        # Frobenius fixed-point check: x^(2^m) == x across sampled elements
        rng = random.Random(3)
        for m in range(1, 17):
            f = BinaryField(m)
            for a in {0, 1, f.order - 1, rng.randrange(f.order), rng.randrange(f.order)}:
                assert f.pow(a, f.order) == a


class TestFieldArithmetic:
    def test_hand_product_in_gf8(self):
        f = BinaryField(3, 0b1011)
        assert f.mul(0b010, 0b100) == 0b011  # x * x^2 = x + 1

    def test_multiplicative_identity(self):
        f = BinaryField(5)
        for a in range(f.order):
            assert f.mul(a, 1) == a

    def test_group_order(self):
        f = BinaryField(4)
        for a in range(1, f.order):
            assert f.pow(a, f.order - 1) == 1

    def test_axioms_sampled(self):
        rng = random.Random(13)
        for m in (2, 5, 8, 12):
            f = BinaryField(m)
            for _ in range(40):
                a, b, c = (rng.randrange(f.order) for _ in range(3))
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
            for _ in range(15):
                a = rng.randrange(1, f.order)
                assert f.mul(a, f.inverse(a)) == 1

    def test_range_checked(self):
        f = BinaryField(3)
        with pytest.raises(ValueError):
            f.mul(8, 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: GeneratorMatrix(0, (1,)), ValueError, "length must be at least 1"),
    (lambda: GeneratorMatrix(3, ()), ValueError, "at least one row is required"),
    (lambda: GeneratorMatrix(3, (0b011, 0b1000)), ValueError, "row out of range"),
    (lambda: BinaryField(4).pow(3, -1), ValueError, "negative exponents are not supported"),
    (lambda: BinaryField(4).inverse(0), ZeroDivisionError, "0 has no inverse"),
], ids=["n < 1", "no rows", "row past 2^n", "negative exponent", "inverse of 0"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestTraces:
    def test_zero(self):
        assert BinaryField(4).trace(0) == 0

    def test_absolute_trace_balanced_on_gf4(self):
        f = BinaryField(2)
        zeros = [a for a in range(4) if f.trace(a) == 0]
        assert len(zeros) == 2

    def test_linearity_and_surjectivity(self):
        rng = random.Random(19)
        for m in (3, 4, 6):
            f = BinaryField(m)
            assert any(f.trace(a) == 1 for a in range(f.order))
            for _ in range(50):
                a, b = rng.randrange(f.order), rng.randrange(f.order)
                assert f.trace(a ^ b) == f.trace(a) ^ f.trace(b)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_trace_mask_on_every_element(self, m):
        # parity(x & mask) is x + x^2 + ... + x^(2^(m-1)), the trace by definition
        f = BinaryField(m)
        for x in range(f.order):
            t = y = x
            for _ in range(m - 1):
                y = f.mul(y, y)
                t ^= y
            assert (x & f.trace_mask).bit_count() % 2 == t == f.trace(x)

    def test_trace_refuses_outside_elements(self):
        with pytest.raises(ValueError, match="outside GF"):
            BinaryField(3).trace(8)

    def test_relative_lands_in_subfield(self):
        f = BinaryField(6)
        for a in range(0, f.order, 7):
            t = relative_trace(f, 2, a)
            assert f.pow(t, 4) == t

    def test_tower_requirements(self):
        f = BinaryField(6)
        with pytest.raises(ValueError, match="d | source | m"):
            relative_trace(f, 4, 1)
        with pytest.raises(ValueError, match="subfield"):
            # an element of order 63 generates all of GF(64)
            gen = next(a for a in range(2, 64)
                       if all(f.pow(a, e) != 1 for e in (7, 9, 21)))
            relative_trace(f, 1, gen, source=3)

    def test_subfield_trace_cuts_27_elements(self):
        f = BinaryField(6)
        hits = [x for x in range(1, f.order)
                if relative_trace(f, 1, f.pow(x, 9), source=3) == 0]
        assert len(hits) == 27


class TestDefiningSetCode:
    def test_trace_code_shape(self):
        code = trace_code_27_6()
        assert code.n == 27 and len(code) == 64
        dist = code.weight_distribution()
        assert dist[12] == 36 and dist[16] == 27 and sum(dist) == 64
        assert is_projective(generator_from_code(code))

    def test_trace_code_evaluates_each_ninth_power_once(self, monkeypatch):
        # 63 elements have 7 distinct ninth powers; the defining set is the
        # same 27 elements, in the same order, as a trace per element gives
        f = BinaryField(6)
        traced, sets = [], []
        build = algebra.defining_set_code
        monkeypatch.setattr(algebra, "relative_trace",
                            lambda field, d, a, **kw: traced.append(a)
                            or relative_trace(field, d, a, **kw))
        monkeypatch.setattr(algebra, "defining_set_code",
                            lambda field, dset: sets.append(list(dset)) or build(field, dset))
        code = trace_code_27_6()
        assert sorted(traced) == sorted({f.pow(x, 9) for x in range(1, f.order)})
        assert len(traced) == 7
        assert sets == [[x for x in range(1, f.order)
                         if relative_trace(f, 1, f.pow(x, 9), source=3) == 0]]
        assert code == defining_set_code(f, sets[0])

    def test_tiny_set(self):
        code = defining_set_code(BinaryField(2), [1])
        assert code.n == 1 and sorted(code.words) == [0, 1]

    def test_bad_sets(self):
        f = BinaryField(3)
        with pytest.raises(ValueError):
            defining_set_code(f, [])
        with pytest.raises(ValueError):
            defining_set_code(f, [1, 1])
        with pytest.raises(ValueError):
            defining_set_code(f, [0, 1])


class TestGeneratorMatrix:
    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            GeneratorMatrix(3, (0b101, 0b011, 0b110))

    def test_string_round_trip(self):
        g = GeneratorMatrix.from_strings(["1100", "0011"])
        assert g.row_strings() == ["1100", "0011"]
        assert g.k == 2

    def test_strings_are_whole_rows(self):
        # a final newline is not a symbol of the row, and no rows is no generator
        with pytest.raises(ValueError, match="not a 0/1 string"):
            GeneratorMatrix.from_strings(["011\n"])
        with pytest.raises(ValueError, match="at least one row"):
            GeneratorMatrix.from_strings([])

    def test_codewords(self):
        g = GeneratorMatrix(3, (0b011, 0b100))
        assert sorted(g.codewords().words) == [0, 0b011, 0b100, 0b111]

    def test_generator_from_code_requires_subspace(self):
        with pytest.raises(ValueError, match="subspace"):
            generator_from_code(Code(3, [0, 1, 2]))

    def test_built_generators_reduce_their_rows_once(self, monkeypatch):
        # a null-space or reduced basis is independent by construction, so the
        # generator built from it is not row-reduced again; a caller's rows are reduced
        # once, to check them
        calls = []
        reduce = algebra.row_reduce
        monkeypatch.setattr(algebra, "row_reduce", lambda *args: calls.append(1) or reduce(*args))
        built = {"user": lambda: golay_code(),
                 "dual": lambda: dual_code(golay_code()),
                 "from code": lambda: generator_from_code(golay_code().codewords()),
                 "defining set": lambda: defining_set_code(BinaryField(4), [1, 2, 3, 5, 7])}
        reductions, results = {}, {}
        for name, build in built.items():
            calls.clear()
            results[name] = build()
            reductions[name] = len(calls)
        monkeypatch.undo()
        assert reductions == {"user": 1, "dual": 2, "from code": 2, "defining set": 1}
        for result in results.values():
            gen = result if isinstance(result, GeneratorMatrix) else generator_from_code(result)
            assert GeneratorMatrix(gen.n, gen.rows) == gen

    def test_zero_code_has_no_generator(self):
        with pytest.raises(ValueError, match="at least one row"):
            generator_from_code(Code(4, [0]))


class TestTrustedSpans:
    """Codes built as spans are linear without an elimination over their words
    and keep their basis; a caller's linearity claim is still checked."""

    def test_codewords_trusted_and_basis_kept(self, monkeypatch):
        rng = random.Random(1904)
        for _ in range(60):
            n = rng.randint(1, 70)
            g = GeneratorMatrix(n, tuple(random_generator_rows(rng, n, rng.randint(1, min(n, 9)))))
            monkeypatch.setattr(Code, "_check_linear", lambda self: pytest.fail("re-checked"))
            code = g.codewords()
            monkeypatch.undo()
            assert code.is_linear and code._basis == g.rows
            assert len(code) == 1 << reference_rank(code.words)
            fresh = Code(n, code.words, is_linear=True)
            assert code == fresh and fresh._basis is None
            assert generator_from_code(code).rows == generator_from_code(fresh).rows

    def test_defining_set_code_keeps_reduced_basis(self):
        rng = random.Random(1905)
        for m in range(1, 7):
            field = BinaryField(m)
            elems = rng.sample(range(1, field.order), rng.randint(1, field.order - 1))
            code = defining_set_code(field, elems)
            assert len(code._basis) == reference_rank(code.words) and code.is_linear
            fresh = Code(code.n, code.words)
            assert generator_from_code(code).rows == generator_from_code(fresh).rows

    def test_caller_claim_still_checked(self):
        rng = random.Random(1906)
        for _ in range(30):
            # at k >= 2 the words but the last still span the code, so the
            # word from outside raises the rank past the size
            n = rng.randint(3, 12)
            words = span_code(n, random_generator_rows(rng, n, rng.randint(2, n - 1))).words
            outside = next(w for w in range(1 << n) if w not in set(words))
            with pytest.raises(ValueError, match="not linear"):
                Code(n, words[:-1] + (outside,), is_linear=True)


class TestGolay:
    def test_generator_divides_modulus(self):
        assert _poly_mod((1 << 23) | 1, GOLAY_GENERATOR_POLY) == 0

    def test_dimensions(self):
        g = golay_code()
        d = dual_code(g)
        assert (g.n, g.k) == (23, 12)
        assert d.k == 11
        assert g.k + d.k == g.n

    def test_dual_weight_enumerator(self):
        dist = weight_distribution(dual_code(golay_code()))
        expected = [0] * 24
        expected[0], expected[8], expected[12], expected[16] = 1, 506, 1288, 253
        assert list(dist) == expected

    def test_double_dual_spans_same_code(self):
        g = golay_code()
        again = dual_code(dual_code(g))
        assert again.codewords() == g.codewords()

    def test_rank_nullity_random(self):
        rng = random.Random(37)
        for _ in range(15):
            n = rng.randrange(3, 12)
            k = rng.randrange(1, n)
            g = GeneratorMatrix(n, tuple(random_generator_rows(rng, n, k)))
            assert dual_code(g).k == n - k


class TestWeightDistribution:
    def test_zero_code(self):
        assert weight_distribution(Code(4, [0])) == (1, 0, 0, 0, 0)

    def test_trace_code_counts(self):
        code = trace_code_27_6()
        assert weight_distribution(generator_from_code(code)) == \
            code.weight_distribution()

    def test_trace_code_antidiagonal_identity(self):
        # pair frequencies summed along antidiagonals recover the weights
        from bidistance.core import bidistance_distribution, weights_from_bidistance
        code = trace_code_27_6()
        assert weights_from_bidistance(bidistance_distribution(code)) == \
            code.weight_distribution()

    def test_dimension_cap(self):
        with pytest.raises(CapExceeded):
            weight_distribution(GeneratorMatrix(40, tuple(1 << i for i in range(30))))

    def test_macwilliams_oracle(self):
        rng = random.Random(43)
        for _ in range(15):
            n = rng.randrange(3, 21)
            k = rng.randrange(1, n)
            g = GeneratorMatrix(n, tuple(random_generator_rows(rng, n, k)))
            assert weight_distribution(dual_code(g)) == \
                macwilliams(weight_distribution(g), n)


class TestProjectivity:
    def test_distinct_nonzero_columns(self):
        assert is_projective(GeneratorMatrix(3, (0b011, 0b110)))

    def test_repeated_column(self):
        assert not is_projective(GeneratorMatrix(3, (0b011, 0b100)))

    def test_zero_column(self):
        assert not is_projective(GeneratorMatrix(3, (0b110, 0b010)))


class TestCosetDistributionMatrix:
    def test_repetition_code_by_hand(self):
        mat = coset_distribution_matrix(GeneratorMatrix(3, (0b111,)))
        assert mat.shape == (4, 4)
        rows = sorted(tuple(int(x) for x in row) for row in mat)
        assert rows == [(0, 1, 1, 0)] * 3 + [(1, 0, 0, 1)]
        assert distinct_row_count(mat) == 2

    def test_full_space_single_coset(self):
        mat = coset_distribution_matrix(GeneratorMatrix(3, (1, 2, 4)))
        assert mat.shape == (1, 4)
        assert list(mat[0]) == [1, 3, 3, 1]

    def test_mass_per_row(self):
        rng = random.Random(47)
        g = GeneratorMatrix(8, tuple(random_generator_rows(rng, 8, 3)))
        mat = coset_distribution_matrix(g)
        assert mat.shape == (32, 9)
        assert np.all(mat.sum(axis=1) == 8)
        assert mat.sum() == 256

    def test_cap(self):
        with pytest.raises(CapExceeded):
            coset_distribution_matrix(GeneratorMatrix(25, (1,)))

    def test_distinct_row_count_exact(self):
        mat = np.array([[1, 2], [1, 2], [2, 1]])
        assert distinct_row_count(mat) == 2


class TestCosetRecurrence:
    """The per-coordinate recurrence against the 2^n word sweep it replaced."""

    def test_matches_word_sweep(self):
        rng = random.Random(61)
        cases = [(n, k) for n in range(1, 15) for k in {1, n, rng.randint(1, n)}]
        for n, k in cases:
            g = GeneratorMatrix(n, tuple(random_generator_rows(rng, n, k)))
            mat = coset_distribution_matrix(g)
            assert mat.dtype == np.int64
            assert np.array_equal(mat, reference_coset_matrix(g)), (n, g.rows)

    def test_basis_does_not_matter(self):
        # a non-reduced basis of the same code gives the same matrix
        rng = random.Random(62)
        for n in range(2, 15):
            g = GeneratorMatrix(n, tuple(random_generator_rows(rng, n, rng.randint(2, n))))
            mixed = [r ^ g.rows[(i + 1) % g.k] for i, r in enumerate(g.rows[:-1])]
            mixed.append(g.rows[-1])
            h = GeneratorMatrix(n, tuple(mixed))
            assert np.array_equal(coset_distribution_matrix(h), reference_coset_matrix(g))

    def test_golay_is_perfect(self):
        # the [23,12] code is perfect with radius 3: every coset has one
        # leader of weight <= 3, and 1 + 23 + 253 + 1771 = 2^11
        mat = coset_distribution_matrix(golay_code())
        assert mat.shape == (2048, 24)
        assert np.all(mat.sum(axis=1) == 4096)
        leader = (mat > 0).argmax(axis=1)
        assert np.bincount(leader).tolist() == [1, 23, 253, 1771]

    def test_cap_refuses_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=r"coset table 2\*\*24 x 26; cap is 16777216 cells"):
                coset_distribution_matrix(GeneratorMatrix(25, (1,)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_refuses_counts_past_int64(self):
        # a 2^6 x 81 table, far under the cell cap, but one coset holds 2^74 words
        with pytest.raises(CapExceeded, match=r"coset counts reach 2\*\*74; int64 holds k <= 62"):
            coset_distribution_matrix(GeneratorMatrix(80, tuple(1 << i for i in range(74))))

    def test_counts_exact_at_dimension_62(self):
        # unit rows 0..61 at n = 63: the two cosets split on coordinate 62, and
        # their counts C(62, w) reach 4.7e17, exact only in 64-bit integers
        mat = coset_distribution_matrix(GeneratorMatrix(63, tuple(1 << i for i in range(62))))
        binomials = [math.comb(62, w) for w in range(63)]
        assert sorted(mat.tolist()) == [[0] + binomials, binomials + [0]]

    def test_cap_counts_table_cells_not_length(self):
        # golay rows padded to n = 25: a 2^13 x 26 table, far under the cap;
        # every coset holds 2^12 words, and row 0 is the code itself
        mat = coset_distribution_matrix(GeneratorMatrix(25, golay_code().rows))
        assert mat.shape == (1 << 13, 26)
        assert np.all(mat.sum(axis=1) == 1 << 12)
        assert mat[0].tolist() == list(weight_distribution(golay_code())) + [0, 0]


def test_popcount_matches_int_bit_count():
    rng = random.Random(63)
    words = [0, 1, (1 << 64) - 1] + [rng.getrandbits(64) for _ in range(200)]
    counts = popcount(np.array(words, dtype=np.uint64))
    assert counts.dtype == np.int64
    assert counts.tolist() == [w.bit_count() for w in words]


def _row_sets(rng: random.Random, n: int) -> list[list[int]]:
    """A linear, a rank-deficient and a non-linear set of distinct words."""
    k = rng.randint(1, min(n, 6))
    basis = [rng.getrandbits(n) for _ in range(k)]
    linear = sorted(span_code(n, basis).words) if reference_rank(basis) == k else [0]
    deficient = basis + [basis[0] ^ basis[-1], 0]
    others = list({rng.getrandbits(n) for _ in range(rng.randint(1, 40))})
    return [linear, deficient, others]


class TestPackedElimination:
    """The packed F_2 elimination against the Python pivot loops it replaced."""

    def test_rref_and_rank_match_pivot_loops(self):
        rng = random.Random(71)
        for n in range(1, 131):
            for rows in _row_sets(rng, n):
                reduced, pivots = _rref(rows, n)
                assert (reduced, pivots) == reference_rref(rows, n), (n, rows)
                assert len(row_reduce(packed_rows(rows, n), n)[1]) == reference_rank(rows)

    def test_linearity_check_matches_pivot_loop(self):
        rng = random.Random(72)
        for n in range(1, 131):
            linear, _, others = _row_sets(rng, n)
            shifted = sorted({w ^ (1 << (n - 1)) for w in linear})  # a coset, or the space
            for words in (linear, others, shifted, linear[:-1] or [0]):
                linear_by_loop = len(words) == 1 << reference_rank(words)
                if linear_by_loop:
                    Code(n, words, is_linear=True)
                else:
                    with pytest.raises(ValueError, match="not linear"):
                        Code(n, words, is_linear=True)

    def test_null_space_past_one_lane(self):
        rng = random.Random(73)
        for n in (63, 64, 65, 70, 129, 130):
            rows = random_generator_rows(rng, n, rng.randint(1, 12))
            checks = _null_space_rows(rows, n)
            assert len(checks) == n - len(rows)
            assert reference_rank(checks) == len(checks)
            assert all((r & h).bit_count() % 2 == 0 for r in rows for h in checks)

    def test_lengths_above_64(self):
        rng = random.Random(74)
        rows = random_generator_rows(rng, 70, 9)
        g = GeneratorMatrix(70, tuple(rows))
        oracle = span_code(70, rows)
        assert g.codewords() == oracle
        tally = [0] * 71
        for w in oracle.words:
            tally[w.bit_count()] += 1
        assert weight_distribution(g) == oracle.weight_distribution() == tuple(tally)


def test_defining_set_code_spans_basis_traces():
    rng = random.Random(75)
    for m in range(1, 8):
        field = BinaryField(m)
        for _ in range(4):
            elems = rng.sample(range(1, field.order), rng.randint(1, field.order - 1))
            code = defining_set_code(field, elems)
            assert list(code.words) == reference_defining_set_words(field, elems)
