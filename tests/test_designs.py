import random
import tracemalloc

import numpy as np
import pytest

from bidistance._bitops import popcount, span_words
from bidistance.algebra import (GeneratorMatrix, coset_distribution_matrix, distinct_row_count,
                                dual_code, golay_code, trace_code_27_6)
from bidistance.core import Code, bidistance_distribution
from bidistance.designs import (DIFFERENCE_SETS, MEASURE_SIZE_CAP, IncidenceDesign,
                                SchemeParams, SrgParams, _walsh_hadamard, catalog_design,
                                dimension_from_weights, sbibd_ahb, sbibd_codes,
                                sbibd_from_difference_set,
                                scheme_from_three_weight, srg_from_two_weight,
                                three_weight_ahb, two_weight_ahb, verify_srg,
                                with_zero_word)
from helpers import (check_dict_form, random_code, random_generator_rows, reference_project,
                     reference_sbibd_words, reference_scheme, reference_srg,
                     reference_two_weight_ahb, rows_from_columns, span_code)

# [4,3] projective two-weight code: columns are the vectors with first bit set
AFFINE_COLUMNS = (0b001, 0b101, 0b011, 0b111)
# [5,3] projective three-weight code whose distance classes compose
SCHEME_COLUMNS = (1, 2, 3, 4, 5)
# three-weight [7,4] code whose dual coset matrix has five distinct rows
NON_SCHEME_COLUMNS = (1, 2, 3, 4, 5, 8, 9)


def _column_code(columns, k):
    return span_code(len(columns), rows_from_columns(columns, k))


#: the 16 x 16 rook's graph at distance 2: words e_a + e_(16 + b) of length 32
_ROOK = Code(32, [(1 << a) | (1 << (16 + b)) for a in range(16) for b in range(16)])
#: the linear functions on F_2^7 and then their complements, so that at
#: distance 64 the non-adjacent pairs are exactly the pairs (i, i + 128)
_LINEAR = [sum((a & x).bit_count() % 2 << x for x in range(128)) for a in range(128)]
_ANTIPODAL = Code(128, _LINEAR + [w ^ ((1 << 128) - 1) for w in _LINEAR])
#: a 200-cycle at distance 2: words e_i + e_(i + 1 mod 200)
_CYCLE = Code(200, [(1 << i) | (1 << (i + 1) % 200) for i in range(200)])


def _srg_outcome(check, code, w1):
    """The SrgParams a graph check returns, or the message it raises."""
    try:
        return check(code, w1)
    except ValueError as exc:
        return str(exc)


def _pair_counts(words, weights, x, z):
    """Third points y by (class of x ^ y, class of y ^ z), counted one by one."""
    classes = (0,) + tuple(weights)
    counts = [[0] * 4 for _ in range(4)]
    for y in words:
        counts[classes.index((x ^ y).bit_count())][classes.index((y ^ z).bit_count())] += 1
    return counts


class TestSrgFromTwoWeight:
    def test_trace_code_instance(self):
        assert srg_from_two_weight(27, 6, 12, 16) == SrgParams(64, 36, 20, 20)

    def test_affine_instance(self):
        assert srg_from_two_weight(4, 3, 2, 4) == SrgParams(8, 6, 4, 6)

    def test_valency_counts_smaller_weight(self):
        graph = srg_from_two_weight(27, 6, 12, 16)
        assert graph.k + 27 == graph.v - 1  # A_w2 = 27 here

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            srg_from_two_weight(10, 3, 2, 5)
        with pytest.raises(ValueError):
            srg_from_two_weight(5, 2, 4, 3)

    def test_feasibility_enforced(self):
        with pytest.raises(ValueError):
            SrgParams(10, 3, 0, 2)

    def test_complement(self):
        graph = srg_from_two_weight(4, 3, 2, 4)
        assert graph.complement == SrgParams(8, 1, 0, 0)


class TestDimensionFromWeights:
    def test_trace_code_instance(self):
        assert dimension_from_weights(27, 12, 16) == 6

    def test_not_power_of_two(self):
        assert dimension_from_weights(9, 2, 4) is None

    def test_precondition(self):
        with pytest.raises(ValueError):
            dimension_from_weights(10, 4, 8)

    def test_agrees_with_graph_order(self):
        k = dimension_from_weights(27, 12, 16)
        assert 1 << k == srg_from_two_weight(27, k, 12, 16).v


class TestVerifySrg:
    def test_affine_code_measured(self):
        code = _column_code(AFFINE_COLUMNS, 3)
        assert verify_srg(code, 2) == SrgParams(8, 6, 4, 6)

    def test_matches_closed_form(self):
        code = _column_code(AFFINE_COLUMNS, 3)
        assert verify_srg(code, 2) == srg_from_two_weight(4, 3, 2, 4)

    def test_rejects_non_srg(self):
        code = Code(4, [0b0001, 0b0010, 0b0100, 0b1111])
        with pytest.raises(ValueError, match="not strongly regular"):
            verify_srg(code, 2)

    @pytest.mark.parametrize("code, w1, expected", [
        (_column_code(AFFINE_COLUMNS, 3), 2, SrgParams(8, 6, 4, 6)),
        (trace_code_27_6(), 12, SrgParams(64, 36, 20, 20)),
        (Code(4, [0b0001, 0b0010, 0b0100, 0b1111]), 2, "not regular"),
        (Code(3, range(8)), 1, "counts vary"),
        (Code(5, [1 << i | j << 3 for i in range(3) for j in (0, 3)]), 2, "counts vary"),
        (Code(4, [0b0000, 0b0011, 0b1100, 0b1111]), 3, "empty or complete"),
        (Code(4, [0b0000, 0b0011, 0b1100, 0b1111]), 0, "empty or complete"),
        (Code(5, [1, 2, 4, 8, 16]), 2, "empty or complete"),
        (Code(4, [0b0000, 0b0011, 0b1100, 0b1111]), 4, "disconnected"),
        # more than 128 vertices: several tiles, and tiles past the last full one
        (_ROOK, 2, SrgParams(256, 30, 14, 2)),
        (_ANTIPODAL, 64, SrgParams(256, 254, 252, 254)),
        (_ROOK, 4, SrgParams(256, 225, 196, 210)),
        (_CYCLE, 2, "counts vary"),
        (Code(8, range(256)), 1, "counts vary"),
        (Code(9, range(0, 512, 3)), 3, "not regular"),
    ], ids=["srg", "trace_27_6", "irregular", "regular_not_srg", "prism_lambda_varies",
            "empty", "w1_zero", "complete", "disconnected", "rook", "cocktail_party",
            "rook_complement", "cycle_200", "cube_8", "irregular_171"])
    def test_named_graphs_match_reference(self, code, w1, expected):
        got = _srg_outcome(verify_srg, code, w1)
        assert got == _srg_outcome(reference_srg, code, w1)
        assert got == expected if isinstance(expected, SrgParams) else expected in got

    def test_random_codes_match_reference(self):
        # random sets and random linear spans, at every distance and one
        # that no pair realizes
        rng = random.Random(1301)
        seen = set()
        for _ in range(60):
            n = rng.randint(2, 7)
            if rng.random() < 0.5:
                code = random_code(rng, n, rng.randint(1, min(12, 1 << n)))
            else:
                code = span_code(n, random_generator_rows(rng, n, rng.randint(1, n)))
            for w1 in range(n + 2):
                got = _srg_outcome(verify_srg, code, w1)
                assert got == _srg_outcome(reference_srg, code, w1), (code.words, w1)
                seen.add(type(got).__name__ if isinstance(got, SrgParams) else got)
        assert len(seen) == 5

    @pytest.mark.parametrize("check", [verify_srg, scheme_from_three_weight])
    def test_code_over_cap_refused_before_allocating(self, check):
        code = Code(13, range(MEASURE_SIZE_CAP + 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"capped at {MEASURE_SIZE_CAP}"):
                check(code, 1) if check is verify_srg else check(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the v x v adjacency table alone would take 16 MiB
        assert peak < 1 << 20


class TestTwoWeightAhb:
    def test_affine_closed_form_equals_brute_force(self):
        code = _column_code(AFFINE_COLUMNS, 3)
        closed = two_weight_ahb(4, 3, 2, 4, 6, 1)
        punctured = Code(4, [w for w in code.words if w])
        assert closed == bidistance_distribution(punctured)

    def test_trace_code_closed_form(self):
        closed = two_weight_ahb(27, 6, 12, 16, 36, 27)
        assert closed.off_diagonal() == {
            (6, 6): 1152, (8, 8): 810, (4, 8): 540, (8, 4): 540,
            (6, 10): 432, (10, 6): 432}
        assert sum(closed.off_diagonal().values()) == 63 * 62

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            two_weight_ahb(27, 6, 12, 16, 35, 27)

    def test_matches_paper_rows_over_parameter_grid(self):
        # every n <= 30, k <= 6 and w1 < w2 <= n; where the graph exists, the
        # weight-w1 count at its valency and one off each side (elsewhere both
        # raise from the srg_from_two_weight call they share)
        def outcome(fn, *args):
            try:
                return fn(*args)
            except ValueError:
                return ValueError

        tables = set()
        for n in range(1, 31):
            for k in range(1, 7):
                for w1 in range(1, n):
                    for w2 in range(w1 + 1, n + 1):
                        try:
                            valency = srg_from_two_weight(n, k, w1, w2).k
                        except ValueError:
                            continue
                        for count in (valency - 1, valency, valency + 1):
                            args = (n, k, w1, w2, count, (1 << k) - 1 - count)
                            got = outcome(two_weight_ahb, *args)
                            assert got == outcome(reference_two_weight_ahb, *args), args
                            if got is not ValueError:
                                tables.add(args)
        assert {(4, 3, 2, 4, 6, 1), (27, 6, 12, 16, 36, 27)} <= tables


class TestScheme:
    def test_intersection_numbers_measured(self):
        code = _column_code(SCHEME_COLUMNS, 3)
        scheme = scheme_from_three_weight(code)
        assert scheme.valences == (2, 4, 1)
        v = (1,) + scheme.valences
        for k in range(4):
            for i in range(4):
                assert sum(scheme.p[k][i]) == v[i]

    def test_all_pairs_match_brute_force_count(self):
        code = _column_code(SCHEME_COLUMNS, 3)
        scheme = scheme_from_three_weight(code)
        weights = (2, 3, 4)
        for x in code.words:
            for z in code.words:
                k = (0,) + weights
                got = _pair_counts(code.words, weights, x, z)
                assert got == [list(r) for r in scheme.p[k.index((x ^ z).bit_count())]]

    def test_golay_dual_blocks_match_brute_force_count(self):
        code = dual_code(golay_code()).codewords()
        weights = (8, 12, 16)
        scheme = scheme_from_three_weight(code)
        rng = np.random.default_rng(81)
        for x, z in rng.choice(code.words, size=(6, 2)).tolist():
            k = (0,) + weights
            got = _pair_counts(code.words, weights, x, z)
            assert got == [list(r) for r in scheme.p[k.index((x ^ z).bit_count())]]

    def test_closed_form_equals_brute_force(self):
        code = _column_code(SCHEME_COLUMNS, 3)
        scheme = scheme_from_three_weight(code)
        closed = three_weight_ahb(5, (2, 3, 4), scheme)
        punctured = Code(5, [w for w in code.words if w])
        assert closed == bidistance_distribution(punctured)

    def test_negative_intersection_number_rejected(self):
        scheme = scheme_from_three_weight(_column_code(SCHEME_COLUMNS, 3))
        # row sums and symmetry still hold, with p[1][1][1] = -1
        p = [[list(row) for row in plane] for plane in scheme.p]
        p[1][1], p[1][2] = [1, -1, 1, 1], [0, 1, 3, 0]
        with pytest.raises(ValueError, match="negative frequency -2"):
            three_weight_ahb(5, (2, 3, 4), SchemeParams(scheme.valences, p))

    def test_adjacency_matrix_identity(self):
        # D_i D_j == sum_k p[k][i][j] D_k over the full point set
        code = _column_code(SCHEME_COLUMNS, 3)
        scheme = scheme_from_three_weight(code)
        weights = (0, 2, 3, 4)
        words = sorted(code.words)
        size = len(words)
        mats = [np.zeros((size, size), dtype=int) for _ in range(4)]
        for a, x in enumerate(words):
            for b, y in enumerate(words):
                mats[weights.index((x ^ y).bit_count())][a, b] = 1
        for i in range(4):
            for j in range(4):
                lhs = mats[i] @ mats[j]
                rhs = sum(scheme.p[k][i][j] * mats[k] for k in range(4))
                assert (lhs == rhs).all()

    def test_rejects_failed_composition_condition(self):
        code = _column_code(NON_SCHEME_COLUMNS, 4)
        assert len({w.bit_count() for w in code.words if w}) == 3
        with pytest.raises(ValueError, match="distinct"):
            scheme_from_three_weight(code)

    def test_rejects_wrong_weight_count(self):
        code = _column_code(AFFINE_COLUMNS, 3)
        with pytest.raises(ValueError, match="three nonzero weights"):
            scheme_from_three_weight(code)

    def test_rejects_nonlinear(self):
        with pytest.raises(ValueError, match="subspace"):
            scheme_from_three_weight(Code(4, [0, 1, 2]))

    def test_rejects_full_space(self):
        # the transforms alone would return the Hamming scheme of F_2^3
        with pytest.raises(ValueError, match="^the dual of the full space is the zero code$"):
            scheme_from_three_weight(Code(3, range(8)))


def _scheme_outcome(check, code, *args):
    try:
        return check(code, *args)
    except ValueError as exc:
        return str(exc)


def _random_linear_code(rng, n, k):
    return span_code(n, random_generator_rows(rng, n, k))


class TestSchemeTransform:
    """The Walsh-Hadamard measurement against the coset table and pair kernel
    it replaced (``reference_scheme``)."""

    def test_transform_matches_hadamard_matrix(self):
        # on C-order, F-order and strided int64 input alike
        rng = np.random.default_rng(91)
        for k in range(7):
            index = np.arange(1 << k)
            signs = 1 - 2 * (np.bitwise_count(index[:, None] & index) % 2).astype(np.int64)
            wide = rng.integers(-9, 9, size=(2 << k, 6))
            for a in (wide[::2, :3].copy(), np.asfortranarray(wide[::2, :3]), wide[::2, ::2]):
                assert np.array_equal(_walsh_hadamard(a), signs @ a)
                assert np.array_equal(_walsh_hadamard(_walsh_hadamard(a)), a << k)

    @pytest.mark.parametrize("name", ["columns", "golay-dual", "golay-dual-from-words"])
    def test_matches_oracle_on_shipped_codes(self, name):
        code = (_column_code(SCHEME_COLUMNS, 3) if name == "columns"
                else dual_code(golay_code()).codewords())
        if name == "golay-dual-from-words":
            code = Code(code.n, code.words)  # no kept basis
        assert scheme_from_three_weight(code) == reference_scheme(code, 0)

    def test_matches_oracle_on_random_three_weight_codes(self):
        rng = random.Random(1901)
        schemes = 0
        while schemes < 40:
            n = rng.randint(4, 11)
            code = _random_linear_code(rng, n, rng.randint(2, min(n - 1, 7)))
            if sum(1 for c in code.weight_distribution()[1:] if c) != 3:
                continue
            got = _scheme_outcome(scheme_from_three_weight, code)
            assert got == _scheme_outcome(reference_scheme, code, 0), code.words
            schemes += not isinstance(got, str)

    def test_same_errors_as_oracle(self):
        rng = random.Random(1902)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 9)
            kind = rng.randrange(4)
            if kind == 0:
                code = _random_linear_code(rng, n, rng.randint(1, n))
            elif kind == 1:
                code = span_code(n, [1 << i for i in range(n)])
            elif kind == 2:
                code = random_code(rng, n, rng.randint(1, min(12, 1 << n)))
            else:
                code = Code(n, [0])
            rng.randrange(4)  # a spare draw keeps this seed's 400 codes, three not schemes
            got = _scheme_outcome(scheme_from_three_weight, code)
            assert got == _scheme_outcome(reference_scheme, code, 0), code.words
            if isinstance(got, str):
                seen.add(got.split(",")[0].split(":")[0].rstrip("0123456789 "))
        assert seen >= {"codewords do not form a linear subspace",
                        "need exactly three nonzero weights", "at least one row is required",
                        "the dual of the full space is the zero code",
                        "not an association scheme"}

    def test_long_code_past_the_coset_table_caps(self):
        # F_2^3 with every coordinate repeated 30 times: n - k = 87 is past the
        # coset table's int64 cap, which the transforms never build
        code = Code(90, [sum(((t >> (i // 30)) & 1) << i for i in range(90)) for t in range(8)])
        scheme = scheme_from_three_weight(code)
        for x in code.words:
            for z in code.words:
                got = _pair_counts(code.words, (30, 60, 90), x, z)
                assert got == [list(r) for r in scheme.p[(x ^ z).bit_count() // 30]]

    def test_distinct_transform_rows_are_dual_coset_rows(self):
        # the transform of the weight-class indicators has as many distinct
        # rows as the dual's coset weight matrix, for any number of weights
        rng = random.Random(1903)
        for _ in range(120):
            n = rng.randint(2, 14)
            g = GeneratorMatrix(n, tuple(random_generator_rows(rng, n, rng.randint(1, n - 1))))
            weights = popcount(span_words(g.rows, n)).sum(axis=1)
            indicators = np.equal.outer(weights, np.unique(weights)).astype(np.int64)
            got = distinct_row_count(_walsh_hadamard(indicators))
            assert got == distinct_row_count(coset_distribution_matrix(dual_code(g))), g.rows


class TestDifferenceSets:
    def test_fano(self):
        design = sbibd_from_difference_set(7, (1, 2, 4))
        assert (design.v, design.k, design.lam) == (7, 3, 1)

    def test_biplane(self):
        design = sbibd_from_difference_set(11, (1, 3, 4, 5, 9))
        assert (design.v, design.k, design.lam) == (11, 5, 2)

    def test_not_a_difference_set(self):
        with pytest.raises(ValueError, match="not a difference set"):
            sbibd_from_difference_set(7, (1, 2, 3))

    def test_catalog_loads_and_verifies(self):
        for (v, k, lam) in DIFFERENCE_SETS:
            design = catalog_design(v, k, lam)
            assert len(design.blocks) == v  # symmetric: block count equals v

    def test_unknown_catalog_entry(self):
        with pytest.raises(ValueError, match="no catalog design"):
            catalog_design(9, 3, 1)


class TestIncidenceDesign:
    def test_block_intersections(self):
        # distinct blocks meet in lam points, and in k - lam complement points
        for (v, k, lam) in DIFFERENCE_SETS:
            design = catalog_design(v, k, lam)
            blocks = [set(b) for b in design.blocks]
            full = set(range(1, v + 1))
            for i, block in enumerate(blocks):
                for j, other in enumerate(blocks):
                    if i == j:
                        continue
                    assert len(block & other) == lam
                    assert len(block & (full - other)) == k - lam

    def test_complement_design(self):
        for (v, k, lam) in DIFFERENCE_SETS:
            comp = catalog_design(v, k, lam).complement()
            assert (comp.v, comp.k, comp.lam) == (v, v - k, v - 2 * k + lam)

    def test_bad_designs_rejected(self):
        with pytest.raises(ValueError, match="blocks"):
            IncidenceDesign(3, 2, 1, ((1, 2),))
        with pytest.raises(ValueError, match="coverage"):
            IncidenceDesign(4, 2, 1, ((1, 2), (2, 3), (3, 4), (1, 4)))

    @pytest.mark.parametrize("blocks, message", [
        (((1, 2), (2, 3), (1, 1, 3)), "k distinct points"),
        (((1, 2), (2, 3), (3, 4)), "1..v"),
        (((1, 2), (1, 3), (1, 2, 3)), "k distinct points"),
        (((1, 2), (1, 3), (3, 1, 1)), "k distinct points"),
    ])
    def test_block_checks_come_first(self, blocks, message):
        with pytest.raises(ValueError, match=message):
            IncidenceDesign(3, 2, 1, blocks)

    def test_replication_and_coverage(self):
        # the Fano plane with its last block (1, 2, 4) replaced by (1, 2, 5):
        # distinct 3-sets, but point 4 lies on 2 blocks and point 5 on 4
        fano = catalog_design(7, 3, 1).blocks
        with pytest.raises(ValueError, match="replication"):
            IncidenceDesign(7, 3, 1, fano[:-1] + ((1, 2, 5),))
        with pytest.raises(ValueError, match="coverage"):
            IncidenceDesign(4, 3, 1, ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))
        consecutive = tuple(tuple(sorted((d + s) % 7 + 1 for d in (0, 1, 2)))
                            for s in range(7))  # replication 3, but (1, 4) uncovered
        with pytest.raises(ValueError, match="coverage"):
            IncidenceDesign(7, 3, 1, consecutive)


def _perturbed(design, kind):
    """The shipped design's blocks with one fault of the given kind."""
    blocks = [tuple(b) for b in design.blocks]
    first = blocks[0]
    point = first[0]
    outside = next(x for x in range(1, design.v + 1) if x not in first)
    if kind == "block size":
        blocks[2] = blocks[2][:-1]
    elif kind == "repeated point":
        blocks[3] = blocks[3][:1] + blocks[3][:-1]
    elif kind == "duplicate block":
        blocks[4] = first
    elif kind == "point outside":
        blocks[1] = blocks[1][:-1] + (design.v + 1,)
    elif kind == "swap":  # one point moves out of block 0: replication breaks
        blocks[0] = tuple(outside if x == point else x for x in first)
    else:  # two blocks trade points: replication holds, coverage breaks
        j = next(j for j, b in enumerate(blocks) if point not in b and set(b) - set(first))
        other = next(x for x in blocks[j] if x not in first)
        blocks[0] = tuple(other if x == point else x for x in first)
        blocks[j] = tuple(point if x == other else x for x in blocks[j])
    return tuple(blocks)


@pytest.mark.parametrize("kind, message", [
    ("block size", "every block must hold k distinct points"),
    ("repeated point", "every block must hold k distinct points"),
    ("duplicate block", "duplicate blocks"),
    ("point outside", "points must lie in 1..v"),
    ("swap", "replication number differs from k"),
    ("exchange", "pair coverage is not constant at lam={lam}"),
])
@pytest.mark.parametrize("params", sorted(DIFFERENCE_SETS))
def test_perturbed_design_refused_with_its_message(params, kind, message):
    # each single fault in a shipped design names its rule, in the words the
    # per-element checks used before the checks moved to the block array
    design = catalog_design(*params)
    with pytest.raises(ValueError) as exc:
        IncidenceDesign(*params, _perturbed(design, kind))
    assert str(exc.value) == message.format(lam=design.lam)


class TestSbibdCodes:
    def test_fano_family_shapes(self):
        design = catalog_design(7, 3, 1)
        fam1 = sbibd_codes(design, 1)
        assert fam1.n == 7 and len(fam1) == 7
        assert all(w.weight == 3 for w in fam1)
        fam2 = sbibd_codes(design, 2)
        assert len(fam2) == 14
        fam3 = sbibd_codes(design, 3)
        assert fam3.n == 8 and len(fam3) == 14
        assert {w.weight for w in fam3} == {4}  # k + 1 == v - k for the Fano plane
        fam4 = sbibd_codes(design, 4)
        assert fam4.n == 6 and len(fam4) == 7

    def test_puncture_point_choices(self):
        design = catalog_design(7, 3, 1)
        for anchor in range(1, 8):
            code = sbibd_codes(design, 4, puncture_point=anchor)
            dist = bidistance_distribution(code)
            assert dist.off_diagonal() == {(2, 2): 18, (1, 2): 12, (2, 1): 12}

    def test_words_match_support_masks(self):
        for (v, k, lam) in sorted(DIFFERENCE_SETS):
            design = catalog_design(v, k, lam)
            for family in (1, 2, 3):
                assert list(sbibd_codes(design, family).words) == \
                    reference_sbibd_words(design, family)
            for anchor in range(1, v + 1):
                assert list(sbibd_codes(design, 4, anchor).words) == \
                    reference_sbibd_words(design, 4, anchor)

    def test_rejects_small_v(self):
        squeezed = catalog_design(7, 3, 1).complement()  # (7, 4, 2): v < 2k
        with pytest.raises(ValueError, match="2k"):
            sbibd_codes(squeezed, 1)

    def test_rejects_bad_family(self):
        with pytest.raises(ValueError, match="family"):
            sbibd_codes(catalog_design(7, 3, 1), 5)


class TestSbibdAhb:
    def test_fano_family1(self):
        assert sbibd_ahb(7, 3, 1, 1).off_diagonal() == {(2, 2): 42}

    def test_fano_family4(self):
        assert sbibd_ahb(7, 3, 1, 4).off_diagonal() == {
            (2, 2): 18, (1, 2): 12, (2, 1): 12}

    def test_closed_form_equals_brute_force_everywhere(self):
        for (v, k, lam) in sorted(DIFFERENCE_SETS):
            design = catalog_design(v, k, lam)
            for family in (1, 2, 3, 4):
                code = sbibd_codes(design, family)
                assert sbibd_ahb(v, k, lam, family) == bidistance_distribution(code), \
                    (v, k, lam, family)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sbibd_ahb(7, 3, 2, 1)   # lam(v-1) != k(k-1)
        with pytest.raises(ValueError):
            sbibd_ahb(7, 4, 2, 1)   # v < 2k


#: the SCHEME_COLUMNS code's scheme, valences (2, 4, 1), with its planes as lists
_SCHEME_P = [[[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 4, 0], [0, 0, 0, 1]],
             [[0, 1, 0, 0], [1, 0, 0, 1], [0, 0, 4, 0], [0, 1, 0, 0]],
             [[0, 0, 1, 0], [0, 0, 2, 0], [1, 2, 0, 1], [0, 0, 1, 0]],
             [[0, 0, 0, 1], [0, 2, 0, 0], [0, 0, 4, 0], [1, 0, 0, 0]]]


def _scheme_with(k, i, row):
    p = [[list(r) for r in plane] for plane in _SCHEME_P]
    p[k][i] = row
    return p


@pytest.mark.parametrize("call, message", [
    (lambda: SchemeParams((2, 4, 1), _scheme_with(0, 0, [1, 1, 0, 0])),
     r"row-sum identity fails at k=0, i=0"),
    (lambda: SchemeParams((2, 4, 1), _scheme_with(1, 0, [1, 0, 0, 0])),
     "intersection numbers are not symmetric"),
    (lambda: SchemeParams((2, 4, 1), [[[1, 0, 0, 0], [0, 0, 2, 0], [0, 2, 2, 0], [0, 0, 0, 1]],
                                      *_SCHEME_P[1:]]),
     r"p\[0\]\[i\]\[i\] must equal the valence"),
    (lambda: three_weight_ahb(5, (2, 3), SchemeParams((2, 4, 1), _SCHEME_P)),
     "weights must be three increasing values"),
    (lambda: three_weight_ahb(5, (3, 2, 4), SchemeParams((2, 4, 1), _SCHEME_P)),
     "weights must be three increasing values"),
    (lambda: three_weight_ahb(5, (2, 3, 6), SchemeParams((2, 4, 1), _SCHEME_P)),
     "weights must be three increasing values"),
    (lambda: IncidenceDesign(3, 1, 0, ((1,), (2,), (3,))), "need 2 <= k < v"),
    (lambda: IncidenceDesign(3, 3, 3, ((1, 2, 3),) * 3), "need 2 <= k < v"),
    (lambda: sbibd_from_difference_set(8, (0, 1, 2)),
     r"not a difference set: k\(k-1\) = 6 is not divisible by v - 1 = 7"),
    (lambda: sbibd_codes(catalog_design(7, 3, 1), 4, puncture_point=0),
     r"puncture point must lie in 1\.\.7"),
    (lambda: sbibd_codes(catalog_design(7, 3, 1), 4, puncture_point=8),
     r"puncture point must lie in 1\.\.7"),
    (lambda: sbibd_ahb(7, 3, 0, 1), "invalid design parameters"),
    (lambda: sbibd_ahb(7, 1, 1, 1), "invalid design parameters"),
    (lambda: sbibd_ahb(7, 3, 1, 5), "family must be 1, 2, 3, or 4"),
], ids=["scheme row sum", "scheme asymmetric", "scheme p0ii", "two weights",
        "weights unordered", "weight past n", "design k < 2", "design k = v",
        "k(k-1) not divisible", "puncture 0", "puncture past v", "sbibd lam < 1",
        "sbibd k < 2", "sbibd family 5"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_closed_forms_match_dict_form():
    # every closed form, built from its rows by the validating constructor, equals
    # the dict projection of the code it describes in arrays, entries, JSON bytes
    # and AHB reports: all four families of every catalog design, and the two- and
    # three-weight forms with and without the zero word
    cases = []
    for (v, k, lam) in sorted(DIFFERENCE_SETS):
        design = catalog_design(v, k, lam)
        cases += [(sbibd_ahb(v, k, lam, family), sbibd_codes(design, family))
                  for family in (1, 2, 3, 4)]
    scheme_code = _column_code(SCHEME_COLUMNS, 3)
    for code, closed in (
            (_column_code(AFFINE_COLUMNS, 3), two_weight_ahb(4, 3, 2, 4, 6, 1)),
            (trace_code_27_6(), two_weight_ahb(27, 6, 12, 16, 36, 27)),
            (scheme_code, three_weight_ahb(5, (2, 3, 4), scheme_from_three_weight(scheme_code)))):
        cases.append((closed, Code(code.n, [w for w in code.words if w])))
        cases.append((with_zero_word(closed, code.weight_distribution()), code))
    assert len(cases) == 26
    for closed, code in cases:
        check_dict_form(closed, reference_project(code.pair_support()[:, 1:], code.pair_counts()))
        assert (closed.n, closed.size) == (code.n, len(code))
