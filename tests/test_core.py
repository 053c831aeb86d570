import random

import numpy as np
import pytest

from bidistance import core
from bidistance.core import (BidistanceDistribution, BidistancePair, Code,
                             ParseError, Word, bidistance_distribution,
                             dir_distances, format_code_text, multiset_repr,
                             parse_code_text, solve_directional_system,
                             weights_from_bidistance)
from helpers import (brute_distribution_counts, directional_pair,
                     random_generator_rows, span_code)


class TestWord:
    def test_string_round_trip(self):
        w = Word.from_string("110100")
        assert w.to_bits() == (1, 1, 0, 1, 0, 0)
        assert str(w) == "110100"
        assert w.weight == 3
        assert w.support() == (0, 1, 3)

    def test_from_bits(self):
        assert Word.from_bits([1, 0, 1]) == Word(3, 0b101)
        with pytest.raises(ValueError):
            Word.from_bits([1, 2, 0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            Word(0, 0)
        with pytest.raises(ValueError):
            Word(2, 4)

    def test_xor(self):
        assert Word.from_string("110") ^ Word.from_string("011") == Word.from_string("101")
        with pytest.raises(ValueError):
            Word(2, 0) ^ Word(3, 0)


class TestDirDistances:
    def test_nested_supports(self):
        x = Word.from_string("111000")
        y = Word.from_string("110000")
        assert dir_distances(x, y) == (1, 0)

    def test_identical(self):
        w = Word.from_string("1010")
        assert dir_distances(w, w) == (0, 0)

    def test_all_up_flips(self):
        assert dir_distances(Word.from_string("000"), Word.from_string("111")) == (0, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dir_distances(Word(2, 0), Word(3, 0))

    def test_antisymmetry_and_hamming(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(1, 30)
            x = Word(n, rng.getrandbits(n))
            y = Word(n, rng.getrandbits(n))
            d = dir_distances(x, y)
            assert d == dir_distances(y, x).swapped()
            assert d.hamming == (x.bits ^ y.bits).bit_count()
            assert d == directional_pair(x, y)


class TestCode:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Code(3, [1, 1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Code(2, [4])

    def test_linear_verified(self):
        span_code(4, [0b0011, 0b1100])  # fine
        with pytest.raises(ValueError):
            Code(3, [0, 1, 2], is_linear=True)

    def test_weight_distribution(self):
        code = Code.from_strings(["110", "000", "111"])
        assert code.weight_distribution() == (1, 0, 1, 1)

    def test_weight_distribution_counted_once(self):
        code = Code.from_strings(["110", "000", "111"])
        first = code.weight_distribution()
        assert code.weight_distribution() is first

    def test_membership_and_eq(self):
        code = Code.from_strings(["10", "01"])
        assert Word.from_string("10") in code
        assert code == Code.from_strings(["01", "10"])


class TestCodeFiles:
    def test_round_trip(self, tmp_path):
        code = Code.from_strings(["10110", "00000"])
        path = tmp_path / "c.code"
        code.to_file(path)
        assert Code.from_file(path) == code

    def test_comments_and_blanks(self):
        code = parse_code_text("# header\n\n101\n  011  \n")
        assert len(code) == 2

    def test_bad_symbol_reports_line(self):
        with pytest.raises(ParseError, match=":3:"):
            parse_code_text("101\n011\n01x\n")

    def test_length_mismatch_reports_line(self):
        with pytest.raises(ParseError, match=":2:"):
            parse_code_text("101\n0110\n")

    def test_empty_is_error(self):
        with pytest.raises(ParseError, match="no codewords"):
            parse_code_text("# nothing here\n")

    def test_duplicate_words(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_code_text("101\n101\n")

    def test_format(self):
        code = Code.from_strings(["01", "10"])
        assert format_code_text(code) == "01\n10\n"


class TestBidistanceDistribution:
    def test_example_multisets(self, c1, c2):
        assert multiset_repr(bidistance_distribution(c1)) == [
            ((0, 1), 1), ((1, 0), 1), ((1, 1), 2), ((1, 2), 1), ((2, 1), 1)]
        assert multiset_repr(bidistance_distribution(c2)) == [
            ((0, 1), 1), ((1, 0), 1), ((2, 3), 1), ((3, 2), 1), ((3, 3), 2)]

    def test_diagonal_stored(self, c1):
        dist = bidistance_distribution(c1)
        assert dist.frequency(0, 0) == 3
        assert (0, 0) in dist.entries
        assert all(key != (0, 0) for key, _ in dist.multiset())

    def test_singleton(self):
        dist = bidistance_distribution(Code.from_strings(["1010"]))
        assert dist.entries == {(0, 0): 1}
        assert dist.multiset() == []

    def test_mass_and_symmetry(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randrange(1, 12)
            size = rng.randrange(1, min(9, 1 << n) + 1)
            code = Code(n, rng.sample(range(1 << n), size))
            dist = bidistance_distribution(code)
            assert sum(dist.entries.values()) == size * size
            assert dist.frequency(0, 0) == size
            for (a, b), c in dist.entries.items():
                assert dist.frequency(b, a) == c

    def test_matches_brute_count_across_lanes(self):
        # lengths on both sides of each 64-bit lane boundary
        rng = random.Random(5)
        for n in (3, 17, 40, 63, 64, 65, 127, 128, 129, 200):
            edges = {0, (1 << n) - 1, 1 << (n - 1)}
            words = list(edges | {rng.getrandbits(n) for _ in range(12)})
            rng.shuffle(words)
            code = Code(n, words[:13])
            dist = bidistance_distribution(code)
            assert dist.entries == brute_distribution_counts(code)
            table = code.pair_table()
            marginal: dict[tuple[int, int], int] = {}
            for (_, a, b), c in table.items():
                marginal[a, b] = marginal.get((a, b), 0) + c
            assert marginal == dist.entries
            # the weight in each key is that of the row word x
            triples: dict[tuple[int, int, int], int] = {}
            for x in code:
                for y in code:
                    key = (x.weight,) + directional_pair(x, y)
                    triples[key] = triples.get(key, 0) + 1
            assert table == triples

    def test_pair_table_counted_once(self, c1, monkeypatch):
        calls = []
        count = core._pair_table
        monkeypatch.setattr(core, "_pair_table",
                            lambda n, words: calls.append(n) or count(n, words))
        first = c1.pair_table()
        assert bidistance_distribution(c1).entries == brute_distribution_counts(c1)
        assert c1.pair_table() == first and calls == [6]

    def test_pair_support_is_table_keys(self, c1):
        support = c1.pair_support()
        assert support.dtype == np.int64 and support.shape == (len(c1.pair_table()), 3)
        assert [tuple(key) for key in support.tolist()] == list(c1.pair_table())
        assert c1.pair_support() is support
        with pytest.raises(ValueError):
            support[0, 0] = 1

    def test_length_beyond_table_keys_rejected(self):
        code = Code(1 << 21, [0, 1])
        with pytest.raises(ValueError, match="below 2"):
            bidistance_distribution(code)
        assert bidistance_distribution(Code((1 << 21) - 1, [0, 1])).entries == \
            {(0, 0): 2, (0, 1): 1, (1, 0): 1}

    def test_matches_independent_count(self, c1):
        dist = bidistance_distribution(c1)
        assert dist.entries == brute_distribution_counts(c1)

    def test_json_shape(self, c1):
        doc = bidistance_distribution(c1).to_json_dict()
        assert doc["n"] == 6 and doc["size"] == 3
        keys = [(e["d10"], e["d01"]) for e in doc["entries"]]
        assert keys == sorted(keys)
        assert sum(e["count"] for e in doc["entries"]) == 9

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="asymmetric"):
            BidistanceDistribution(2, 2, {(0, 0): 2, (1, 0): 2})
        with pytest.raises(ValueError, match="size"):
            BidistanceDistribution(2, 2, {(0, 0): 1, (1, 1): 3})


class TestWeightsFromBidistance:
    def test_linear_codes_recover_weights(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randrange(2, 13)
            k = rng.randrange(1, min(n, 6) + 1)
            code = span_code(n, random_generator_rows(rng, n, k))
            assert weights_from_bidistance(bidistance_distribution(code)) \
                == code.weight_distribution()

    def test_singleton_zero(self):
        dist = bidistance_distribution(Code(4, [0]))
        assert weights_from_bidistance(dist) == (1, 0, 0, 0, 0)

    def test_nonlinear_detected(self):
        code = Code.from_strings(["10", "01", "11"])
        with pytest.raises(ValueError, match="not be linear"):
            weights_from_bidistance(bidistance_distribution(code))


class TestSolveDirectionalSystem:
    def test_equal_weights(self):
        assert solve_directional_system(12, 12, 12) == (6, 6)

    def test_same_word(self):
        assert solve_directional_system(5, 5, 0) == (0, 0)

    def test_realizable_triple(self):
        assert solve_directional_system(3, 4, 5) == (2, 3)
        # find an explicit realizing pair in F_2^7 and cross-check
        found = False
        for x in range(1 << 7):
            if x.bit_count() != 3:
                continue
            for y in range(1 << 7):
                if y.bit_count() == 4 and (x ^ y).bit_count() == 5:
                    assert dir_distances(Word(7, x), Word(7, y)) == (2, 3)
                    found = True
                    break
            if found:
                break
        assert found

    @pytest.mark.parametrize("triple", [(1, 1, 1), (0, 3, 1), (2, 2, 6)])
    def test_infeasible(self, triple):
        with pytest.raises(ValueError):
            solve_directional_system(*triple)

    def test_consistent_with_dir_distances(self):
        rng = random.Random(31)
        for _ in range(400):
            n = rng.randrange(1, 20)
            x = Word(n, rng.getrandbits(n))
            y = Word(n, rng.getrandbits(n))
            got = solve_directional_system(x.weight, y.weight, (x ^ y).weight)
            assert got == dir_distances(x, y)


def test_bidistance_pair_helpers():
    pair = BidistancePair(2, 5)
    assert pair.swapped() == (5, 2)
    assert pair.hamming == 7
