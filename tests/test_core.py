import builtins
import copy
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidistance
from bidistance import core
from bidistance import _bitops, bounds, channel, designs
from bidistance._bitops import BLOCK_CELLS, MAX_LENGTH, AndCounts, CapExceeded, bit_matrix
from bidistance.bounds import ahb_union_bound, discrepancy_bound, symmetric_discrepancy_bound
from bidistance.core import (BidistanceDistribution, BidistancePair, Code,
                             ParseError, Word, bidistance_distribution,
                             dir_distances, format_code_text, multiset_repr,
                             parse_code_text, solve_directional_system,
                             weights_from_bidistance)
from helpers import (EDGE_LENGTHS, brute_distribution_counts, check_dict_form,
                     directional_pair, edge_code, random_generator_rows, reference_pair_table,
                     reference_from_bits, reference_parse_code_text, reference_project,
                     reference_row_ints, reference_support, reference_to_bits,
                     reference_word_text, span_code)

#: derandomized, with no example database, so every run draws the same cases
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

#: code-file lines: words, comments, blanks, Unicode spaces, a BOM, other digits
LINE_PIECES = ["101", "011", "110", "0110", "1", "0" * 70, "1" * 70, "#", "# 101", "", "  ",
               "\t101 ", "\u2003011", "\u3000110\u3000", "\xa0101", "\ufeff101",
               "\uff11\uff10\uff11", "1\u200b01", "01x", "\u0661\u0660\u0661", "10 1"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x85", "\u2028", "\x0b"]


@st.composite
def code_texts(draw):
    """A code file's text from LINE_PIECES and 3-bit words, each line ended by one
    of LINE_ENDS, the last line maybe unended."""
    lines = draw(st.lists(st.one_of(st.sampled_from(LINE_PIECES),
                                    st.text(alphabet="01", min_size=3, max_size=3)),
                          max_size=8))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends)) + draw(st.sampled_from(["", "101", "0110"]))


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

    def test_trailing_newline_refused(self):
        # the whole string must be 0/1 symbols; a final newline is not one
        for text in ("01\n", "01\r\n", "\n01"):
            with pytest.raises(ValueError, match="not a 0/1 string"):
                Word.from_string(text)

    def test_xor(self):
        assert Word.from_string("110") ^ Word.from_string("011") == Word.from_string("101")
        with pytest.raises(ValueError):
            Word(2, 0) ^ Word(3, 0)


class TestLinearBitConversions:
    """``row_ints`` and Word's bit conversions against the per-lane and per-bit loops
    they replaced, on both sides of each byte and lane edge."""

    @given(st.sampled_from([1, 2, 3, 17]), st.integers(1, 64), st.integers(0, 12),
           st.integers(0, 2 ** 32 - 1))
    @PROPERTY
    def test_row_ints_match_from_bytes(self, lanes, top, rows, seed):
        # the top lane uses ``top`` of its 64 bits
        n, rng = 64 * (lanes - 1) + top, random.Random(seed)
        words = [rng.getrandbits(n) for _ in range(rows)]
        packed = _bitops.packed_rows(words, n)
        assert _bitops.row_ints(packed) == reference_row_ints(packed) == words

    @pytest.mark.parametrize("lanes", [1, 2, 5])
    def test_row_ints_of_strided_rows(self, lanes):
        rng = random.Random(lanes)
        words = [rng.getrandbits(64 * lanes - 3) for _ in range(9)]
        packed = _bitops.packed_rows(words, 64 * lanes)
        wide = np.repeat(packed, 2, axis=1)  # each lane twice: [:, ::2] strides over lanes
        for rows, want in [(wide[:, ::2], words), (packed[::-2], words[::-2]),
                           (np.asfortranarray(packed), words), (packed.astype(">u8"), words)]:
            assert _bitops.row_ints(rows) == reference_row_ints(rows) == want

    @pytest.mark.parametrize("n", sorted({*EDGE_LENGTHS, 2, 127, 128, 192, 193, 255, 256, 300}))
    def test_word_bits_match_per_bit_loops(self, n):
        rng = random.Random(n)
        for bits in {0, 1, 1 << (n - 1), (1 << n) - 1, *(rng.getrandbits(n) for _ in range(6))}:
            w = Word(n, bits)
            assert w.to_bits() == reference_to_bits(w)
            assert w.support() == reference_support(w)
            assert {type(b) for b in w.to_bits() + w.support()} <= {int}
            assert Word.from_bits(w.to_bits()) == reference_from_bits(w.to_bits()) == w
            assert Word.from_bits(iter(map(bool, w.to_bits()))) == w

    @pytest.mark.parametrize("bits, error", [
        ([1, 2, 0], "symbols must be 0 or 1"), (["1"], "symbols must be 0 or 1"),
        ([0, -1], "symbols must be 0 or 1"), ([None], "symbols must be 0 or 1"),
        ([], "word length must be at least 1")])
    def test_from_bits_refusals_match_per_bit_loop(self, bits, error):
        for build in (Word.from_bits, reference_from_bits):
            with pytest.raises(ValueError, match=f"^{error}$"):
                build(bits)

    def test_from_bits_float_symbols_refused_like_per_bit_loop(self):
        # 1.0 == 1 passes the symbol check; neither builder takes a float as a bit
        for build in (Word.from_bits, reference_from_bits):
            with pytest.raises(TypeError):
                build([0.0, 1.0])

    def test_million_bit_rows_and_round_trip(self):
        # values only: a row's int, a code file's words and a to_bits round trip
        n, rng = 1_000_000, random.Random(46)
        words = [rng.getrandbits(n) | 1 << (n - 1), rng.getrandbits(n - 9)]
        assert _bitops.row_ints(_bitops.packed_rows(words, n)) == words
        code = parse_code_text("\n".join(str(Word(n, w)) for w in words))
        assert code.n == n and code.words == tuple(words)
        w = Word(n, words[0])
        bits = w.to_bits()
        assert len(bits) == n and bits[-1] == 1
        assert bits[:200] == reference_to_bits(Word(200, words[0] & ((1 << 200) - 1)))
        assert Word.from_bits(bits) == w
        assert w.support() == tuple(i for i, b in enumerate(bits) if b)


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

    def test_refuses_assignment(self, monkeypatch, params_ex1):
        # the public attributes are set once; the pair table the code keeps is
        # still built once, and a bound reads the code it was built from
        counted = []
        count = core._pair_table
        monkeypatch.setattr(core, "_pair_table",
                            lambda code: counted.append(code.n) or count(code))
        code = Code(4, [0b0001, 0b0110])
        before = discrepancy_bound(code, params_ex1)
        for name, value in (("n", 5), ("words", (1, 6, 15)), ("is_linear", True)):
            with pytest.raises(AttributeError):
                setattr(code, name, value)
            with pytest.raises(AttributeError):
                delattr(code, name)
        with pytest.raises(AttributeError):
            code.extra = 1
        assert (code.n, code.words, code.is_linear, len(code)) == (4, (1, 6), None, 2)
        assert discrepancy_bound(code, params_ex1) == before
        assert bidistance_distribution(code).entries == brute_distribution_counts(code)
        assert counted == [4]
        spanned = span_code(4, [0b0011, 0b0101])
        with pytest.raises(AttributeError):
            spanned.words = (0,)
        # so are the private ones: only the code itself writes the state it keeps
        pairs = code.pair_support(), code.pair_counts()
        for name in ("_pairs", "_packed", "_weights", "_members", "_bounds", "_basis"):
            with pytest.raises(AttributeError):
                setattr(code, name, None)
            with pytest.raises(AttributeError):
                delattr(code, name)
        with pytest.raises(AttributeError):
            code._pairs = pairs[0][:1], pairs[1][:1]
        assert code.pair_support() is pairs[0] and code.pair_counts() is pairs[1]
        assert code._basis is None

    def test_kept_state_is_built_once(self, monkeypatch, params_ex1):
        # the packed rows, the pair table, the weights, the member set, the entries,
        # and the CR and AHB plans are each built on first use; later calls read the
        # kept value
        builds = []
        for module, name in ((core, "packed_rows"), (core, "_pair_table"), (core, "popcount"),
                             (core, "frozenset"), (core, "MappingProxyType"),
                             (bounds, "_class_plan"), (bounds, "_TailPlan")):
            build = getattr(module, name, None) or getattr(builtins, name)
            monkeypatch.setattr(module, name,
                                lambda *a, name=name, build=build: builds.append(name) or build(*a),
                                raising=False)
        code = Code(4, [0b0001, 0b0110, 0b1111])
        dist = bidistance_distribution(code)
        first = None
        for _ in range(3):
            kept = (code.packed(), code.pair_support(), code.pair_counts(),
                    code.weight_distribution(), dist.entries, Word(4, 6) in code,
                    discrepancy_bound(code, params_ex1),
                    symmetric_discrepancy_bound(code, params_ex1),
                    ahb_union_bound(dist, params_ex1))
            first = first or kept
            assert all(a is b for a, b in zip(kept[:5], first)) and kept[5:] == first[5:]
        assert kept[5] and 0b0110 in code and 0b0111 not in code
        assert sorted(builds) == ["MappingProxyType", "_TailPlan", "_TailPlan", "_class_plan",
                                  "_pair_table", "frozenset", "packed_rows", "popcount"]

    def test_packed_rows_refuse_writes(self):
        # parsed, spanned and plain codes alike: a write to the kept rows would leave
        # the kept weights or pair table disagreeing with ``words``
        for code in (parse_code_text("0110\n1010\n1111\n"),
                     bidistance.GeneratorMatrix(4, (0b0011, 0b0101)).codewords(),
                     Code(4, [6, 5, 15])):
            p = code.packed()
            with pytest.raises(ValueError):
                p[0, 0] ^= 1
            with pytest.raises(ValueError):
                p.flags.writeable = True
            assert code.packed() is p and code.weight_distribution() == \
                tuple(np.bincount([w.bit_count() for w in code.words], minlength=5).tolist())

    def test_kept_arrays_cannot_be_made_writeable(self, c1):
        # each array sits on an immutable buffer, and so does any array it views
        arrays = [c1.pair_support(), c1.pair_counts()]
        for dist in (bidistance_distribution(c1), designs.sbibd_ahb(7, 3, 1, 4),
                     BidistanceDistribution(1, 1, {(0, 0): 1})):
            arrays += [dist.pairs, dist.counts]
        for a in arrays:
            for owner in (a, a.base):
                if isinstance(owner, np.ndarray):
                    with pytest.raises(ValueError):
                        owner.flags.writeable = True
        assert all(not a.flags.writeable for a in arrays)

    def test_copies_rebuild_through_the_constructor(self, c1):
        # a copy or a pickle is built again by the constructor: equal, with no kept
        # state carried over, and arrays that still refuse to be made writeable
        spanned = span_code(4, [0b0011, 0b0101])
        dists = [bidistance_distribution(c1), designs.sbibd_ahb(7, 3, 1, 4)]
        for obj in (c1, spanned, *dists):
            if isinstance(obj, Code):
                obj.pair_support(), obj.weight_distribution()
            else:
                obj.entries
            for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert twin == obj and twin is not obj and type(twin) is type(obj)
                if isinstance(obj, Code):
                    assert not {"_pairs", "_weights"} & set(vars(twin))
                    assert (twin.n, twin.words, twin.is_linear) == (obj.n, obj.words, obj.is_linear)
                    arrays = twin.pair_support(), twin.pair_counts()
                else:
                    assert twin.to_json_dict() == obj.to_json_dict()
                    arrays = twin.pairs, twin.counts
                for a in arrays:
                    with pytest.raises(ValueError):
                        a.flags.writeable = True

    def test_membership_and_eq(self):
        code = Code.from_strings(["10", "01"])
        assert Word.from_string("10") in code
        assert code == Code.from_strings(["01", "10"])

    def test_membership_checks_the_word_length(self):
        # a word of another length is not in the code, whatever its bits
        code = Code(4, [1, 2])
        assert Word(4, 1) in code and 1 in code
        assert Word(5, 1) not in code and Word(3, 2) not in code


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

    @pytest.mark.parametrize("n", [1, 8, 70, 11000])
    def test_format_round_trip(self, n):
        rng = random.Random(n)
        words = list({0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(6)})
        code = Code(n, words)
        text = format_code_text(code)
        assert text == "".join(reference_word_text(w) + "\n" for w in code)
        assert [str(w) for w in code] == text.splitlines()
        assert parse_code_text(text).words == code.words


    @PROPERTY
    @given(code_texts())
    def test_parser_matches_line_by_line_oracle(self, text):
        # the same words, or the same error naming the same line
        try:
            want = reference_parse_code_text(text, "f")
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_code_text(text, "f")
            assert str(got.value) == str(exc)
            return
        code = parse_code_text(text, "f")
        assert (code.n, code.words) == (want.n, want.words)
        kept = code.packed()
        assert kept.dtype == want.packed().dtype and kept.tolist() == want.packed().tolist()


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

    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    def test_bit_matrix_and_pair_table_at_byte_and_lane_edges(self, n):
        code = edge_code(random.Random(n), n)
        bits = bit_matrix(code.words, n)
        assert bits.dtype == np.uint8 and bits.shape == (len(code), n)
        assert [tuple(row) for row in bits.tolist()] == [x.to_bits() for x in code]
        assert code.pair_table() == self.brute_triples(code)
        self.check_kernel(code)

    def test_pair_table_counted_once(self, c1, monkeypatch):
        calls = []
        count = core._pair_table
        monkeypatch.setattr(core, "_pair_table",
                            lambda code: calls.append(code.n) or count(code))
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

    def test_length_two_to_the_21_counted(self):
        # the pair table's indices stay below (n + 1)**2, so AndCounts' MAX_LENGTH
        # is its only length limit
        assert bidistance_distribution(Code(1 << 21, [0, 1])).entries == \
            {(0, 0): 2, (0, 1): 1, (1, 0): 1}

    @staticmethod
    def brute_triples(code):
        triples: dict[tuple[int, int, int], int] = {}
        for x in code:
            for y in code:
                key = (x.weight,) + directional_pair(x, y)
                triples[key] = triples.get(key, 0) + 1
        return triples

    def check_kernel(self, code):
        keys, counts = core._pair_table(code)
        assert keys.dtype == counts.dtype == np.int64 and keys.shape == (len(counts), 3)
        assert not keys.flags.writeable and not counts.flags.writeable
        assert len({tuple(k) for k in keys.tolist()}) == len(keys)
        assert dict(zip(map(tuple, keys.tolist()), counts.tolist())) == \
            self.brute_triples(code)

    def test_kernel_one_weight_class_over_several_blocks(self):
        # 200 words of weight 6: the class has more rows than one block holds
        words = [w for w in range(1 << 12) if w.bit_count() == 6]
        code = Code(12, random.Random(3).sample(words, 200))
        assert len(code) > BLOCK_CELLS // len(code)
        self.check_kernel(code)

    def test_kernel_all_weights_distinct(self):
        rng = random.Random(4)
        n = 20
        words = [sum(1 << i for i in rng.sample(range(n), w)) for w in range(n + 1)]
        rng.shuffle(words)
        self.check_kernel(Code(n, words))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 200), st.integers(1, 200), st.booleans(),
           st.randoms(use_true_random=False))
    def test_kernel_matches_per_class_oracle(self, n, size, one_class, rng):
        # one decode of every class's cells equals a decode per class: the same
        # keys in the same row order, the same counts and dtypes
        weight = rng.randint(0, n)
        size = min(size, math.comb(n, weight) if one_class else 1 << n)
        words = set()
        while len(words) < size:
            words.add(sum(1 << i for i in rng.sample(range(n), weight)) if one_class
                      else rng.getrandbits(n))
        code = Code(n, words)
        want_keys, want_counts = reference_pair_table(code)
        keys, counts = core._pair_table(code)
        assert (keys.dtype, counts.dtype) == (want_keys.dtype, want_counts.dtype)
        assert keys.tolist() == want_keys.tolist()
        assert counts.tolist() == want_counts.tolist()

    def test_pair_kernels_unpack_the_kept_rows(self, monkeypatch, params_ex1):
        # the pair table, the decoding kernel and the graph check read the code's
        # kept packed rows; none packs the words again
        code = parse_code_text("0110\n1010\n1111\n0000\n")
        want = bit_matrix(code.words, code.n).tolist()
        packs = []
        packed_rows = _bitops.packed_rows
        monkeypatch.setattr(_bitops, "packed_rows", lambda *a: packs.append(1) or packed_rows(*a))
        assert AndCounts.of_code(code).bits.tolist() == want
        code.pair_support()
        channel.exact_error_probability(code, params_ex1)
        with pytest.raises(ValueError, match="not strongly regular"):
            designs.verify_srg(code, 2)
        assert packs == []

    def test_pair_kernel_refuses_long_codes_before_packing(self):
        code = Code(MAX_LENGTH, [0, 1])
        with pytest.raises(CapExceeded):
            AndCounts.of_code(code)
        assert "_packed" not in vars(code)

    def test_projection_sums_exactly_in_int64(self):
        # each count is 2^53 + 1, which a float64 sum would round; the code's
        # kept pair table is replaced, as the projection reads only that
        big = (1 << 53) + 1
        keys = np.array([[0, 1, 2], [1, 3, 4], [2, 1, 2], [3, 1, 2]], dtype=np.int64)
        code = Code(7, [0])
        vars(code)["_pairs"] = keys, np.full(4, big, dtype=np.int64)
        dist = bidistance_distribution(code)
        assert dist.pairs.tolist() == [[1, 2], [3, 4]]
        assert dist.counts.dtype == np.int64 and dist.counts.tolist() == [3 * big, big]
        assert dist.entries == {(1, 2): 3 * big, (3, 4): big}

    def test_kernel_memory_stays_near_the_column_matrix(self):
        # the float32 column matrix and the 0/1 bit matrix, the keys and
        # counts (held twice while they are joined), a W (n + 1) int64
        # accumulator with W <= n + 1, and one block's float32 product,
        # int32 counts and int64 cell index with its cast; per-key Python
        # objects or an M^2-sized key array exceed it
        rng = random.Random(64)
        n, size = 64, 2048
        words = set()
        while len(words) < size:
            words.add(rng.getrandbits(n))
        code = Code(n, words)
        keys, _ = core._pair_table(code)
        bound = 5 * n * size + 2 * 32 * len(keys) + 8 * (n + 1) ** 2 + 32 * BLOCK_CELLS
        tracemalloc.start()
        try:
            core._pair_table(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound < 8 * size * size

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
        # a count or a pair that is not an integer is refused, not truncated
        with pytest.raises(TypeError):
            BidistanceDistribution(1, 1, {(0, 0): 1.9})
        with pytest.raises(TypeError):
            BidistanceDistribution(1, 1, {(0.7, 0.2): 1})
        with pytest.raises(TypeError):
            BidistanceDistribution(2, 1, {(0, 0): 1, (1, 1): 0.5})
        with pytest.raises(TypeError):
            BidistanceDistribution.from_off_diagonal(2, 2, {(1, 1): np.float64(2)})
        # numpy integers are integers
        dist = BidistanceDistribution(2, 2, {(np.int64(0), np.int8(0)): np.uint16(2),
                                             (np.int32(1), np.int64(1)): np.int64(2)})
        assert dist.entries == {(0, 0): 2, (1, 1): 2}
        assert all(type(x) is int for pair, c in dist.entries.items() for x in (*pair, c))

    def test_rows_sum_repeated_pairs(self):
        # a caller's rows may repeat a pair; zero sums are dropped, in any order
        dist = BidistanceDistribution.from_off_diagonal(
            3, 3, [((2, 1), 2), ((1, 2), 1), ((0, 3), 0), ((1, 2), 1), ((2, 1), 0), ((1, 1), 2)])
        assert dist.pairs.tolist() == [[0, 0], [1, 1], [1, 2], [2, 1]]
        assert dist.counts.tolist() == [3, 2, 2, 2]
        assert dist == BidistanceDistribution(3, 3, {(2, 1): 2, (0, 0): 3, (1, 2): 2, (1, 1): 2})
        # an off-diagonal (0, 0) row adds to the diagonal, which must equal the size
        with pytest.raises(ValueError, match="must equal the code size"):
            BidistanceDistribution.from_off_diagonal(3, 3, [((0, 0), 3)])
        with pytest.raises(ValueError, match="must equal the code size"):
            BidistanceDistribution.from_off_diagonal(1, 1, {(0, 0): 1})

    def test_distribution_refuses_assignment(self, c1):
        for dist in (bidistance_distribution(c1), BidistanceDistribution(1, 1, {(0, 0): 1})):
            before = dist.to_json_dict()
            for name in ("n", "size", "pairs", "counts", "entries"):
                with pytest.raises(AttributeError):
                    setattr(dist, name, getattr(dist, name))
                with pytest.raises(AttributeError):
                    delattr(dist, name)
            with pytest.raises(ValueError):
                dist.pairs[0, 0] = 1
            with pytest.raises(ValueError):
                dist.counts[0] = 5
            with pytest.raises(TypeError):
                dist.entries[(9, 9)] = 5
            with pytest.raises(TypeError):
                del dist.entries[(0, 0)]
            assert dist.to_json_dict() == before

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.randoms(use_true_random=False))
    def test_arrays_match_dict_form(self, n, size, rng):
        # the projection straight to sorted arrays equals the dict projection it
        # replaced, in arrays, entries, JSON bytes and AHB reports
        code = Code(n, rng.sample(range(1 << n), min(size, 1 << n)))
        dist = bidistance_distribution(code)
        check_dict_form(dist, reference_project(code.pair_support()[:, 1:], code.pair_counts()))
        assert BidistanceDistribution(n, len(code), dict(dist.entries)) == dist

    def test_pair_table_build_skips_the_checks(self, monkeypatch, c1):
        # the checks run on a distribution a caller builds, not on one built
        # from the pair table, which is valid by construction
        checks = []
        post_init = BidistanceDistribution.__post_init__
        monkeypatch.setattr(BidistanceDistribution, "__post_init__",
                            lambda self: checks.append(1) or post_init(self))
        dist = bidistance_distribution(c1)
        assert checks == []
        assert BidistanceDistribution(dist.n, dist.size, dict(dist.entries)) == dist
        assert checks == [1]


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


@pytest.mark.parametrize("build, message", [
    (lambda: Code(0, [0]), "code length must be at least 1"),
    (lambda: Code(3, []), "a code needs at least one word"),
    (lambda: Code.from_words([]), "a code needs at least one word"),
    (lambda: Code.from_words([Word(2, 1), Word(3, 1)]), "all words must share one length"),
    (lambda: BidistanceDistribution(2, 0, {}), "distribution size must be positive"),
    (lambda: BidistanceDistribution(2, 2, {(0, 0): 2, (2, 1): 1, (1, 2): 1}),
     r"pair \(1, 2\) out of range for length 2"),
    (lambda: BidistanceDistribution(2, 2, {(0, 0): 2, (0, 1): -1, (1, 0): -1}),
     "frequencies must be non-negative"),
    (lambda: BidistanceDistribution(2, 2, {(0, 0): 2, (0, 1): 3, (1, 0): 3}),
     r"total frequency 8 != size\^2 = 4"),
], ids=["n < 1", "no words", "from no words", "mixed lengths", "size < 1",
        "pair past n", "negative count", "total not size^2"])
def test_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_bidistance_pair_helpers():
    pair = BidistancePair(2, 5)
    assert pair.swapped() == (5, 2)
    assert pair.hamming == 7


def test_public_names_are_pinned():
    # the package's public API: a name may be added here on purpose, never
    # dropped by a refactor
    assert sorted(bidistance.__all__) == [
        "BidistanceDistribution", "BidistancePair", "BinaryField", "BoundReport",
        "CapExceeded", "ChannelParams", "Code", "DIFFERENCE_SETS", "DecodeResult",
        "GeneratorMatrix", "IncidenceDesign", "LatticePoint", "ParseError", "RegimeError",
        "SchemeParams", "SrgParams", "Word", "ahb_union_bound", "algebra",
        "bidistance_distribution", "bounds", "catalog_design", "channel", "core",
        "coset_distribution_matrix", "defining_set_code", "designs", "dimension_from_weights",
        "dir_distances", "discrepancy", "discrepancy_bound", "distinct_row_count",
        "dual_code", "exact_error_probability", "generator_from_code", "golay_code",
        "is_projective", "lattice_word_count", "likelihood", "llr", "min_discrepancy",
        "min_symmetric_discrepancy", "mld_decode", "monte_carlo_error_probability",
        "multiset_repr", "pairwise_error_probability", "parse_probability",
        "relative_trace", "sbibd_ahb", "sbibd_codes", "sbibd_from_difference_set",
        "scheme_from_three_weight", "solve_directional_system", "srg_from_two_weight",
        "symmetric_discrepancy", "symmetric_discrepancy_bound", "three_weight_ahb",
        "trace_code_27_6", "two_weight_ahb", "verify_srg", "weight_distribution",
        "weights_from_bidistance", "with_zero_word"]
