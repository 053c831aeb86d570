import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidistance import cli, core
from bidistance.bounds import (ahb_union_bound, discrepancy_bound,
                               symmetric_discrepancy_bound)
from bidistance.channel import ChannelParams, monte_carlo_error_probability
from bidistance.cli import main
from bidistance.core import Code, Word, bidistance_distribution
from helpers import padded_code, random_code


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestBidist:
    def test_json_matches_example(self, capsys, c1_file):
        rc, out, _ = run(capsys, "bidist", "--code", str(c1_file))
        assert rc == 0
        doc = json.loads(out)
        assert doc["n"] == 6 and doc["size"] == 3
        entries = {(e["d10"], e["d01"]): e["count"] for e in doc["entries"]}
        assert entries == {(0, 0): 3, (0, 1): 1, (1, 0): 1, (1, 1): 2,
                           (1, 2): 1, (2, 1): 1}

    def test_table_carries_same_entries(self, capsys, c1_file):
        rc, table_out, _ = run(capsys, "bidist", "--code", str(c1_file),
                               "--format", "table")
        assert rc == 0
        rows = [line.split() for line in table_out.strip().splitlines()[1:]]
        table_entries = {(int(a), int(b)): int(c) for a, b, c in rows}
        rc, json_out, _ = run(capsys, "bidist", "--code", str(c1_file))
        doc = json.loads(json_out)
        assert table_entries == {(e["d10"], e["d01"]): e["count"]
                                 for e in doc["entries"]}

    def test_empty_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "empty.code"
        path.write_text("# no words\n")
        rc, _, err = run(capsys, "bidist", "--code", str(path))
        assert rc == 2 and "no codewords" in err

    def test_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("101\n1x1\n")
        rc, _, err = run(capsys, "bidist", "--code", str(path))
        assert rc == 2 and ":2:" in err


class TestPe:
    def test_exact_example_values(self, capsys, c1_file, c2_file):
        rc, out, _ = run(capsys, "pe", "--code", str(c1_file), "-p", "0.1", "-q", "0.15")
        assert rc == 0
        doc = json.loads(out)
        assert doc["method"] == "exact"
        assert abs(doc["error_probability"]["decimal"] - 0.2328) <= 5e-5
        num, den = doc["error_probability"]["fraction"].split("/")
        assert abs(int(num) / int(den) - doc["error_probability"]["decimal"]) < 1e-15
        rc, out, _ = run(capsys, "pe", "--code", str(c2_file), "-p", "0.1", "-q", "0.15")
        assert abs(json.loads(out)["error_probability"]["decimal"] - 0.101) <= 5e-4

    def test_regime_violation(self, capsys, c1_file):
        rc, _, err = run(capsys, "pe", "--code", str(c1_file), "-p", "0.3", "-q", "0.2")
        assert rc == 3 and "0 < p <= q" in err

    def test_scientific_notation_rejected(self, capsys, c1_file):
        rc, _, err = run(capsys, "pe", "--code", str(c1_file), "-p", "1e-1", "-q", "0.15")
        assert rc == 2 and "decimal" in err

    def test_non_ascii_digits_rejected(self, capsys, c1_file):
        rc, out, err = run(capsys, "pe", "--code", str(c1_file),
                           "-p", "\u0660.\u0661", "-q", "0.15")
        assert rc == 2 and out == "" and "decimal" in err

    def test_cap_exceeded(self, capsys, tmp_path):
        path = tmp_path / "wide.code"
        path.write_text("0" * 25 + "\n" + "1" * 25 + "\n")
        rc, _, err = run(capsys, "pe", "--code", str(path), "-p", "0.1", "-q", "0.15")
        assert rc == 3 and "cap" in err

    def test_monte_carlo_deterministic(self, capsys, c1_file):
        args = ("pe", "--code", str(c1_file), "-p", "0.1", "-q", "0.15",
                "--mode", "mc", "--trials", "3000", "--seed", "5")
        rc, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc == rc2 == 0 and out1 == out2
        doc = json.loads(out1)
        assert doc["method"] == "monte_carlo" and doc["trials"] == 3000

    def test_monte_carlo_beyond_64(self, capsys, tmp_path):
        rng = random.Random(80)
        code = padded_code(rng, random_code(rng, 8, 6), 80)
        path = tmp_path / "padded80.code"
        code.to_file(path)
        rc, out, err = run(capsys, "pe", "--code", str(path), "-p", "0.05", "-q", "0.12",
                           "--mode", "mc", "--trials", "4000", "--seed", "3")
        assert rc == 0, err
        doc = json.loads(out)
        params = ChannelParams.from_decimals("0.05", "0.12")
        assert (doc["estimate"], doc["standard_error"]) == \
            monte_carlo_error_probability(code, params, trials=4000, seed=3)

    def test_monte_carlo_six_weights_at_length_5000(self, capsys, tmp_path):
        # the decoder holds one slope and one offset per codeword at any
        # length, so six weights near n/2 at n = 5000 decode like any code
        path = tmp_path / "huge.code"
        code = Code(5000, [(1 << w) - 1 for w in range(2495, 2501)])
        code.to_file(path)
        rc, out, err = run(capsys, "pe", "--code", str(path), "-p", "0.1", "-q", "0.15",
                           "--mode", "mc", "--trials", "10")
        assert rc == 0, err
        params = ChannelParams.from_decimals("0.1", "0.15")
        assert json.loads(out)["estimate"] == \
            monte_carlo_error_probability(code, params, trials=10, seed=0)[0]

    def test_monte_carlo_just_under_rank_table_cap(self, capsys, tmp_path):
        # two complementary halves at n = 11000: a long code the decoder
        # keeps apart at every trial
        path = tmp_path / "long.code"
        half = (1 << 5500) - 1
        Code(11000, [half, half << 5500]).to_file(path)
        rc, out, err = run(capsys, "pe", "--code", str(path), "-p", "0.1", "-q", "0.15",
                           "--mode", "mc", "--trials", "200")
        assert rc == 0, err
        assert json.loads(out)["estimate"] == 0.0


class TestSamplingFlags:
    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--trials", "-4"),
                                             ("--seed", "-1")])
    @pytest.mark.parametrize("command", ["pe", "sweep"])
    def test_rejected_before_any_work(self, capsys, tmp_path, command, flag, value):
        # the code file is missing, so a check made after reading it would exit 3
        args = {"pe": ["pe", "--mode", "mc", "-p", "0.1", "-q", "0.15"],
                "sweep": ["sweep", "--methods", "monte_carlo", "-p", "0.1", "--q-from", "0.1",
                          "--q-to", "0.2", "--steps", "3", "--out", str(tmp_path / "x.csv")]}
        rc, out, err = run(capsys, *args[command], "--code", str(tmp_path / "missing.code"),
                           flag, value)
        assert rc == 2 and out == "" and flag in err
        assert not (tmp_path / "x.csv").exists()


    @pytest.mark.parametrize("command", ["pe", "sweep"])
    def test_unallocatable_trials_is_domain_error(self, capsys, c1_file, tmp_path, command):
        # 2**59 trials: the single draw of codeword indices needs 4 EiB, more
        # than any x86-64 address space, so it fails before touching memory
        out_path = tmp_path / "x.csv"
        args = {"pe": ["pe", "--mode", "mc", "-p", "0.1", "-q", "0.15"],
                "sweep": ["sweep", "--methods", "monte_carlo", "-p", "0.1", "--q-from", "0.1",
                          "--q-to", "0.2", "--steps", "3", "--out", str(out_path)]}
        rc, out, err = run(capsys, *args[command], "--code", str(c1_file),
                           "--trials", str(1 << 59))
        assert (rc, out) == (3, "") and err.startswith("error:")
        assert "Traceback" not in err and not out_path.exists()


class TestBounds:
    def test_all_methods(self, capsys, c1_file):
        rc, out, _ = run(capsys, "bounds", "--code", str(c1_file),
                         "-p", "0.1", "-q", "0.15")
        assert rc == 0
        doc = json.loads(out)
        by_method = {b["method"]: b["value"] for b in doc["bounds"]}
        assert abs(by_method["ahb"] - 0.2683) <= 5e-5
        assert abs(by_method["cr_discrepancy"] - 0.5435) <= 5e-5
        assert abs(by_method["cr_symmetric"] - 0.5435) <= 5e-5

    def test_method_subset(self, capsys, c1_file):
        rc, out, _ = run(capsys, "bounds", "--code", str(c1_file),
                         "-p", "0.1", "-q", "0.15", "--methods", "ahb")
        assert rc == 0
        assert [b["method"] for b in json.loads(out)["bounds"]] == ["ahb"]

    def test_unknown_method(self, capsys, c1_file):
        rc, _, err = run(capsys, "bounds", "--code", str(c1_file),
                         "-p", "0.1", "-q", "0.15", "--methods", "nope")
        assert rc == 2 and "unknown methods" in err

    def test_arithmetic_failure_is_domain_error(self, capsys, c1_file, tmp_path, monkeypatch):
        # each bound's many-channel call, under both commands that read BOUNDS;
        # one test over the four cases keeps this test's id
        def overflow(*args):
            raise OverflowError("int too large to convert to float")

        sweep = ["--q-from", "0.15", "--q-to", "0.2", "--steps", "2",
                 "--out", str(tmp_path / "sweep.csv")]
        for bound in ("ahb_union_bounds", "weight_class_bounds"):
            for command, channel in (("bounds", ["-q", "0.15"]), ("sweep", sweep)):
                with monkeypatch.context() as patch:
                    patch.setattr(cli, bound, overflow)
                    rc, out, err = run(capsys, command, "--code", str(c1_file),
                                       "-p", "0.1", *channel)
                assert rc == 3 and out == "", (bound, command)
                assert err.startswith("error: ") and "Traceback" not in err

    def test_long_code(self, capsys, tmp_path):
        rng = random.Random(3)
        path = tmp_path / "long.code"
        path.write_text("".join(str(Word(3000, rng.getrandbits(3000))) + "\n"
                                for _ in range(3)))
        rc, out, _ = run(capsys, "bounds", "--code", str(path),
                         "-p", "0.1", "-q", "0.15")
        assert rc == 0
        for bound in json.loads(out)["bounds"]:
            assert 0.0 < bound["raw_value"] <= 1.0


class TestSweep:
    def test_two_step_endpoints(self, capsys, ex5_file, tmp_path):
        out_path = tmp_path / "sweep.csv"
        rc, _, _ = run(capsys, "sweep", "--code", str(ex5_file), "-p", "0.1",
                       "--q-from", "0.1", "--q-to", "0.2", "--steps", "2",
                       "--out", str(out_path))
        assert rc == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "q,ahb,cr_discrepancy,cr_symmetric,exact"
        assert len(lines) == 3
        assert lines[1].startswith("0.1,") and lines[2].startswith("0.2,")

    def test_matches_per_q_bound_calls(self, capsys, tmp_path):
        # one code on a single 64-bit lane, one on two; every bound is
        # recomputed per q on a freshly parsed code
        rng = random.Random(83)
        texts = ("0.05", "0.06", "0.3")
        p, q_from, q_to = (Fraction(t) for t in texts)
        steps = 5
        for n, size in ((40, 24), (100, 16)):
            path = tmp_path / f"n{n}.code"
            words = {rng.getrandbits(n) for _ in range(size)}
            path.write_text("".join(str(Word(n, w)) + "\n" for w in words))
            out_path = tmp_path / f"n{n}.csv"
            rc, _, _ = run(capsys, "sweep", "--code", str(path), "-p", texts[0],
                           "--q-from", texts[1], "--q-to", texts[2], "--steps", str(steps),
                           "--methods", "ahb,cr_discrepancy,cr_symmetric",
                           "--out", str(out_path))
            assert rc == 0
            lines = ["q,ahb,cr_discrepancy,cr_symmetric"]
            for i in range(steps):
                q = q_from + (q_to - q_from) * Fraction(i, steps - 1)
                params = ChannelParams(p, q)
                row = [float(q),
                       ahb_union_bound(bidistance_distribution(Code.from_file(path)),
                                       params).value,
                       discrepancy_bound(Code.from_file(path), params).value,
                       symmetric_discrepancy_bound(Code.from_file(path), params).value]
                lines.append(",".join(f"{x:.10g}" for x in row))
            assert out_path.read_text() == "\n".join(lines) + "\n"

    def test_rows_equal_bounds_json(self, capsys, tmp_path):
        # each row of the one-call-per-column sweep is the bounds command at
        # that q, from p = q on; on a packed and a wide code
        rng = random.Random(29)
        steps = 6
        for n, size in ((40, 24), (100, 16)):
            path = tmp_path / f"n{n}.code"
            path.write_text("".join(str(Word(n, rng.getrandbits(n))) + "\n"
                                    for _ in range(size)))
            out_path = tmp_path / f"n{n}.csv"
            rc, _, _ = run(capsys, "sweep", "--code", str(path), "-p", "0.05",
                           "--q-from", "0.05", "--q-to", "0.3", "--steps", str(steps),
                           "--methods", "ahb,cr_discrepancy,cr_symmetric",
                           "--out", str(out_path))
            assert rc == 0
            rows = out_path.read_text().splitlines()[1:]
            assert len(rows) == steps
            for i, row in enumerate(rows):
                q = Fraction(5, 100) + Fraction(25, 100) * Fraction(i, steps - 1)
                rc, out, _ = run(capsys, "bounds", "--code", str(path), "-p", "0.05",
                                 "-q", str(float(q)))
                assert rc == 0 and Fraction(json.loads(out)["q"]["fraction"]) == q
                values = [float(q)] + [b["value"] for b in json.loads(out)["bounds"]]
                assert row == ",".join(f"{x:.10g}" for x in values)

    def test_one_bound_call_per_column(self, capsys, ex5_file, tmp_path, monkeypatch):
        calls = []
        for name in ("ahb_union_bounds", "weight_class_bounds"):
            bound = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, bound=bound, name=name:
                                calls.append((name, len(args[1]))) or bound(*args))
        rc, _, _ = run(capsys, "sweep", "--code", str(ex5_file), "-p", "0.1",
                       "--q-from", "0.1", "--q-to", "0.45", "--steps", "8",
                       "--methods", "ahb,cr_discrepancy,cr_symmetric",
                       "--out", str(tmp_path / "sweep.csv"))
        assert rc == 0
        assert sorted(calls) == [("ahb_union_bounds", 8), ("weight_class_bounds", 8),
                                 ("weight_class_bounds", 8)]

    def test_one_exact_call_per_sweep(self, capsys, ex5_file, tmp_path, monkeypatch):
        calls = []
        exact = cli.exact_error_probabilities
        monkeypatch.setattr(cli, "exact_error_probabilities",
                            lambda *args: calls.append(len(args[1])) or exact(*args))
        rc, _, _ = run(capsys, "sweep", "--code", str(ex5_file), "-p", "0.1",
                       "--q-from", "0.1", "--q-to", "0.45", "--steps", "8",
                       "--methods", "ahb,exact", "--out", str(tmp_path / "sweep.csv"))
        assert rc == 0
        assert calls == [8]

    @pytest.mark.parametrize("p, q_from, steps, methods, code, message", [
        ("0.3", "0.2", "1", "exact", 2, "steps"),
        ("0.1", "0.1", "1", "exact,nope", 2, "unknown methods"),
        ("0.3", "0.2", "3", "exact", 3, "q_from"),
    ], ids=["steps_before_regime", "methods_before_steps", "regime"])
    def test_check_order(self, capsys, ex5_file, tmp_path, p, q_from, steps, methods,
                         code, message):
        out_path = tmp_path / "x.csv"
        rc, out, err = run(capsys, "sweep", "--code", str(ex5_file), "-p", p,
                           "--q-from", q_from, "--q-to", "0.4", "--steps", steps,
                           "--methods", methods, "--out", str(out_path))
        assert rc == code and out == "" and message in err
        assert not out_path.exists()

    def test_byte_identical_reruns(self, capsys, ex5_file, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            rc, _, _ = run(capsys, "sweep", "--code", str(ex5_file), "-p", "0.1",
                           "--q-from", "0.1", "--q-to", "0.45", "--steps", "8",
                           "--out", str(path))
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_mild_channel_favours_pair_bound(self, capsys, ex5_file, tmp_path):
        out_path = tmp_path / "mild.csv"
        rc, _, _ = run(capsys, "sweep", "--code", str(ex5_file), "-p", "0.1",
                       "--q-from", "0.1", "--q-to", "0.49", "--steps", "40",
                       "--out", str(out_path))
        assert rc == 0
        lines = out_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 40
        at_011 = next(r for r in rows if abs(float(r["q"]) - 0.11) < 1e-12)
        assert float(at_011["ahb"]) < float(at_011["cr_discrepancy"])
        assert float(at_011["ahb"]) < float(at_011["cr_symmetric"])
        for row in rows:
            exact = float(row["exact"])
            for column in ("ahb", "cr_discrepancy", "cr_symmetric"):
                assert exact <= float(row[column]) + 1e-9

    def test_harsh_channel_favours_weight_bounds(self, capsys, ex5_file, tmp_path):
        out_path = tmp_path / "harsh.csv"
        rc, _, _ = run(capsys, "sweep", "--code", str(ex5_file), "-p", "0.4",
                       "--q-from", "0.4", "--q-to", "0.49", "--steps", "10",
                       "--out", str(out_path))
        assert rc == 0
        lines = out_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        at_045 = next(r for r in rows if abs(float(r["q"]) - 0.45) < 1e-12)
        assert float(at_045["cr_discrepancy"]) < float(at_045["ahb"])
        assert float(at_045["cr_symmetric"]) < float(at_045["ahb"])

    def test_exact_column_dropped_over_cap(self, capsys, tmp_path):
        code_path = tmp_path / "wide.code"
        code_path.write_text("0" * 26 + "\n" + ("1" * 13 + "0" * 13) + "\n")
        out_path = tmp_path / "wide.csv"
        rc, _, err = run(capsys, "sweep", "--code", str(code_path), "-p", "0.1",
                         "--q-from", "0.1", "--q-to", "0.2", "--steps", "2",
                         "--out", str(out_path))
        assert rc == 0
        assert "dropping exact" in err
        header = out_path.read_text().splitlines()[0]
        assert header == "q,ahb,cr_discrepancy,cr_symmetric"

    def test_regime_checked(self, capsys, ex5_file, tmp_path):
        rc, _, err = run(capsys, "sweep", "--code", str(ex5_file), "-p", "0.3",
                         "--q-from", "0.2", "--q-to", "0.4", "--steps", "3",
                         "--out", str(tmp_path / "x.csv"))
        assert rc == 3 and "q_from" in err

    def test_steps_validated(self, capsys, ex5_file, tmp_path):
        rc, _, err = run(capsys, "sweep", "--code", str(ex5_file), "-p", "0.1",
                         "--q-from", "0.1", "--q-to", "0.2", "--steps", "1",
                         "--out", str(tmp_path / "x.csv"))
        assert rc == 2 and "steps" in err

    @pytest.mark.parametrize("steps, code, tables", [(cli.MAX_STEPS, 3, 1),
                                                      (cli.MAX_STEPS + 1, 2, 0)])
    def test_steps_capped_before_the_pair_table(self, capsys, ex5_file, tmp_path,
                                                monkeypatch, steps, code, tables):
        # the largest grid passes the check and reaches the pair table, here
        # refused as a domain error; one step more is a parse error before it
        built = []

        def refuse(*args):
            built.append(args)
            raise cli.CapExceeded("pair table refused")
        monkeypatch.setattr(core, "_pair_table", refuse)
        out_path = tmp_path / "x.csv"
        rc, out, err = run(capsys, "sweep", "--code", str(ex5_file), "-p", "0.1",
                           "--q-from", "0.1", "--q-to", "0.2", "--steps", str(steps),
                           "--out", str(out_path))
        assert rc == code and out == "" and not out_path.exists()
        assert len(built) == tables and ("steps" in err) == (code == 2)

    def test_monte_carlo_column(self, capsys, ex5_file, tmp_path):
        out_path = tmp_path / "mc.csv"
        rc, _, _ = run(capsys, "sweep", "--code", str(ex5_file), "-p", "0.1",
                       "--q-from", "0.1", "--q-to", "0.2", "--steps", "3",
                       "--methods", "exact,monte_carlo", "--trials", "4000",
                       "--seed", "3", "--out", str(out_path))
        assert rc == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "q,exact,monte_carlo"
        for line in lines[1:]:
            _, exact, estimate = (float(x) for x in line.split(","))
            assert abs(exact - estimate) < 0.05


class TestConstruct:
    def test_trace_code_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "trace.code"
        rc, out, _ = run(capsys, "construct", "trace-27-6", "--out", str(out_path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["length"] == 27 and doc["size"] == 64
        assert doc["weight_distribution"] == [[0, 1], [12, 36], [16, 27]]
        assert doc["projective"] is True
        written = out_path.read_text().strip().splitlines()
        assert len(written) == 64 and all(len(line) == 27 for line in written)
        # metadata distribution matches a fresh pass over the written file
        rc, out2, _ = run(capsys, "bidist", "--code", str(out_path))
        assert doc["ahb"] == json.loads(out2)
        # and the nonzero-word table keeps the pure closed form
        nonzero = {(e["d10"], e["d01"]): e["count"] for e in doc["ahb_nonzero"]["entries"]}
        assert nonzero[(6, 6)] == 1152 and nonzero[(8, 8)] == 810

    def test_sbibd_construct(self, capsys, tmp_path):
        out_path = tmp_path / "fano.code"
        rc, out, _ = run(capsys, "construct", "sbibd:7,3,1:1", "--out", str(out_path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["length"] == 7 and doc["size"] == 7
        assert doc["weight_distribution"] == [[3, 7]]
        assert len(doc["design"]["blocks"]) == 7
        entries = {(e["d10"], e["d01"]): e["count"] for e in doc["ahb"]["entries"]}
        assert entries == {(0, 0): 7, (2, 2): 42}
        # round trip: the written file reproduces the stated distribution
        rc, out2, _ = run(capsys, "bidist", "--code", str(out_path))
        assert doc["ahb"] == json.loads(out2)

    def test_golay_dual_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "gd.code"
        rc, out, _ = run(capsys, "construct", "golay-dual", "--out", str(out_path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["size"] == 2048
        assert doc["scheme"]["valences"] == [506, 1288, 253]
        nonzero = {(e["d10"], e["d01"]): e["count"]
                   for e in doc["ahb_nonzero"]["entries"]}
        assert nonzero[(4, 4)] == 566720 and nonzero[(6, 10)] == 113344
        rc, out2, _ = run(capsys, "bidist", "--code", str(out_path))
        assert doc["ahb"] == json.loads(out2)

    def test_golay_metadata(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "construct", "golay", "--out", str(tmp_path / "g.code"))
        assert rc == 0
        doc = json.loads(out)
        assert doc["length"] == 23 and doc["size"] == 4096
        weights = dict(map(tuple, doc["weight_distribution"]))
        assert weights[7] == 253 and weights[0] == 1

    def test_unknown_name(self, capsys, tmp_path):
        rc, _, err = run(capsys, "construct", "golay-triple",
                         "--out", str(tmp_path / "x.code"))
        assert rc == 2 and "unknown catalog name" in err

    def test_malformed_sbibd_name(self, capsys, tmp_path):
        rc, _, err = run(capsys, "construct", "sbibd:7,3:1",
                         "--out", str(tmp_path / "x.code"))
        assert rc == 2 and "sbibd" in err

    def test_sbibd_name_with_extra_parts(self, capsys, tmp_path):
        out_path = tmp_path / "x.code"
        rc, out, err = run(capsys, "construct", "sbibd:7,3,1:2:junk", "--out", str(out_path))
        assert rc == 2 and out == "" and "sbibd" in err
        assert not out_path.exists()


#: sha256 of the stdout and of the code file of each shipped catalog name, written
#: as "code.txt" in the working directory; the bytes json.dumps(indent=2) gave
CATALOG_PINS = [
    ("golay", "8f31efe30a7a7562238c183491d9d1413da0b1f310b38b9ee062d0d595a3fa87",
     "9d71dbb207817fc6161596dbda8a069e6343b227906e6612a3f78c09a6f85201"),
    ("golay-dual", "ff3bf7b6c2ea31d3360a6a00cfee3c7e9eb7438b7293df3a56f59219126225ab",
     "5050ef55b484cdf8b078598dba2b851a92a605b2345542ac2a18ffe7dbfa3f18"),
    ("trace-27-6", "73de24766488c619921b548770f78c1c5783ccfaf645c6e4754f35bd5ca2e460",
     "3724399dac251e16476ca0f3cf632edfceef82af947da46557ea86282e3f4203"),
    ("sbibd:7,3,1:1", "012566d9d9198c049a711fffb9d4225e6da88abfa7e7b5624db965c4be6fddd9",
     "42785be73f0118406ccbad83611099c415a36ad60368e5aa1c4e2d44c4c12f35"),
    ("sbibd:7,3,1:2", "ca3f90d37d0851a1959afbcaaa77ba5cc62d2fb3d021f52f8306d4c2a189b3b7",
     "4aa771250c4c8149efc6ee59de20869d5007591965533ef77c81270fc97e9863"),
    ("sbibd:7,3,1:3", "513d3a51afb62f476fb3ad89e57ece159403c954f83b32d8b50eae60c1c9f799",
     "b18b5af8ff64043a25dd2eef42fb8a0fa4adaf77c86dcf6341e26ac3a9b15953"),
    ("sbibd:7,3,1:4", "ae995a5ccacf4d6f70f742641e0c2791933e9b031da14ea9976933536dc417c8",
     "26aa4312b98d84f90a636b6a51ef0ca17218ac9dc4aef4587b8c0f0f33a35ed1"),
    ("sbibd:11,5,2:1", "9448343f1c0336b4e765de257d3c24a9cddf7d3cc36b4570d519bd6f2d6d8ff6",
     "1670f1828bea0029a8ef145042a6313c3311ad30c271c2c886549de067d6089c"),
    ("sbibd:11,5,2:2", "019b1d7627be1be6319adb02f4d3846ce6629c9610f20d02678e640418e96e1d",
     "c4a3de5ad32bfbf153c4a94504e39bd4769100295cb59c52042e032a7e9dc061"),
    ("sbibd:11,5,2:3", "2233c45322701a9eb5b94ae6ea59621ec1f7b18a8a93ce5f59b08e3d8cac4557",
     "85111c9e4812f5425be99863cea6771fb375e016a11f4551fe3622fb4ea72d2a"),
    ("sbibd:11,5,2:4", "cd0b879eca61ec510e99b97b219709f460b4faf5380881a7a555437123b161d2",
     "7ed8715c700816972ef32c48258b411c889a51c6b04d345ae8f6846ec2e0ec54"),
    ("sbibd:13,4,1:1", "1c8e4a3185acc500a0e03fecfc31b8f2b60c952ecd5dc5865f3a3a5fd42f74eb",
     "ad706ec126ed5ace507202d1957c33c04985af42df6cc0738c43c113bf78d5c4"),
    ("sbibd:13,4,1:2", "d63a2267eee67273c5a4ef52d9d8fc0ae63f3824699509757113e10dff61f62f",
     "d8ffafaac3cc1e9431d2268e598f2c066138b80074d4bc4ab2d64e9fcadd12d5"),
    ("sbibd:13,4,1:3", "02020f43f0df1ae2d9330117170b30dcc50cf11f8664caab5d2bd8d1cdf198c9",
     "0091c75878f57dc1fec57c63a55a4d0c3caaa4c8ba3b916cb9c7e9f765add261"),
    ("sbibd:13,4,1:4", "956addc3bfcd77cb52ba9334df71079aaf9ca7781e92c3d91529b1c8e4480dcd",
     "7c3551d8c77d9a24c67771d23ff4f40a397505ea20406a0e5fa6c45075baaaa5"),
    ("sbibd:15,7,3:1", "312dd0e7a2d4e256d5370849f12a4fde2097d5a618bf7c75bf896bba84e3d2f2",
     "8d9c45a3f00385c7f2a2b34937ba7323dd6082198662dd23587d7cfaf9a4b7ce"),
    ("sbibd:15,7,3:2", "b4ee25933b0229dc5236e8002ae0aff2b8dffc4311fe16635e7bd8121689cd21",
     "45887f874141df88aff209d88d150115d2cd5fb13f3b644bb4f7991334a8954a"),
    ("sbibd:15,7,3:3", "f2bb1d646f499e8ec408d13e98f4a9037d1b6af5649679a55a52398126b5086f",
     "057f0388f36080161ae479af6c4819b13d3d502eb716295ecab6e5285978389f"),
    ("sbibd:15,7,3:4", "843d7e7817dac28a2f8b296490ad22d31ebca0985a3b03ce1cea2cc055ba6b9f",
     "f11541f238d4baa98a247faf4cd0795c8bcbb287a7c2a1d5bd364c2a16fc931e"),
    ("sbibd:23,11,5:1", "ac44dea80f6df3f3f383f598b6b56b688aa47d59b221376874defb2ef96862ef",
     "22fd87042bdbb1d3e3d7c9b17889c89593b707c049b290dca5d5250d50c61884"),
    ("sbibd:23,11,5:2", "85d490cb1f158c517fc39e2894026e0f888fafa2c4f91adde3f0ddb38ae9381a",
     "2c8aeaa2c02e7dfafefc2a69b10164088638901f6f8fbde010e45e6d5506a367"),
    ("sbibd:23,11,5:3", "f6afb50cdabfacf6abc96304e513cee3e09a11bc48f4ce27015b22906c1d5c8a",
     "46f753276d7681d2ccfd6babca5bdb55bc204cacc8b23f5bb39431b0c734e855"),
    ("sbibd:23,11,5:4", "d464c7f9eda63b4e20e9200570608d6c88a08e50109bab29994b05d9802b2585",
     "b8c89fbca63d9c23bed45b821cae97796cba4c55a15f616791a6e2a803ecd0a4"),
]


@pytest.mark.parametrize("name, stdout_sha, file_sha", CATALOG_PINS)
def test_catalog_output_bytes_pinned(capsys, tmp_path, monkeypatch, name, stdout_sha, file_sha):
    monkeypatch.chdir(tmp_path)
    rc, out, _ = run(capsys, "construct", name, "--out", "code.txt")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256((tmp_path / "code.txt").read_bytes()).hexdigest() == file_sha


def _pinned_code(n: int, size: int, weights: tuple[int, ...] | None, seed: int) -> str:
    """A seeded code file: random words, or words of the given weights in turn."""
    rng, words = random.Random(seed), []
    while len(words) < size:
        if weights is None:
            x = rng.getrandbits(n)
        else:
            x = sum(1 << i for i in rng.sample(range(n), weights[len(words) % len(weights)]))
        if x not in words:
            words.append(x)
    return "".join(format(x, f"0{n}b")[::-1] + "\n" for x in words)


#: seeded code files of the analysis pins: (name, n, size, weights or None, seed)
PINNED_CODES = [("small", 10, 12, None, 3), ("mid", 40, 60, None, 5),
                ("classes", 48, 96, (12, 20, 28, 36), 7), ("wide", 90, 40, None, 11),
                ("wide-classes", 130, 64, (40, 64, 88), 13)]
#: (code, command after the code, sha256 of its output: the CSV of a sweep, stdout
#: otherwise); the sweeps run every default method (exact is dropped past the cap),
#: three grids start at q = p, and monte_carlo runs on the small code
ANALYSIS_PINS = [
    ("small", ("sweep", "-p", "0.05", "--q-from", "0.05", "--q-to", "0.3", "--steps", "6",
               "--methods", "ahb,cr_discrepancy,cr_symmetric,exact,monte_carlo",
               "--trials", "3000", "--seed", "4"),
     "a00faa864208f942bc2f89f3e04f43f1e678fe0227432392fe7ce9814c18bd7a"),
    ("small", ("bounds", "-p", "0.05", "-q", "0.05"),
     "8f68f60bf8287fda209c57a9f8c2e748ba406c680aeff5ea3a125eadd0e2fbc6"),
    ("small", ("bidist",), "dcf7c532181928febe6438d571cce9119c8a759678d9bb531359a2c7ed7b4047"),
    ("mid", ("sweep", "-p", "0.02", "--q-from", "0.02", "--q-to", "0.2", "--steps", "5"),
     "c3cb605b287697120d3f29d65a1787a84dd3a77d3282af827d9f68923cdb1367"),
    ("mid", ("bounds", "-p", "0.03", "-q", "0.17"),
     "b39f116ab3bfa5743cc8fb6fe16dba92a225508864d988405097757e36c38f1d"),
    ("mid", ("bidist",), "8a753a78fda6591206dd2693b9001f1d88615d28093d46e4909303a7f5633655"),
    ("classes", ("sweep", "-p", "0.01", "--q-from", "0.03", "--q-to", "0.25", "--steps",
                 "4"), "f30650d7fa407ff398e149f89a6c07660aba8411153f61aef09a051789c90a17"),
    ("classes", ("bounds", "-p", "0.04", "-q", "0.04"),
     "3bac79b5ecfab7cab6cb3c8eb36cd61963f804fdd298a3bad5bf5f4ae0d1ae26"),
    ("classes", ("bidist",), "dc08b1bdbe7c846ef38c9441dca5afa2be98c00d18e713796b32f2663abb670b"),
    ("wide", ("sweep", "-p", "0.03", "--q-from", "0.03", "--q-to", "0.3", "--steps", "5"),
     "14be121c9a7a9398763b0ad834e0101f11f39b75835ef630984053d0db375748"),
    ("wide", ("bounds", "-p", "0.001", "-q", "0.4"),
     "ecd970f7b673992de2ebd729ec0be4584439f6a2170d3a4825f43d5fd66e5f3a"),
    ("wide", ("bidist",), "153c788fd957802aa83eb69fdfeec2f119023db423c92a9e673b0e7bbd454b2c"),
    ("wide-classes", ("sweep", "-p", "0.02", "--q-from", "0.05", "--q-to", "0.15", "--steps",
                      "3"), "68346f13508abd9fc42f7aa02a370ae6f1ee8c5ee1de163a1239ac417abba504"),
    ("wide-classes", ("bounds", "-p", "0.06", "-q", "0.06"),
     "c2c1efd4350b328ef9c80aa379746faa68674963c77d216d08009cd8b553c43b"),
    ("wide-classes", ("bidist",),
     "a9228bc3b9f8da494778e8b500a1df86febf48b006a64c246fc5b47fbbd5d9f8"),
]


@pytest.mark.parametrize("code, command, sha", ANALYSIS_PINS)
def test_analysis_output_bytes_pinned(capsys, tmp_path, monkeypatch, code, command, sha):
    monkeypatch.chdir(tmp_path)
    _, n, size, weights, seed = next(c for c in PINNED_CODES if c[0] == code)
    (tmp_path / "code.txt").write_text(_pinned_code(n, size, weights, seed))
    sweep = command[0] == "sweep"
    rc, out, _ = run(capsys, command[0], "--code", "code.txt", *command[1:],
                     *(("--out", "out.csv") if sweep else ()))
    assert rc == 0
    output = (tmp_path / "out.csv").read_bytes() if sweep else out.encode()
    assert hashlib.sha256(output).hexdigest() == sha


@pytest.mark.parametrize("name", ["sbibd:7, 3,1:+1", "sbibd:7,3,1:0_1", "sbibd:\u0667,3,1:1",
                                  "sbibd:7,3,1:\uff11", "sbibd:7,3,1:-1", "sbibd:7,3,1:"])
def test_catalog_fields_are_ascii_digits(capsys, tmp_path, name):
    # int() alone reads signs, spaces, underscores and other scripts' digits
    out_path = tmp_path / "x.code"
    rc, out, err = run(capsys, "construct", name, "--out", str(out_path))
    assert (rc, out) == (2, "") and "bad catalog name" in err
    assert not out_path.exists()


#: JSON scalars the payload writer must render as json.dumps does, edge values included
JSON_LEAVES = st.one_of(
    st.text(),
    st.sampled_from(["", "\u00e9t\u00e9", "tab\tquote\"back\\slash\n", "\U0001d11e\x00"]),
    st.integers(), st.sampled_from([2 ** 64, -(2 ** 64) - 1, 3 ** 50]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-300, 5e-324, float("nan"), float("inf"), float("-inf")]),
    st.booleans(), st.none())
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=30)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(JSON_PAYLOADS)
def test_payload_writer_matches_json_dumps(payload):
    assert cli._json(payload) == json.dumps(payload, indent=2)


class TestScheme:
    def test_small_three_weight_code(self, capsys, tmp_path):
        lines = ["00000", "10101", "01100", "11001",
                 "00011", "10110", "01111", "11010"]
        path = tmp_path / "scheme.code"
        path.write_text("".join(line + "\n" for line in lines))
        rc, out, _ = run(capsys, "scheme", "--code", str(path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["weights"] == [2, 3, 4]
        assert doc["valences"] == [2, 4, 1]
        assert len(doc["p"]) == 4

    @pytest.mark.parametrize("sample", ["-3", "-5000", "5"])
    def test_negative_sample_is_usage_error(self, capsys, tmp_path, sample):
        # every pair is checked, so --sample is gone and any value is a usage error
        lines = ["00000", "10101", "01100", "11001",
                 "00011", "10110", "01111", "11010"]
        path = tmp_path / "scheme.code"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(SystemExit) as exc:
            main(["scheme", "--code", str(path), "--sample", sample])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "" and "--sample" in captured.err

    def test_rejects_two_weight_code(self, capsys, tmp_path):
        lines = ["000", "110", "101", "011"]
        path = tmp_path / "two.code"
        path.write_text("".join(line + "\n" for line in lines))
        rc, _, err = run(capsys, "scheme", "--code", str(path))
        assert rc == 3 and "three nonzero weights" in err

    def test_rejects_full_space(self, capsys, tmp_path):
        # F_2^3 has three nonzero weights, and its classes compose, but the
        # dual is the zero code: refused before any transform
        path = tmp_path / "full.code"
        Code(3, range(8)).to_file(path)
        rc, out, err = run(capsys, "scheme", "--code", str(path))
        assert (rc, out) == (3, "")
        assert err == "error: the dual of the full space is the zero code\n"


@pytest.mark.parametrize("command", ["bidist", "pe", "bounds", "sweep", "scheme"])
def test_non_utf8_code_file_is_parse_error(capsys, tmp_path, command):
    path = tmp_path / "latin.code"
    path.write_bytes(b"\xff\xfe01\n")
    extra = {"pe": ["-p", "0.1", "-q", "0.15"], "bounds": ["-p", "0.1", "-q", "0.15"],
             "sweep": ["-p", "0.1", "--q-from", "0.1", "--q-to", "0.2", "--steps", "3",
                       "--out", str(tmp_path / "x.csv")]}
    rc, out, err = run(capsys, command, "--code", str(path), *extra.get(command, []))
    assert rc == 2 and out == "" and str(path) in err and "UTF-8" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bidist"])  # missing --code
    assert info.value.code == 2


def test_usage_error_leaves_the_parser_intact(capsys, c1_file, tmp_path):
    # the parser is built once per process, so a refused call must not leak
    # into the next one: compare with the output of a freshly built parser
    cli._build_parser.cache_clear()
    argv = ["construct", "sbibd:7,3,1:2", "--out", str(tmp_path / "f.code")]
    fresh = run(capsys, *argv)
    assert fresh[0] == 0
    for bad in (["bidist", "--code", str(c1_file), "--format", "xml"],
                ["construct", "--out", str(tmp_path / "x.code")],
                ["sweep", "--code", str(c1_file), "-p", "0.1"]):
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 2
        capsys.readouterr()
        assert run(capsys, *argv) == fresh
    assert cli._build_parser() is cli._build_parser()


#: probability strings: in-regime decimals with near-ties and 40 digits, and
#: malformed or out-of-regime ones (signs, fractions, scientific notation,
#: spaces, non-ASCII digits)
PROBABILITIES = ["0.05", "0.050000000001", "0.1", "0.15", "0.2", "0.3", "0." + "3" * 40,
                 "0.45", "0.4999999999999999999"]
MALFORMED = ["0", "1", "0.5", "1/2", "-0.1", "+0.1", "1e-1", " 0.1 ", "0.1 5",
             "\u0660.\u0661", ""]
CATALOG_NAMES = ["golay", "golay-dual", "trace-27-6", "sbibd:7,3,1:1", "sbibd:7,3,1:2",
                 "sbibd:7,3,1:9", "sbibd:11,5,2:1", "sbibd:7,3:1", "sbibd:7,3,1:2:junk",
                 "sbibd:x", "golay-triple", ""]
METHODS = ["ahb", "cr_discrepancy", "cr_symmetric", "exact", "monte_carlo", "bogus", ""]
#: code file contents by kind; "random" and "directory" and "missing" are made per case
CODE_FILES = {"empty": b"", "latin": b"\xff\xfe01\n", "ragged": b"101\n11\n",
              "duplicate": b"101\n101\n", "comment": b"# no words\n",
              "long": ("0" * 3000 + "\n" + "1" * 3000 + "\n").encode(),
              "three_weight": "".join(w + "\n" for w in [
                  "00000", "10101", "01100", "11001", "00011", "10110", "01111",
                  "11010"]).encode()}
#: the optional flags each command takes; an unknown command draws from all
COMMAND_FLAGS = {"bidist": ["--format"], "pe": ["--cap", "--mode", "--seed", "--trials"],
                 "bounds": ["--methods"], "sweep": ["--cap", "--methods", "--seed", "--trials"],
                 "construct": [], "scheme": []}


@st.composite
def cli_calls(draw, root):
    """argv for one CLI call: a command, a code file and random flags."""
    command = draw(st.sampled_from(["bidist", "pe", "bounds", "sweep", "construct",
                                    "scheme", "decode"]))
    kind = draw(st.one_of(st.just("random"),
                          st.sampled_from([*CODE_FILES, "directory", "missing"])))
    code = {"directory": root, "missing": root / "missing.code"}.get(kind)
    if code is None:
        if kind == "random":
            n = draw(st.integers(1, 12))
            words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12,
                                  unique=True))
            text = "".join(format(w, f"0{n}b") + "\n" for w in words).encode()
        else:
            text = CODE_FILES[kind]
        code = root / "case.code"
        code.write_bytes(text)
    p, q, q_to = draw(st.one_of(
        st.lists(st.sampled_from(PROBABILITIES), min_size=3, max_size=3).map(
            lambda ps: sorted(ps, key=Decimal)),
        st.lists(st.sampled_from(PROBABILITIES + MALFORMED), min_size=3, max_size=3)))
    argv = [command] if command == "construct" else [command, "--code", str(code)]
    if command == "construct":
        argv.append(draw(st.sampled_from(CATALOG_NAMES)))
    if command in ("pe", "bounds"):
        argv += ["-p", p, "-q", q]
    if command == "sweep":
        argv += ["-p", p, "--q-from", q, "--q-to", q_to, "--steps",
                 str(draw(st.sampled_from([2, 3, 6, 1, 0, -1])))]
    if command in ("sweep", "construct"):
        out = [root / "out.txt"] * 3 + [root, root / "missing" / "out.txt"]
        argv += ["--out", str(draw(st.sampled_from(out)))]
    flags = {"--mode": st.sampled_from(["exact", "mc", "fast"]),
             "--format": st.sampled_from(["json", "table", "xml"]),
             "--trials": st.integers(-2, 50), "--seed": st.integers(-2, 1 << 40),
             "--cap": st.integers(-1, 14), "--sample": st.integers(-3, 60),
             "--methods": st.lists(st.sampled_from(METHODS), max_size=3).map(",".join)}
    names = COMMAND_FLAGS.get(command, sorted(flags))
    for flag in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)) if names else []:
        argv += [flag, str(draw(flags[flag]))]
    if draw(st.sampled_from([False] * 9 + [True])):
        del argv[draw(st.sampled_from(range(1, len(argv))))]  # a usage error, most likely
    return argv


def test_exit_code_contract(tmp_path_factory):
    # every call exits 0, 2 (usage or parse error) or 3 (domain error, with
    # stderr starting "error:"), and never raises or prints a traceback
    root = tmp_path_factory.mktemp("contract")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(cli_calls(root))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
        assert rc in (0, 2, 3), (argv, rc, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
        assert rc != 3 or err.getvalue().startswith("error:"), (argv, err.getvalue())
    check()


#: run in a fresh interpreter: each step, then whether numpy has imported numpy.ma
COLD_START = """
import contextlib, io, json, os, sys
from bidistance.algebra import trace_code_27_6
from bidistance.channel import ChannelParams, mld_decode
from bidistance.cli import main
from bidistance.core import Code, Word
from bidistance.designs import verify_srg

code = sys.argv[1]
root = os.path.dirname(code)
dual = os.path.join(root, "golay-dual.code")
pq = ["-p", "0.1", "-q", "0.15"]
steps = {
    "bidist": lambda: main(["bidist", "--code", code]),
    "pe exact": lambda: main(["pe", "--code", code, *pq, "--mode", "exact"]),
    "pe mc": lambda: main(["pe", "--code", code, *pq, "--mode", "mc", "--trials", "500"]),
    "sweep exact": lambda: main(["sweep", "--code", code, "-p", "0.1", "--q-from", "0.15",
                                 "--q-to", "0.3", "--steps", "3", "--methods", "ahb,exact",
                                 "--out", os.path.join(root, "sweep.csv")]),
    "bounds": lambda: main(["bounds", "--code", code, *pq]),
    "construct golay-dual": lambda: main(["construct", "golay-dual", "--out", dual]),
    "scheme": lambda: main(["scheme", "--code", dual]),
    "mld_decode": lambda: mld_decode(Code.from_file(code), Word.from_string("110100"),
                                     ChannelParams.from_decimals("0.1", "0.15")).is_failure,
    "verify_srg": lambda: verify_srg(trace_code_27_6(), 12).v,
}
seen = {}
for name, step in steps.items():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        result = step()
    seen[name] = [result, "numpy.ma" in sys.modules]
print(json.dumps(seen))
"""


def test_no_call_imports_numpy_ma(c1_file):
    # numpy imports numpy.ma, about 15 ms, on a plain np.unique; a fresh process
    # must not pay it on any command or library call
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", COLD_START, str(c1_file)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen == {"bidist": [0, False], "pe exact": [0, False], "pe mc": [0, False],
                    "sweep exact": [0, False], "bounds": [0, False],
                    "construct golay-dual": [0, False], "scheme": [0, False],
                    "mld_decode": [False, False], "verify_srg": [64, False]}
