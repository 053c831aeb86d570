#!/usr/bin/env python3
"""Check that two checkouts give byte-identical CLI output on one seeded corpus.

    python3 tools/same_outputs.py PARENT CHANGE [--seed 1]

Builds one corpus from ``random.Random(seed)``: 24 random codes with n 3-14
and M 2-40, 8 with n 40-130, and the two worked-example codes, each at a
channel of its own (every third one at p = q).  On each code it runs
``bidist`` (JSON and ``--format table``), ``bounds`` with every bound and
with the subsets in ``BOUND_SUBSETS``, a 5-step ``sweep`` of all five
columns and of each subset in ``SWEEP_SUBSETS``, ``pe --mode exact`` where
n <= 14 and ``pe --mode mc``.
Where n <= 14 it also runs ``pe --mode exact`` and a 5-step five-column
``sweep`` from q = p to q at each of two fixed channels (p, q): (0.025, 0.325),
where gamma is 3 exactly and keys of different weight classes coincide, and
(0.0001, 0.45), where gamma is about 10.8.  It also runs ``construct`` on
every catalog name, ``scheme`` on the ``golay-dual`` code that ``construct``
wrote, and four refused inputs: p > q, ``--steps 1``, a file that is not
0/1, and n over ``--cap``; and an ``exact`` sweep of a code over ``--cap``,
which writes the q column alone.

Each side runs every call in one child process that calls
``bidistance.cli.main`` with its standard output and error captured, from
the checkout's ``src``, in a working directory of its own that holds the
same code files; calls name files by relative paths, so the paths that the
output echoes match on both sides.  The exit code, standard output and
error of every call, and every file written, are compared byte for byte.
Prints each difference and exits 1 if there is any, else 0.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

#: (v, k, lambda) of the shipped difference sets; each design has families 1-4
DESIGNS = [(7, 3, 1), (11, 5, 2), (13, 4, 1), (15, 7, 3), (23, 11, 5)]
CATALOG = ["golay", "golay-dual", "trace-27-6"] + [
    f"sbibd:{v},{k},{lam}:{family}" for v, k, lam in DESIGNS for family in (1, 2, 3, 4)]
WORKED_EXAMPLES = {"c1": ["111000", "011100", "110000"], "c2": ["111000", "000111", "110000"]}
PROBABILITIES = ["0.01", "0.05", "0.1", "0.15", "0.2", "0.25", "0.3"]
TRIALS = "2000"
#: (p, q): gamma is 3 exactly at (0.025, 0.325) and about 10.8 at (0.0001, 0.45)
FIXED_CHANNELS = [("0.025", "0.325"), ("0.0001", "0.45")]
FIVE_COLUMNS = "ahb,cr_discrepancy,cr_symmetric,exact,monte_carlo"
#: method subsets, out of order and with a duplicate, besides each command's full set
BOUND_SUBSETS = ["cr_symmetric,ahb", "cr_discrepancy"]
SWEEP_SUBSETS = ["monte_carlo,exact,exact", "cr_discrepancy"]

#: run in each side's working directory: every call of calls.json through cli.main,
#: then one JSON list of [exit code, stdout, stderr] on the real standard output
CHILD = """
import contextlib, io, json, sys
from bidistance.cli import main
results = []
for argv in json.load(open("calls.json")):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
sys.__stdout__.write(json.dumps(results))
"""


def corpus(seed: int) -> tuple[dict[str, str], list[list[str]]]:
    """The code files (relative path -> text) and the calls of one seed."""
    rng = random.Random(seed)
    codes = dict(WORKED_EXAMPLES)
    for i, (low, high) in enumerate([(3, 14)] * 24 + [(40, 130)] * 8):
        n = rng.randint(low, high)
        size = rng.randint(2, min(40, 1 << n))
        words = rng.sample(range(1 << n), size) if n < 20 else \
            list({rng.getrandbits(n) for _ in range(size)})
        codes[f"r{i:02d}"] = [format(w, f"0{n}b") for w in words]
    files = {f"codes/{name}.code": "".join(w + "\n" for w in words)
             for name, words in codes.items()}
    calls = []
    for i, (name, words) in enumerate(codes.items()):
        path, n = f"codes/{name}.code", len(words[0])
        p = rng.choice(PROBABILITIES[:-1])
        q = p if i % 3 == 0 else rng.choice([x for x in PROBABILITIES if float(x) >= float(p)])
        pq = ["--code", path, "-p", p, "-q", q]
        seed_args = ["--trials", TRIALS, "--seed", str(rng.randrange(1000))]
        calls += [["bidist", "--code", path], ["bidist", "--code", path, "--format", "table"],
                  ["bounds", *pq],
                  ["sweep", "--code", path, "-p", p, "--q-from", q, "--q-to", "0.45",
                   "--steps", "5", "--methods", FIVE_COLUMNS, "--out", f"out/{name}.csv",
                   *seed_args],
                  ["pe", *pq, "--mode", "mc", *seed_args]]
        calls += [["bounds", *pq, "--methods", methods] for methods in BOUND_SUBSETS]
        calls += [["sweep", "--code", path, "-p", p, "--q-from", q, "--q-to", "0.45",
                   "--steps", "5", "--methods", methods, "--out", f"out/{name}-subset{j}.csv",
                   *seed_args] for j, methods in enumerate(SWEEP_SUBSETS)]
        if n <= 14:
            calls.append(["pe", *pq, "--mode", "exact"])
            for j, (fixed_p, fixed_q) in enumerate(FIXED_CHANNELS):
                calls += [["pe", "--code", path, "-p", fixed_p, "-q", fixed_q, "--mode", "exact"],
                          ["sweep", "--code", path, "-p", fixed_p, "--q-from", fixed_p,
                           "--q-to", fixed_q, "--steps", "5", "--methods", FIVE_COLUMNS,
                           "--out", f"out/{name}-fixed{j}.csv", *seed_args]]
    for i, name in enumerate(CATALOG):
        calls.append(["construct", name, "--out", f"out/catalog-{i:02d}.code"])
    calls.append(["scheme", "--code", f"out/catalog-{CATALOG.index('golay-dual'):02d}.code"])
    files["codes/not-binary.code"] = "0120\n1101\n"
    calls += [["pe", "--code", "codes/c1.code", "-p", "0.2", "-q", "0.1"],
              ["sweep", "--code", "codes/c1.code", "-p", "0.1", "--q-from", "0.15",
               "--q-to", "0.4", "--steps", "1", "--out", "out/one-step.csv"],
              ["bidist", "--code", "codes/not-binary.code"],
              ["pe", "--code", "codes/c1.code", "-p", "0.1", "-q", "0.15", "--cap", "5"],
              ["sweep", "--code", "codes/c1.code", "-p", "0.1", "--q-from", "0.15",
               "--q-to", "0.4", "--steps", "5", "--methods", "exact", "--cap", "5",
               "--out", "out/over-cap.csv"]]
    return files, calls


def run_side(checkout: Path, work: Path, files: dict[str, str],
             calls: list[list[str]]) -> list[list]:
    """Every call in one child process in ``work``; [exit, stdout, stderr] per call."""
    for path, text in files.items():
        (work / path).parent.mkdir(parents=True, exist_ok=True)
        (work / path).write_text(text)
    (work / "out").mkdir(exist_ok=True)
    (work / "calls.json").write_text(json.dumps(calls))
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=work, env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{checkout}: child exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def written(work: Path) -> dict[str, bytes]:
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*"))
            if p.is_file()}


def first_difference(x: object, y: object) -> str:
    """The first line at which two outputs differ, or both values if not text."""
    if not (isinstance(x, str) and isinstance(y, str)):
        return f"{x!r} -> {y!r}"
    a, b = x.split("\n"), y.split("\n")
    k = next((i for i, (s, t) in enumerate(zip(a, b)) if s != t), min(len(a), len(b)))
    return (f"line {k + 1}: {a[k] if k < len(a) else '<end>'!r} -> "
            f"{b[k] if k < len(b) else '<end>'!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    files, calls = corpus(args.seed)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        works = {side: Path(tmp) / side for side in ("parent", "change")}
        results = {}
        for side, work in works.items():
            work.mkdir()
            results[side] = run_side(getattr(args, side), work, files, calls)
        differences = []
        for argv_, before, after in zip(calls, results["parent"], results["change"]):
            for what, x, y in zip(("exit code", "stdout", "stderr"), before, after):
                if x != y:
                    differences.append(f"{what} of `{' '.join(argv_)}`, "
                                       + first_difference(x, y))
        before, after = (written(work) for work in works.values())
        for path in sorted(before.keys() | after.keys()):
            if path not in before or path not in after:
                differences.append(f"file {path}: absent in the "
                                   + ("parent" if path not in before else "change"))
            elif before[path] != after[path]:
                differences.append(f"file {path}, " + first_difference(
                    *(side[path].decode(errors="replace") for side in (before, after))))
    exits = [r[0] for r in results["parent"]]
    print(f"seed {args.seed}: {len(calls)} calls ({exits.count(0)} exit 0, "
          f"{exits.count(2)} exit 2, {exits.count(3)} exit 3), {len(before)} files")
    for line in differences:
        print(f"DIFFERENT {line}")
    print(f"{len(differences)} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
