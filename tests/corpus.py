"""The seeded corpus of CLI calls whose output bytes a change must keep.

``corpus(seed)`` builds one corpus from ``random.Random(seed)``: 24 random
codes with n 3-14 and M 2-40, 8 with n 40-130, and the two worked-example
codes, each at a channel of its own (every third one at p = q).  On each
code it runs ``bidist`` (JSON and ``--format table``), ``bounds`` with every
bound and with the subsets in ``BOUND_SUBSETS``, a 5-step ``sweep`` of all
five columns and of each subset in ``SWEEP_SUBSETS``, and ``pe --mode mc``.
Where n <= 14 it also runs ``pe --mode exact`` and a 5-step five-column
``sweep`` from q = p to q at each of two fixed channels (p, q): (0.025, 0.325),
where gamma is 3 exactly and keys of different weight classes coincide, and
(0.0001, 0.45), where gamma is about 10.8.  It also runs ``construct`` on
every catalog name, ``scheme`` on the ``golay-dual`` code that ``construct``
wrote, four refused inputs: p > q, ``--steps 1``, a file that is not 0/1,
and n over ``--cap``; an ``exact`` sweep of a code over ``--cap``, which
writes the q column alone; a 10-step ``monte_carlo`` sweep from q = p of the
longest random code, and ``pe --mode mc --trials 1``.

``run`` writes a corpus's files into the current directory and runs every
call through a CLI ``main``; calls name files by relative paths, so the
paths that the output echoes do not depend on the directory.  ``digest``
is one sha256 of a call's exit code, standard output and error, and the
files it wrote.  ``tests/test_corpus.py`` compares the seed-1 digests with
``DIGESTS``, which ``tools/same_outputs.py --write`` regenerates.  Standard
library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path
from typing import Callable

#: the seed-1 corpus's digest per call, keyed by the call's words, and the numpy
#: version they were taken with: float bytes depend on numpy's summation order
DIGESTS = Path(__file__).with_name("corpus_digests.json")
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
    longest = max(codes, key=lambda name: len(codes[name][0]))
    calls += [["pe", "--code", "codes/c1.code", "-p", "0.2", "-q", "0.1"],
              ["sweep", "--code", "codes/c1.code", "-p", "0.1", "--q-from", "0.15",
               "--q-to", "0.4", "--steps", "1", "--out", "out/one-step.csv"],
              ["bidist", "--code", "codes/not-binary.code"],
              ["pe", "--code", "codes/c1.code", "-p", "0.1", "-q", "0.15", "--cap", "5"],
              ["sweep", "--code", "codes/c1.code", "-p", "0.1", "--q-from", "0.15",
               "--q-to", "0.4", "--steps", "5", "--methods", "exact", "--cap", "5",
               "--out", "out/over-cap.csv"],
              ["sweep", "--code", f"codes/{longest}.code", "-p", "0.05", "--q-from", "0.05",
               "--q-to", "0.45", "--steps", "10", "--methods", "monte_carlo",
               "--trials", TRIALS, "--seed", "7", "--out", "out/long-monte-carlo.csv"],
              ["pe", "--code", "codes/c2.code", "-p", "0.1", "-q", "0.3", "--mode", "mc",
               "--trials", "1", "--seed", "3"]]
    return files, calls


def _paths() -> set[str]:
    return {os.path.join(top, name)[2:] for top, _, names in os.walk(".") for name in names}


def run(main: Callable[[list[str]], int], files: dict[str, str],
        calls: list[list[str]]) -> list[tuple[object, str, str, dict[str, bytes]]]:
    """Write ``files`` under the current directory, then run each call through ``main``
    with its standard output and error captured: per call, (exit code, stdout, stderr,
    relative path -> bytes of each file that the call made; no call of a corpus writes
    a path twice)."""
    for path, text in files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    Path("out").mkdir(exist_ok=True)
    results, before = [], _paths()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        after = _paths()
        written = {path: Path(path).read_bytes() for path in sorted(after - before)}
        results.append((code, out.getvalue(), err.getvalue(), written))
        before = after
    return results


def digest(result: tuple[object, str, str, dict[str, bytes]]) -> str:
    """One sha256 of a result of ``run``."""
    code, out, err, written = result
    text = json.dumps([code, out, err, [[path, data.hex()] for path, data in written.items()]])
    return hashlib.sha256(text.encode()).hexdigest()
