#!/usr/bin/env python3
"""Check that two checkouts give byte-identical CLI output on one seeded corpus.

    python3 tools/same_outputs.py PARENT CHANGE [--seed 1]
    python3 tools/same_outputs.py --write

Runs the corpus of ``tests/corpus.py`` for the seed (its docstring lists the
calls) on both checkouts.  Each side runs every call in one child process
that calls ``bidistance.cli.main`` with its standard output and error
captured, from the checkout's ``src``, in a working directory of its own
that holds the same code files; calls name files by relative paths, so the
paths that the output echoes match on both sides.  The exit code, standard
output and error of every call, and every file written, are compared byte
for byte.  Prints each difference and exits 1 if there is any, else 0.

``--write`` runs the seed-1 corpus on the checkout that holds this script
and writes its digest per call, with numpy's version, to the file that
``tests/test_corpus.py`` checks.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from corpus import DIGESTS, corpus  # noqa: E402

#: run in each side's working directory with the corpus module's directory and the
#: seed as arguments: every call of the corpus through cli.main, then numpy's version
#: and one [exit code, stdout, stderr, digest] a call as JSON on the real standard output
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy
from corpus import corpus, digest, run
from bidistance.cli import main
results = [[*r[:3], digest(r)] for r in run(main, *corpus(int(sys.argv[2])))]
sys.__stdout__.write(json.dumps({"numpy": numpy.__version__, "results": results}))
"""


def run_side(checkout: Path, work: Path, seed: int) -> dict:
    """The corpus of ``seed`` in one child process in ``work``: numpy's version and
    [exit, stdout, stderr, digest] per call."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "tests"), str(seed)],
                          cwd=work, env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{checkout}: child exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def write_digests() -> int:
    """Write the seed-1 digests of this checkout to DIGESTS."""
    _, calls = corpus(1)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        side = run_side(ROOT, Path(work), 1)
    digests = {" ".join(argv): r[3] for argv, r in zip(calls, side["results"])}
    if len(digests) != len(calls):
        raise SystemExit("two calls of the corpus have the same words")
    DIGESTS.write_text(json.dumps({"numpy": side["numpy"], "seed": 1, "digests": digests},
                                  indent=0) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


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
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--write", action="store_true",
                        help="write this checkout's seed-1 digests for tests/test_corpus.py")
    args = parser.parse_args(argv)
    if args.write:
        if args.parent or args.seed != 1:
            parser.error("--write takes no checkouts and seed 1")
        return write_digests()
    if args.change is None:
        parser.error("PARENT and CHANGE are required")
    _, calls = corpus(args.seed)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        works = {side: Path(tmp) / side for side in ("parent", "change")}
        results = {}
        for side, work in works.items():
            work.mkdir()
            results[side] = run_side(getattr(args, side), work, args.seed)["results"]
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
