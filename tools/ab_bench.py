#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/ab_bench.py PARENT CHANGE --workload bound-sweep --pairs 10

Runs ``bench/run.py`` of each checkout in its own directory, ``--pairs``
times each, alternating which side goes first (the parent in even pairs).
Each run's last line of standard output is its JSON result.  Prints every
run, then per end-to-end metric each side's median and quartiles, the pairs
the change won (ties count for neither side), the gain test (the change
wins at least nine tenths of the pairs and the medians differ by more than
the parent's interquartile range) and the no-regression test: ``worse`` when
the change's median is worse than the parent's by more than the metric's
bound, a fraction of the parent's median; ``unresolved`` when the parent's
interquartile range is wider than that bound, unless every change run beats
every parent run.  Metric names, directions and bounds come from the
parent's ``BENCHMARK.json``.  Every run gets ``PYTHONDONTWRITEBYTECODE=1``
and a ``PYTHONPYCACHEPREFIX`` of one fresh, empty temporary directory, so
neither checkout reads a ``__pycache__`` it holds and both compile each
fresh import, as a new checkout does.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, env: dict) -> dict:
    """One benchmark run in ``checkout``; its JSON result."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=checkout, env=env, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_bench_pycache_") as cache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache}
        print(f"every run: PYTHONDONTWRITEBYTECODE=1 PYTHONPYCACHEPREFIX={cache} (empty)")
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], args.workload, args.seed, env)
                runs[side].append(result)
                values = " ".join(f"{name}={result['metrics'][name]['value']:.6g}"
                                  for name in better if name in result["metrics"])
                print(f"pair {i + 1} {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    print(f"\nworkload {args.workload}, seed {args.seed}, {args.pairs} pairs")
    for name, direction in better.items():
        a = [r["metrics"][name]["value"] for r in runs["parent"]]
        b = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        gain = wins * 10 >= 9 * args.pairs and sign * (bm - am) > a3 - a1
        limit = bound[name] * abs(am)
        if min(sign * y for y in b) > max(sign * x for x in a):
            verdict = "not worse (every change run beats every parent run)"
        elif a3 - a1 > limit:
            verdict = f"unresolved (parent IQR {a3 - a1:.6g} > bound {limit:.6g})"
        else:
            verdict = "worse" if sign * (am - bm) > limit else "not worse"
        print(f"{name}: parent median {am:.6g} [Q1 {a1:.6g}, Q3 {a3:.6g}], "
              f"change median {bm:.6g} [Q1 {b1:.6g}, Q3 {b3:.6g}], "
              f"ratio {bm / am:.4f}, change won {wins}/{args.pairs}, "
              f"gain test {'met' if gain else 'not met'}, "
              f"no-regression test at bound {bound[name]:g}: {verdict}")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    wrong = {side: sum(not r["correct"] for r in rs) for side, rs in runs.items()}
    print(f"failed operations: {failed}; runs with wrong output: {wrong}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
