#!/usr/bin/env python3
"""End-to-end benchmark of the bidistance CLI.

    python3 bench/run.py --workload bound-sweep --seed 1 --seconds 8 --trace 0

Runs one workload as one process with one thread: a closed loop with one
client that calls ``bidistance.cli.main`` in-process, with stdout and
stderr captured, on a fixed list of jobs made from the seed.  The list
length follows from ``--seconds`` (whole rounds of the workload's job
slots), never from the clock, so the job mix is the same in every run.
Every output is checked against ``oracles``.  ``--trace 1`` runs the same
list twice, untraced and then with spans around the package's public
functions, and reports per-layer metrics instead of end-to-end ones.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracles
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: set-ups per run; the median is reported
SETUPS = 7
PACKAGE = "bidistance"


def fresh_package():
    """Import the package from the checkout's ``src``, discarding any copy
    already loaded, and return its modules by short name."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    prefix = PACKAGE + "."
    return cli, {name[len(prefix):]: module for name, module in sys.modules.items()
                 if name.startswith(prefix)}


def set_up(workload: str, seed: int, rounds: int, smoke: bool, work: Path):
    """One set-up: a fresh import, then the seeded inputs and code files
    (each set-up overwrites the files of the one before)."""
    t0 = time.perf_counter()
    cli, _ = fresh_package()
    t1 = time.perf_counter()
    build, _ = workloads.WORKLOADS[workload]
    plan = build(random.Random(f"{workload}:{seed}"), work, rounds, smoke)
    t2 = time.perf_counter()
    return cli, plan, t1 - t0, t2 - t1


def execute(cli, job) -> tuple[float, list]:
    """Run a job's CLI calls back to back; returns (seconds, results)."""
    results = []
    t0 = time.perf_counter()
    for argv in job.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the job fails; the run goes on
                traceback.print_exc()
                code = 1
        results.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - t0, results


def run_jobs(cli, jobs, check: bool) -> tuple[list[float], int, list[str], list[str]]:
    """Time each job and check it outside the timed region.

    Returns the job times, the number of failed jobs, the errors (a call
    that exited non-zero) and the wrong outputs a check found.
    """
    times, failed, errors, wrong = [], 0, [], []
    for job in jobs:
        gc.collect()
        seconds, results = execute(cli, job)
        times.append(seconds)
        bad = [f"{job.kind}: exit {code}: {err.strip()[-300:]}"
               for code, _, err in results if code != 0]
        errors += bad
        if not bad and check:
            try:
                found = job.check(results, lambda job=job: execute(cli, job)[1])
            except Exception as exc:  # malformed output fails the job
                found = [f"unreadable output: {exc!r}"]
            bad = [f"{job.kind}: {problem}" for problem in found]
            wrong += bad
        failed += bool(bad)
    return times, failed, errors, wrong


def traced_pass(jobs, untraced_times: list[float], tag: str):
    """Run the jobs again on a fresh import with every target wrapped;
    returns the per-layer metrics, the failed count and the errors."""
    cli, modules = fresh_package()
    tracer = Tracer()
    tracer.install(modules)
    if tracer.missing:
        print("untraced (not found): " + ", ".join(tracer.missing))
    origin = time.perf_counter()
    times, failed, errors, _ = run_jobs(cli, jobs, check=False)
    tracer.write(OUT / f"trace-{tag}.jsonl", origin)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (sum(times) / sum(untraced_times), "ratio")
    return metrics, failed, [f"traced {e}" for e in errors]


def tail(times: list[float]) -> str:
    """The highest whole percentile with at least ten jobs beyond it."""
    n = len(times)
    if n < 40:
        return f"tail: none, {n} jobs (fewer than 40)"
    pct = 100 * (n - 10) // n
    value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    beyond = sum(t > value for t in times)
    return f"tail: p{pct} = {value:.6f} s over {n} jobs, {beyond} beyond it"


def check_oracles() -> list[str]:
    """The oracles must reproduce the paper's worked example."""
    p, q = oracles.EXAMPLE_P, oracles.EXAMPLE_Q
    pep = oracles.PairwiseError(p, q)
    problems = []
    if abs(oracles.gamma(p, q) - oracles.EXAMPLE_GAMMA) > 5e-5:
        problems.append("oracle gamma")
    for lines, pe, ahb, tol in zip((oracles.EXAMPLE_C1, oracles.EXAMPLE_C2),
                                   oracles.EXAMPLE_PE, oracles.EXAMPLE_AHB, (5e-5, 5e-4)):
        words = [oracles.word_mask(s) for s in lines]
        if abs(float(oracles.mld_error_probability(6, words, p, q)) - pe) > tol:
            problems.append("oracle Pe on the worked example")
        if abs(float(oracles.ahb_bound(oracles.pair_counts(words), 3, pep)) - ahb) > 5e-5:
            problems.append("oracle AHB bound on the worked example")
    return problems


def threads() -> int:
    """Threads of this process, as Linux reports them (0 elsewhere)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a tiny job list that runs every check in seconds")
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one thread: numpy's BLAS pool reads these when the package imports it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    _, nominal = workloads.WORKLOADS[args.workload]
    rounds = 1 if args.smoke else max(1, round(args.seconds / nominal))
    tag = f"{args.workload}-{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = OUT / "work" / tag
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    imports, inputs = [], []
    for _ in range(SETUPS):
        cli, plan, import_s, inputs_s = set_up(
            args.workload, args.seed, rounds, args.smoke, work)
        imports.append(import_s)
        inputs.append(inputs_s)
    setup_s = statistics.median(i + j for i, j in zip(imports, inputs))

    wrong = [f"oracle: {p}" for p in check_oracles()]
    times, failed, errors, found = run_jobs(cli, plan.jobs, check=True)
    wrong += found
    jobs_failed = failed
    _, probes_failed, probe_errors, found = run_jobs(cli, plan.probes, check=True)
    failed += probes_failed
    errors += probe_errors
    wrong += found
    attempted = len(plan.jobs) + len(plan.probes)

    if args.trace:
        metrics, traced_failed, traced_errors = traced_pass(plan.jobs, times, tag)
        attempted += len(plan.jobs)
        failed += traced_failed
        errors += traced_errors
        metrics["setup.import_s"] = (statistics.median(imports), "s")
        metrics["setup.inputs_s"] = (statistics.median(inputs), "s")
    else:
        metrics = {
            "jobs_per_s": ((len(times) - jobs_failed) / sum(times), "1/s"),
            "job_p50_s": (statistics.median(times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    for problem in errors:
        print(f"JOB FAILED {problem}")
    for problem in wrong:
        print(f"CHECK FAILED {problem}")
    print(f"workload {args.workload}, seed {args.seed}, {len(plan.jobs)} jobs "
          f"in {rounds} rounds, {len(plan.probes)} probes, {threads()} thread(s)")
    print(tail(times))
    kinds: dict[str, list[float]] = {}
    for job, seconds in zip(plan.jobs, times):
        kinds.setdefault(job.kind, []).append(seconds)
    for kind, values in kinds.items():
        print(f"{kind} jobs: {len(values)}, median {statistics.median(values):.6f} s, "
              f"total {sum(values):.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    shutil.rmtree(work)
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
