"""The benchmark's own test: every workload's smoke job list, untraced and
traced, passes every check, and the checks reject tampered output.

    python3 -m pytest bench/test_smoke.py
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads

RUN = Path(__file__).resolve().parent / "run.py"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_every_check(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    if trace:
        assert "trace.overhead_ratio" in result["metrics"]
    else:
        assert set(result["metrics"]) == {"jobs_per_s", "job_p50_s", "setup_s", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_a_checkout_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "decode", "--smoke"]) == 2


def test_oracles_reproduce_the_worked_example():
    assert run.check_oracles() == []


def _plan(workload, tmp_path):
    build, _ = workloads.WORKLOADS[workload]
    return build(random.Random(5), tmp_path, 1, True)


def _cli():
    sys.path.insert(0, str(run.SRC))
    return run.fresh_package()[0]


def test_sweep_check_rejects_a_perturbed_ahb_column(tmp_path):
    cli = _cli()
    job = _plan("bound-sweep", tmp_path).jobs[0]
    _, results = run.execute(cli, job)
    assert job.check(results, lambda: run.execute(cli, job)[1]) == []
    out = Path(job.calls[0][job.calls[0].index("--out") + 1])
    lines = out.read_text().splitlines()
    q, ahb, *rest = lines[1].split(",")
    lines[1] = ",".join([q, f"{float(ahb) * (1 + 1e-6):.10g}", *rest])
    out.write_text("\n".join(lines) + "\n")
    assert any("ahb" in p for p in job.check(results, lambda: []))


def test_decode_checks_reject_wrong_values(tmp_path):
    cli = _cli()
    exact, mc = _plan("decode", tmp_path).jobs[:2]
    for job in (exact, mc):
        _, results = run.execute(cli, job)
        assert job.check(results, lambda job=job: run.execute(cli, job)[1]) == []
    _, results = run.execute(cli, exact)
    payload = json.loads(results[0][1])
    num, den = payload["error_probability"]["fraction"].split("/")
    payload["error_probability"]["fraction"] = f"{int(num) + 1}/{den}"
    assert exact.check([(0, json.dumps(payload), "")], lambda: []) != []
    _, results = run.execute(cli, mc)
    payload = json.loads(results[0][1])
    payload["estimate"] = min(1.0, payload["estimate"] + 0.2)
    assert mc.check([(0, json.dumps(payload), "")], lambda: results) != []


def test_construct_check_rejects_a_wrong_closed_form(tmp_path):
    path = tmp_path / "fano.code"
    workloads.write_code(path, 7, [0b0001011, 0b0010110, 0b0101100])
    n, words = oracles.read_code(path)
    counts = oracles.pair_counts(words)
    entries = [{"d10": a, "d01": b, "count": c} for (a, b), c in counts.items()]
    payload = {"length": n, "size": len(words),
               "weight_distribution": [[3, 3]], "ahb": {"entries": entries}}
    assert workloads._catalog_problems("sbibd:7,3,1:1", payload, path) == []
    entries[0]["count"] += 1
    assert workloads._catalog_problems("sbibd:7,3,1:1", payload, path) != []
