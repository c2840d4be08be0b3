"""The benchmark's own checks: tiny runs, determinism, the negative control.

Run with ``python -m pytest -q perfbench`` from the repository root.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import ROOT, runner, tracing, workloads

TINY = 4


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_completes_and_passes_the_gate(workload):
    record = runner.run(workload, seed=3, seconds=0, trace=False, count=TINY, probes=1)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= TINY
    assert set(record["metrics"]) == {"setup_s", "wall_s", "job_ms.p50", "job_ms.p90", "cli_s", "peak_rss_mb"}
    assert all(value > 0 for value, _ in record["metrics"].values())
    unscaled = record["unscaled"]
    scale = runner.REFERENCE_S / unscaled["host_reference_s"]
    for name in ("setup_s", "wall_s", "job_ms.p50", "job_ms.p90", "cli_s"):
        assert record["metrics"][name][0] == pytest.approx(unscaled[name] * scale)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_and_the_bypasses(workload):
    record = runner.run(workload, seed=3, seconds=0, trace=True, count=TINY)
    assert record["correct"], record["problems"]
    metrics = {name: value for name, (value, _) in record["metrics"].items()}
    assert "trace.overhead_ratio" in metrics and len(metrics) == 29
    if workload != "curve_sweep":
        assert metrics["online_opt.optimize_strengths.calls"] == 0
    else:
        assert metrics["online_opt.optimize_strengths.profile_evals"] > 0
    if workload != "mc_batch":
        assert metrics["kernels.simulate_counts.calls"] == 0
    else:
        assert metrics["kernels.simulate_counts.trial_steps"] > 0
    if workload == "long_chain":  # reached through the CLI's method table
        assert metrics["online_opt.closed_form_strengths.busy_s"] > 0
        assert metrics["online_opt.recursive_strengths.busy_s"] > 0


def test_per_layer_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        record = runner.run("curve_sweep", seed=5, seconds=0, trace=True, count=TINY)
        counts.append({k: v for k, (v, unit) in record["metrics"].items() if unit == "count"})
    assert counts[0] == counts[1] and counts[0]["kernels.detection_profile.calls"] > 0


def test_tracer_puts_every_original_back():
    import qcpd.cli
    import qcpd.kernels
    import qcpd.online_opt

    def bound():
        return (qcpd.kernels.detection_profile, qcpd.online_opt.StrengthSchedule, qcpd.cli.best_online,
                dict(qcpd.cli._METHODS))

    before = bound()
    with tracing.Tracer().installed() as tracer:
        assert qcpd.kernels.detection_profile is not before[0]
        assert qcpd.cli._METHODS["closed"] is not before[3]["closed"]
        qcpd.cli._METHODS["closed"](5, 0.3)
    assert bound() == before
    stats = tracing.summarize(tracer.spans)
    assert stats["online_opt.closed_form_strengths"]["calls"] == 1
    assert stats["core.StrengthSchedule"]["work"] == 4
    assert stats["kernels.detection_profile"]["work"] == 5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests_and_outputs(workload):
    first = workloads.build(workload, 11, TINY)
    assert first == workloads.build(workload, 11, TINY)
    a = runner.run_pass(first, None)
    b = runner.run_pass(workloads.build(workload, 11, TINY), None)
    assert a.digests == b.digests and not a.failures


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_different_requests(workload):
    assert workloads.build(workload, 1) != workloads.build(workload, 2)


def test_negative_control_is_counted_as_failed():
    record = runner.run("long_chain", seed=3, seconds=0, trace=False, count=TINY, probes=1, corrupt=True)
    # the corrupted request fails in the first pass and, as its digest no
    # longer matches, in every later pass
    assert record["failed"] == record["samples"]["passes"] and record["failed_ratio"] > 0
    assert not record["correct"]


def test_inputs_stay_within_the_hardened_limits():
    for seed in range(5):
        for request in workloads.curve_sweep(seed):
            if request.kind == "verify":
                assert int(request.argv[request.argv.index("--n-max") + 1]) <= 12
            elif not request.params.get("golden"):
                p = request.params
                assert 10 <= p["rows"] <= 20 and 1 <= p["high"] < p["rows"]
                assert float(request.argv[request.argv.index("--step") + 1]) >= 0.002
        assert all("numeric" not in r.argv for r in workloads.long_chain(seed))


def test_curve_grid_straddles_one_half_as_planned():
    request = next(r for r in workloads.curve_sweep(4) if r.kind == "curve" and not r.params.get("golden"))
    p = request.params
    _, rc, out = runner.call(runner.cli_main, request.argv)
    if p["format"] == "csv":
        cs = [float(line.split(",")[0]) for line in out.split("\n")[1:-1]]
    else:
        cs = [row["c"] for row in json.loads(out)["rows"]]
    assert rc == 0 and len(cs) == p["rows"] and sum(c > 0.5 for c in cs) == p["high"]


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
