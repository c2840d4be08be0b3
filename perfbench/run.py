"""Benchmark entry point.

    python3 perfbench/run.py --workload curve_sweep --seed 1 --seconds 25 --trace 0

Workloads: ``curve_sweep``, ``long_chain``, ``mc_batch``, or ``all`` (each
in its own process, one after another).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The lines before it name every metric with its unit
and sample count, the failure ratio and the environment; the full record
(and, when traced, the spans) is written under ``perfbench-out/``.

The package under test is imported from ``src/`` next to this directory;
without it the run exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import SRC, nproc  # noqa: E402  (stdlib only: numpy is not loaded yet)
from perfbench.workloads import WORKLOADS  # noqa: E402

BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description="Layered qcpd benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            totals["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "qcpd" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no qcpd sources under {SRC}\n")
        return 2
    if args.workload == "all":
        return _run_all(args)
    for var in BLAS_VARS:  # before numpy is imported; children inherit it
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))

    from perfbench import runner

    record = runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = runner.environment(args.workload, args.seed, os.environ[BLAS_VARS[0]])
    path = runner.write_record(record, env, bool(args.trace))

    print("environment " + json.dumps(env, sort_keys=True))
    samples = record["samples"]
    print(f"{args.workload}: seed {args.seed}, {samples['passes']} untraced pass(es) of "
          f"{samples['requests_per_pass']} requests, outputs {record['outputs_digest'][:16]}")
    for kind, walls in record["pass_wall_s"].items():
        if walls:
            print(f"  {kind} pass wall times: " + ", ".join(f"{w:.3f} s" for w in walls))
    for name, (value, unit) in record["metrics"].items():
        key = name.split(".")[0]
        note = f"  (samples={samples[key]})" if key in samples else ""
        print(f"  {name:<46} {value:>14.6g} {unit}{note}")
    if record["unscaled"] is not None:
        unscaled = dict(record["unscaled"])
        host = unscaled.pop("host_reference_s")
        print(f"  reference {host * 1e3:.4f} ms against {runner.REFERENCE_S * 1e3:.4f} ms; unscaled "
              + ", ".join(f"{name} {value:.6g}" for name, value in unscaled.items()))
    print(f"  {'failed_ratio':<46} {record['failed_ratio']:>14.6g} ({record['failed']}/{record['attempted']})")
    for problem in record["problems"][:20]:
        print(f"  FAILED {problem}")
    print(f"  record: {path}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
