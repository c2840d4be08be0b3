"""Closed-loop driver: one client sends a workload's requests to
``qcpd.cli.main`` in-process, one after another, and times each.

A run warms up, then makes ``--seconds // PASS_S`` whole passes over the
request list (at least ``MIN_PASSES``).  The first pass is
checked request by request by the output gate, outside the timed region;
later passes must reproduce the first pass's output digests.  Between
requests, untimed, fresh interpreters measure set-up time and run the
workload's representative subcommand as ``python -m qcpd.cli``, and a
fixed reference measures how fast the host runs; times are reported at
the reference host speed ``REFERENCE_S``.

With tracing on, the passes after the first run every request twice back
to back, untraced and traced, so that both timings see the same state of
the machine; only per-layer numbers are reported.  With tracing off only
the end-to-end numbers are.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import qcpd
from qcpd.cli import main as cli_main

from . import OUT_DIR, ROOT, SRC, gate, nproc, tracing, workloads

#: fresh interpreters started for ``setup_s`` and runs of ``cli_s``
DEFAULT_PROBES = 7
#: ``time_reference`` at its 20th percentile over a run on the 2-core machine
#: the benchmark was tuned on; times are reported as if the host ran at this
#: speed
REFERENCE_S = 1.5e-3
#: passes per run at least, whatever ``--seconds`` says
MIN_PASSES = 3
#: nominal time of one pass of any workload (4-9 s on a shared 2-core
#: machine); a run makes ``--seconds // PASS_S`` passes, so the count does
#: not depend on how fast the machine happens to be
PASS_S = 6.0

_SETUP_PROBE = """\
import contextlib, io, json, sys
from qcpd.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
print("ready", flush=True)
"""


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failures: list[int] = field(default_factory=list)
    spans: list[tuple] | None = None
    #: with tracing, the untraced run of each request next to its traced run
    twins: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def call(main, argv) -> tuple[float, object, str]:
    """Run one command line; return (seconds, exit code or error, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed request, not a dead run
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return elapsed, rc, out.getvalue()


def _digest(rc, text: str) -> str:
    return hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()


def run_pass(requests, reference: Pass | None, tracer: tracing.Tracer | None = None,
             corrupt: bool = False, problems: list[str] | None = None, after=None) -> Pass:
    """One pass over the list.  Without ``reference`` every output goes
    through the gate; with it, outputs must match the reference digests.
    With ``tracer`` each request also runs untraced, next to its traced
    run (its ``twins`` time).  ``after(i)`` runs, untimed, after request ``i``."""
    result = Pass()
    traced_main = tracer.wrap("cli", cli_main) if tracer is not None else None
    for i, request in enumerate(requests):
        digests = []
        if tracer is None:
            elapsed, rc, out = call(cli_main, request.argv)
        else:
            # untraced and traced back to back, in alternating order so that
            # neither side always finds the caches warm
            tracer.request = i
            runs = {}
            for traced in (False, True) if i % 2 == 0 else (True, False):
                with tracer.installed() if traced else contextlib.nullcontext():
                    runs[traced] = call(traced_main if traced else cli_main, request.argv)
            twin, twin_rc, twin_out = runs[False]
            result.twins.append(twin)
            digests.append(_digest(twin_rc, twin_out))
            elapsed, rc, out = runs[True]
        result.latencies.append(elapsed)
        if corrupt and i == 0:
            out = out[: out.rstrip("\n").rfind("\n") + 1]
        result.digests.append(_digest(rc, out))
        digests.append(result.digests[-1])
        if reference is None:
            reason = gate.check(request, rc, out)
        elif any(d != reference.digests[i] for d in digests) or i in reference.failures:
            reason = f"{' '.join(request.argv)}: output differs from the first pass"
        else:
            reason = None
        if reason is not None:
            result.failures.append(i)
            if problems is not None:
                problems.append(reason)
        if after is not None:
            after(i)
    if tracer is not None:
        result.spans = tracer.spans
    return result


def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def _reference_step(x: float) -> float:
    return x * x - 0.5 * x + 1.0


def time_reference() -> float:
    """Time a fixed mix of interpreted float arithmetic, calls and small
    numpy operations that does not touch qcpd: how fast the host runs now."""
    start = perf_counter()
    total = 0.0
    for i in range(8_000):
        total += _reference_step(i * 1e-3)
    a = np.linspace(0.0, 1.0, 1_000)
    for _ in range(80):
        a = np.sqrt(a * a + 1.0) - 1.0
    return perf_counter() - start


class Probes:
    """``repeats`` set-up and ``repeats`` CLI runs in fresh interpreters, at
    evenly spaced points between the requests of the first ``MIN_PASSES``
    passes, so that they sample the whole run rather than one moment of it.

    A set-up probe times a fresh interpreter from start to ready (import
    plus warm-up); a CLI probe times the workload's representative
    subcommand as ``python -m qcpd.cli`` and checks its output."""

    def __init__(self, workload: str, seed: int, repeats: int, list_len: int, problems: list[str]):
        self.warmup = json.dumps([list(a) for a in workloads.warmup(workload)])
        self.request = workloads.cli_probe(workload, seed)
        self.problems = problems
        self.list_len = list_len
        self.setup: list[float] = []
        self.cli: list[float] = []
        self.reference: list[float] = []
        self.failed = 0
        self.slots: dict[int, list[bool]] = {}
        span = MIN_PASSES * list_len
        for j in range(2 * repeats):
            self.slots.setdefault(int((j + 0.5) * span / (2 * repeats)), []).append(j % 2 == 0)

    def after(self, pass_index: int):
        def run_slot(i: int) -> None:
            self.reference.append(time_reference())
            for is_setup in self.slots.get(pass_index * self.list_len + i, ()):
                self.probe_setup() if is_setup else self.probe_cli()
        return run_slot

    def probe_setup(self) -> None:
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _SETUP_PROBE, self.warmup], cwd=ROOT, env=_subprocess_env(),
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        self.setup.append(elapsed)

    def probe_cli(self) -> None:
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qcpd.cli", *self.request.argv], cwd=ROOT, env=_subprocess_env(),
            capture_output=True, text=True, timeout=120,
        )
        self.cli.append(perf_counter() - start)
        reason = gate.check(self.request, proc.returncode, proc.stdout)
        if reason is not None:
            self.failed += 1
            self.problems.append(f"subprocess {reason}")


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str, seed: int, blas_threads: str | None) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": qcpd.active_backend(),
        "qcpd": qcpd.__version__,
        "git_sha": _git_sha(),
    }


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: per-layer metrics ``<span>.<statistic>`` reported from a traced run
LAYER_STATS = (
    ("online_opt.optimize_strengths", ("calls", "busy_s", "profile_evals")),
    ("global_bound.critical_overlap", ("calls", "busy_s")),
    ("global_bound.optimal_global", ("self_s",)),
    ("global_bound.validate_unambiguous", ("busy_s",)),
    ("verification.oracle_equivalence", ("busy_s",)),
    ("verification.central_equality", ("busy_s",)),
    ("verification.recursion_agreement", ("busy_s",)),
    ("verification.gram_feasibility", ("busy_s",)),
    ("core.enumerate_strategy", ("busy_s",)),
    ("online_opt.closed_form_strengths", ("busy_s",)),
    ("online_opt.recursive_strengths", ("busy_s",)),
    ("core.StrengthSchedule", ("calls", "busy_s", "work")),
    ("core.evaluate_strategy", ("self_s",)),
    ("kernels.detection_profile", ("calls", "busy_s", "work")),
    ("kernels.simulate_counts", ("calls", "busy_s", "work")),
    ("montecarlo.run_experiment", ("self_s",)),
    ("cli", ("self_s",)),
)
_EMPTY = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0, "profile_evals": 0}


def layer_metrics(traced: list[Pass]) -> dict[str, tuple[float, str]]:
    """Per-layer numbers: counts from one traced pass (they repeat exactly),
    times as medians over the traced passes."""
    summaries = [tracing.summarize(p.spans) for p in traced]

    def stat(span: str, key: str) -> float:
        if not key.endswith("_s"):
            return summaries[0].get(span, _EMPTY)[key]
        return statistics.median(s.get(span, _EMPTY)[key] for s in summaries)

    metrics = {}
    for span, keys in LAYER_STATS:
        for key in keys:
            name = tracing.WORK[span][0] if key == "work" else key
            metrics[f"{span}.{name}"] = (stat(span, key), "s" if key.endswith("_s") else "count")
    metrics["online_opt.fl_sl.busy_s"] = (statistics.median(
        s.get("online_opt.fl_solution", _EMPTY)["busy_s"] + s.get("online_opt.sl_solution", _EMPTY)["busy_s"]
        for s in summaries
    ), "s")
    busy, steps = stat("kernels.simulate_counts", "busy_s"), stat("kernels.simulate_counts", "work")
    metrics["kernels.simulate_counts.ns_per_trial_step"] = (busy / steps * 1e9 if steps else 0.0, "ns")
    overhead = sum(p.wall_s for p in traced) / sum(sum(p.twins) for p in traced) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def _count_mismatch(traced: list[Pass]) -> str | None:
    keys = ("calls", "work", "profile_evals")
    first = {k: tuple(v[key] for key in keys) for k, v in tracing.summarize(traced[0].spans).items()}
    for p in traced[1:]:
        other = {k: tuple(v[key] for key in keys) for k, v in tracing.summarize(p.spans).items()}
        if other != first:
            return "per-layer counts differ between traced passes"
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, count: int = workloads.DEFAULT_COUNT,
        probes: int = DEFAULT_PROBES, corrupt: bool = False) -> dict:
    """One benchmark run; returns the result record (see ``run.py``)."""
    requests = workloads.build(workload, seed, count)
    for argv in workloads.warmup(workload):
        call(cli_main, argv)
    problems: list[str] = []
    oracle = gate.kernel_oracles(seed)
    if oracle is not None:
        problems.append(oracle)

    probe = None if trace else Probes(workload, seed, probes, len(requests), problems)
    first = run_pass(requests, None, corrupt=corrupt, problems=problems, after=probe and probe.after(0))
    total = max(MIN_PASSES, int(seconds // PASS_S))
    untraced, traced = [first], []
    if trace:  # a traced pass runs the list twice
        traced = [run_pass(requests, first, tracing.Tracer(), problems=problems)
                  for _ in range(max(1, (total - 1) // 2))]
    else:
        untraced += [run_pass(requests, first, problems=problems, after=probe.after(k))
                     for k in range(1, total)]

    attempted = sum(len(p.latencies) for p in untraced + traced)
    failed = sum(len(p.failures) for p in untraced + traced)
    samples: dict[str, int] = {"passes": len(untraced), "requests_per_pass": len(requests)}
    if trace:
        mismatch = _count_mismatch(traced)
        if mismatch is not None:
            problems.append(mismatch)
        metrics = layer_metrics(traced)
        samples["traced_passes"] = len(traced)
    else:
        # On a shared machine the same code runs up to 1.5x slower in spells
        # that last from a fraction of a second to minutes.  Each request and
        # the CLI probe are taken at their fastest, which follows the short
        # spells least.  For the long ones, every time is scaled by how fast
        # the fixed reference ran in this run, at the quantile the fastest
        # of the passes sits at: 1 / (passes + 1).
        per_request = [min(p.latencies[i] for p in untraced) for i in range(len(requests))]
        host = statistics.quantiles(probe.reference, n=len(untraced) + 1)[0]
        unscaled = {
            "setup_s": (statistics.median(probe.setup), "s"),
            "wall_s": (sum(per_request), "s"),
            "job_ms.p50": (statistics.median(per_request) * 1e3, "ms"),
            "job_ms.p90": (_quantile(per_request, 90) * 1e3, "ms"),
            "cli_s": (min(probe.cli), "s"),
        }
        attempted += len(probe.cli)
        failed += probe.failed
        metrics = {name: (value * REFERENCE_S / host, unit) for name, (value, unit) in unscaled.items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        samples.update({"wall_s": len(untraced), "job_ms": len(per_request),
                        "setup_s": len(probe.setup), "cli_s": len(probe.cli),
                        "reference": len(probe.reference)})
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": metrics,
        "samples": samples,
        "pass_wall_s": {"untraced": [p.wall_s for p in untraced], "traced": [p.wall_s for p in traced]},
        "latencies_s": [p.latencies for p in untraced],
        "probe_s": None if trace else {"setup": probe.setup, "cli": probe.cli, "reference": probe.reference},
        "unscaled": None if trace else {"host_reference_s": host, **{k: v for k, (v, _) in unscaled.items()}},
        "outputs_digest": hashlib.sha256("".join(first.digests).encode()).hexdigest(),
        "problems": problems,
        "spans": traced[0].spans if trace else None,
    }


def write_record(record: dict, env: dict, trace: bool) -> str:
    """Write the run's result (and spans) under ``perfbench-out/``."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{env['workload']}-seed{env['seed']}-trace{int(trace)}"
    body = {k: v for k, v in record.items() if k != "spans"}
    body["environment"] = env
    body["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")
    if record["spans"] is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for request, span_id, parent, name, start, end, work in record["spans"]:
                handle.write(json.dumps({
                    "request": request, "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "work": work,
                }) + "\n")
    return str(path.relative_to(ROOT))
