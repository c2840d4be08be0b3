"""The public surface, and the names the benchmark in ``perfbench/`` reads.

``perfbench``'s own tests run apart from this suite, so these checks make
a rename that would break the benchmark fail here too.  Run from the
repository root (``python -m pytest``), which puts ``perfbench`` on the
import path.
"""

from __future__ import annotations

import importlib

import qcpd
from qcpd import cli

PUBLIC_NAMES = [
    "InvalidMeasurementError",
    "OutOfValidityError",
    "Overlap",
    "SingularityError",
    "StrengthSchedule",
    "active_backend",
    "best_online",
    "build_gram",
    "check_strength",
    "closed_form_strengths",
    "critical_overlap",
    "enumerate_strategy",
    "evaluate_strategy",
    "fl_solution",
    "fl_success_asymptotic",
    "fl_success_exact",
    "global_efficiencies",
    "global_success",
    "optimal_global",
    "optimize_strengths",
    "primed_efficiencies",
    "primed_success",
    "recursive_strengths",
    "run_experiment",
    "simulate_trial",
    "sl_solution",
    "sl_success_asymptotic",
    "validate_unambiguous",
]


def test_public_names():
    assert sorted(qcpd.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(qcpd, name) is not None


def test_every_error_is_a_value_error():
    """One ``except ValueError`` catches every error the package raises."""
    for error in (
        qcpd.InvalidMeasurementError,
        qcpd.OutOfValidityError,
        qcpd.SingularityError,
    ):
        assert error.__bases__ == (ValueError,)


def test_benchmark_modules_import():
    importlib.import_module("perfbench.gate")
    importlib.import_module("perfbench.runner")


def test_traced_layers_resolve():
    tracing = importlib.import_module("perfbench.tracing")
    for module, attr in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"qcpd.{module}"), attr))


def test_names_the_runner_reads():
    assert qcpd.active_backend() == "numpy"
    assert isinstance(qcpd.__version__, str)
    assert set(cli._METHODS) == {"closed", "recursive", "numeric"}


def test_benchmark_gate_passes_a_short_list():
    """The gate's kernel oracle, and four requests of each workload through
    the runner's gated pass: a changed signature that the benchmark calls
    fails here."""
    gate = importlib.import_module("perfbench.gate")
    runner = importlib.import_module("perfbench.runner")
    workloads = importlib.import_module("perfbench.workloads")
    assert gate.kernel_oracles(1) is None
    for workload in workloads.WORKLOADS:
        requests = workloads.build(workload, 1)
        # up to two requests the gate checks by a route of its own (the
        # golden table, verify, a re-run against the scalar walk)
        special = [
            r for r in requests
            if r.kind == "verify" or r.params.get("golden") or r.params.get("exact")
        ]
        picked = (special[:2] + [r for r in requests if r not in special])[:4]
        problems = []
        result = runner.run_pass(picked, None, problems=problems)
        assert result.failures == [] and problems == [], problems
        assert len(result.digests) == 4
