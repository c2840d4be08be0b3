"""The public surface, and the names the benchmark in ``perfbench/`` reads.

These checks make a rename that would break the benchmark fail here, next
to ``perfbench``'s own tests, which ``testpaths`` collects with this
suite.  Run from the repository root (``python -m pytest``), which puts
``perfbench`` on the import path.
"""

from __future__ import annotations

import importlib
import math
import re
from pathlib import Path

import pytest

import qcpd
from qcpd import cli

PUBLIC_NAMES = [
    "InvalidMeasurementError",
    "OutOfValidityError",
    "Overlap",
    "StrengthSchedule",
    "build_gram",
    "check_strength",
    "closed_form_strengths",
    "critical_overlap",
    "enumerate_strategy",
    "evaluate_strategy",
    "fl_solution",
    "fl_success_asymptotic",
    "global_efficiencies",
    "global_success",
    "optimal_global",
    "optimize_strengths",
    "recursive_strengths",
    "run_experiment",
    "sl_solution",
    "sl_success_asymptotic",
    "validate_unambiguous",
]


def test_public_names():
    assert sorted(qcpd.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(qcpd, name) is not None
    # the two second routes live in their modules, where the tests and
    # perfbench/gate.py import them, and best_online in online_opt, where
    # the CLI imports it; the package does not re-export them
    for name in ("simulate_trial", "fl_success_exact", "best_online"):
        assert not hasattr(qcpd, name)


def test_readme_quick_start_runs():
    """README's Python quick start runs as written, and its claims hold."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    sol, report = scope["sol"], scope["report"]
    bound = qcpd.global_success(10, 0.4)
    assert abs(sol.success - bound) <= 4 * math.ulp(bound)
    assert report.mismatched_detections == 0
    assert abs(report.empirical_success - sol.success) < 0.01
    for vector in (sol.schedule.strengths, report.detections_per_position):
        assert not vector.flags.writeable


def test_readme_names_every_public_name():
    """README names each ``qcpd.__all__`` name in code, and its count of
    them is the package's."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    pieces = readme.split("```")
    code = pieces[1::2] + re.findall(r"`([^`\n]+)`", "".join(pieces[::2]))
    named = set(re.findall(r"\w+", " ".join(code)))
    assert sorted(set(qcpd.__all__) - named) == []
    (count,) = re.findall(r"`qcpd\.__all__` names [^.]*?: (\d+) names\.", readme)
    assert int(count) == len(qcpd.__all__)


def test_every_error_is_a_value_error():
    """One ``except ValueError`` catches every error the package raises."""
    for error in (
        qcpd.InvalidMeasurementError,
        qcpd.OutOfValidityError,
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
    # perfbench/test_perfbench.py reads it; it is not a public name
    assert callable(cli.best_online)


def test_one_version_string():
    """``perfbench`` records ``qcpd.__version__``; it is the project's."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == qcpd.__version__


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
