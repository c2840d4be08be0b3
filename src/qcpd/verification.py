"""Cross-module consistency suites.

Four independent computations of the same quantities are compared against
each other rather than against hard-coded numbers:

* ``oracle_equivalence`` — the O(n) forward recursion against brute-force
  path enumeration on random schedules.
* ``central_equality`` — the analytic schedule's detection profile against
  the closed-form efficiency vector, entrywise and in the mean.
* ``recursion_agreement`` — the forward-substitution construction of the
  schedule against the closed form.
* ``gram_feasibility`` — the efficiency vector against the positivity
  check on either side of the critical overlap.

Each suite reports its worst residual and the case attaining it; the CLI's
``verify`` subcommand renders the results and sets the exit code.  The
fault-injection mode deliberately perturbs one strength so the harness can
demonstrate that a broken schedule is actually caught.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ENUMERATION_CAP, Overlap, StrengthSchedule, enumerate_strategy, evaluate_strategy
from .global_bound import (
    build_gram,
    critical_overlap,
    global_efficiencies,
    global_success,
    validate_unambiguous,
)
from .online_opt import closed_form_strengths, recursive_strengths

ORACLE_TOL = 1e-12
CENTRAL_TOL = 1e-10
RECURSION_TOL = 1e-10
GRAM_TOL = 1e-9

_FAULT_FACTOR = 1.001


@dataclass(frozen=True, slots=True)
class SuiteResult:
    """Outcome of one consistency suite."""

    name: str
    passed: bool
    max_residual: float
    threshold: float
    cases: int
    worst_case: dict | None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "threshold": self.threshold,
            "cases": self.cases,
            "worst_case": self.worst_case,
        }


def _case(n: int, c: float, position: int | None) -> dict:
    return {"n": n, "c": c, "position": position}


def oracle_equivalence(
    n_max: int = 8, seed: int = 0, schedules_per_n: int = 25
) -> SuiteResult:
    """Forward recursion vs. brute-force enumeration on random schedules,
    for every ``n`` in ``2..n_max`` (rejected, not clamped, beyond the cap)."""
    top = int(n_max)
    if not 2 <= top <= ENUMERATION_CAP:
        raise ValueError(f"n_max must lie in 2..{ENUMERATION_CAP}, got {n_max}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case: dict | None = None
    cases = 0
    for n in range(2, top + 1):
        for _ in range(schedules_per_n):
            c = float(rng.uniform(0.0, 0.95))
            lo = c if c > 0.0 else 0.05
            hi = min(1.0 / c, 3.0) if c > 0.0 else 3.0
            xs = rng.uniform(lo, hi, size=n - 1)
            schedule = StrengthSchedule(
                n=n, strengths=tuple(float(v) for v in xs), overlap=Overlap(c)
            )
            fast = np.asarray(evaluate_strategy(schedule).per_position)
            slow = np.asarray(enumerate_strategy(schedule).per_position)
            gaps = np.abs(fast - slow)
            j = int(np.argmax(gaps))
            cases += 1
            if gaps[j] > worst:
                worst = float(gaps[j])
                worst_case = _case(n, c, j + 1)
    return SuiteResult(
        name="oracle_equivalence",
        passed=worst <= ORACLE_TOL,
        max_residual=worst,
        threshold=ORACLE_TOL,
        cases=cases,
        worst_case=worst_case,
    )


def central_equality(inject_fault: bool = False) -> SuiteResult:
    """Analytic schedule's profile vs. the closed-form efficiency vector.

    Runs the canonical grid ``n in 2..25``, ``c in {0, 0.05, .., 0.5}``.
    With ``inject_fault`` the first strength of every schedule is scaled by
    a factor of 1.001, which must push the residual far past the threshold.
    """
    worst = 0.0
    worst_case: dict | None = None
    cases = 0
    for n in range(2, 26):
        for c in np.arange(0.0, 0.5001, 0.05):
            c = float(round(c, 10))
            solution = closed_form_strengths(n, c)
            xs = solution.schedule.as_array()
            if inject_fault:
                # scale down: the first strength is always >= 1, so the
                # faulted schedule stays admissible and the corruption is
                # caught by the residual check, not by input validation
                xs = xs.copy()
                xs[0] /= _FAULT_FACTOR
                schedule = StrengthSchedule(
                    n=n, strengths=tuple(xs), overlap=Overlap(c)
                )
                profile = evaluate_strategy(schedule)
            else:
                profile = solution.profile
            target = global_efficiencies(n, c)
            gaps = np.abs(np.asarray(profile.per_position) - target.as_array())
            mean_gap = abs(profile.average - global_success(n, c))
            j = int(np.argmax(gaps))
            local = max(float(gaps[j]), mean_gap)
            cases += 1
            if local > worst:
                worst = local
                worst_case = _case(n, c, j + 1 if gaps[j] >= mean_gap else None)
    return SuiteResult(
        name="central_equality",
        passed=worst <= CENTRAL_TOL,
        max_residual=worst,
        threshold=CENTRAL_TOL,
        cases=cases,
        worst_case=worst_case,
    )


def recursion_agreement() -> SuiteResult:
    """Forward-substitution schedule vs. the closed form on ``c <= 1/2``."""
    worst = 0.0
    worst_case: dict | None = None
    cases = 0
    for n in range(2, 26):
        for c in np.arange(0.0, 0.5001, 0.05):
            c = float(round(c, 10))
            direct = closed_form_strengths(n, c).schedule.as_array()
            rebuilt = recursive_strengths(n, c).schedule.as_array()
            gaps = np.abs(direct - rebuilt)
            j = int(np.argmax(gaps))
            cases += 1
            if gaps[j] > worst:
                worst = float(gaps[j])
                worst_case = _case(n, c, j + 1)
    return SuiteResult(
        name="recursion_agreement",
        passed=worst <= RECURSION_TOL,
        max_residual=worst,
        threshold=RECURSION_TOL,
        cases=cases,
        worst_case=worst_case,
    )


def gram_feasibility() -> SuiteResult:
    """Positivity of the efficiency vector on either side of the threshold.

    Below the critical overlap the vector must pass the full check (with
    the worst eigenvalue deficit as the residual); above it the range check
    must already fail.  Odd lengths 5..31 — even lengths below 32 have no
    interior threshold to straddle.
    """
    worst = 0.0
    worst_case: dict | None = None
    cases = 0
    for n in range(5, 32, 2):
        threshold = critical_overlap(n)
        if threshold is None:  # pragma: no cover - odd n always has one
            continue
        below = np.linspace(0.05, threshold - 0.011, 5)
        above = np.linspace(threshold + 0.011, 0.99, 5)
        for c in below:
            c = float(c)
            report = validate_unambiguous(build_gram(n, c), global_efficiencies(n, c))
            deficit = max(0.0, -report.min_eigenvalue)
            cases += 1
            if not report.feasible:
                return SuiteResult(
                    name="gram_feasibility",
                    passed=False,
                    max_residual=deficit,
                    threshold=GRAM_TOL,
                    cases=cases,
                    worst_case=_case(n, c, None),
                )
            if deficit > worst:
                worst = deficit
                worst_case = _case(n, c, None)
        for c in above:
            c = float(c)
            report = validate_unambiguous(build_gram(n, c), global_efficiencies(n, c))
            cases += 1
            if report.gamma_range_ok:
                return SuiteResult(
                    name="gram_feasibility",
                    passed=False,
                    max_residual=1.0,
                    threshold=GRAM_TOL,
                    cases=cases,
                    worst_case=_case(n, c, None),
                )
    return SuiteResult(
        name="gram_feasibility",
        passed=worst <= GRAM_TOL,
        max_residual=worst,
        threshold=GRAM_TOL,
        cases=cases,
        worst_case=worst_case,
    )


def run_all(
    n_max: int = 8, seed: int = 0, inject_fault: bool = False
) -> list[SuiteResult]:
    """Run every suite; ``inject_fault`` sabotages the central-equality one."""
    return [
        oracle_equivalence(n_max=n_max, seed=seed),
        central_equality(inject_fault=inject_fault),
        recursion_agreement(),
        gram_feasibility(),
    ]
