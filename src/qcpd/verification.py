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

Each suite yields one ``(residual, case)`` pair per case, and
:func:`_suite` folds them into the worst residual and the case attaining
it; the CLI's ``verify`` subcommand renders the results and sets the exit
code.  The fault-injection mode deliberately perturbs one strength so the
harness can demonstrate that a broken schedule is actually caught.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import ENUMERATION_CAP, Overlap, StrengthSchedule, enumerate_strategy, evaluate_strategy
from .global_bound import (
    PSD_TOL,
    build_gram,
    critical_overlap,
    global_efficiencies,
    global_success,
    validate_unambiguous,
)
from .online_opt import OnlineSolution, _recursive_xs, closed_form_strengths

ORACLE_TOL = 1e-12
CENTRAL_TOL = 1e-10
RECURSION_TOL = 1e-10
#: the eigenvalue tolerance of the feasibility check itself, so a case
#: fails the suite exactly when ``validate_unambiguous`` rejects it
GRAM_TOL = PSD_TOL

#: random schedules per chain length in :func:`oracle_equivalence`
_SCHEDULES_PER_N = 25
_FAULT_FACTOR = 1.001

_Pair = tuple[float, dict | None]


@dataclass(frozen=True, slots=True)
class SuiteResult:
    """Outcome of one consistency suite."""

    name: str
    passed: bool
    max_residual: float
    threshold: float
    cases: int
    worst_case: dict | None


def _suite(name: str, threshold: float, results: Iterable[_Pair]) -> SuiteResult:
    """Fold ``(residual, case)`` pairs, in order, into a :class:`SuiteResult`.

    Every pair counts as a case.  Only a strictly larger residual replaces
    the worst, so on a tie the earlier case is reported.  ``passed`` is
    ``max_residual <= threshold``.
    """
    worst, worst_case, cases = 0.0, None, 0
    for residual, case in results:
        cases += 1
        if residual > worst:
            worst, worst_case = residual, case
    return SuiteResult(
        name=name,
        passed=worst <= threshold,
        max_residual=worst,
        threshold=threshold,
        cases=cases,
        worst_case=worst_case,
    )


def _case(n: int, c: float, position: int | None) -> dict:
    return {"n": n, "c": c, "position": position}


def _worst_entry(n: int, c: float, gaps: np.ndarray) -> _Pair:
    """The largest of the entrywise ``gaps`` and its 1-based position."""
    j = int(np.argmax(gaps))
    return float(gaps[j]), _case(n, c, j + 1)


def _canonical_solutions() -> list[OnlineSolution]:
    """Closed-form solutions on the canonical grid: ``n in 2..25`` by
    ``c in {0, 0.05, .., 0.5}``, n-major (264 cases)."""
    cs = [float(round(c, 10)) for c in np.arange(0.0, 0.5001, 0.05)]
    return [closed_form_strengths(n, c) for n, c in itertools.product(range(2, 26), cs)]


def oracle_equivalence(n_max: int = 8, seed: int = 0) -> SuiteResult:
    """Forward recursion vs. brute-force enumeration on random schedules,
    for every ``n`` in ``2..n_max`` (rejected, not clamped, beyond the cap)."""
    top = int(n_max)
    if not 2 <= top <= ENUMERATION_CAP:
        raise ValueError(f"n_max must lie in 2..{ENUMERATION_CAP}, got {n_max}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)

    def results() -> Iterator[_Pair]:
        for n in range(2, top + 1):
            for _ in range(_SCHEDULES_PER_N):
                c = float(rng.uniform(0.0, 0.95))
                lo = c if c > 0.0 else 0.05
                hi = min(1.0 / c, 3.0) if c > 0.0 else 3.0
                xs = rng.uniform(lo, hi, size=n - 1)
                schedule = StrengthSchedule(n=n, strengths=xs, overlap=Overlap(c))
                fast = evaluate_strategy(schedule).per_position
                slow = enumerate_strategy(schedule).per_position
                yield _worst_entry(n, c, np.abs(fast - slow))

    return _suite("oracle_equivalence", ORACLE_TOL, results())


def central_equality(
    solutions: Sequence[OnlineSolution], inject_fault: bool = False
) -> SuiteResult:
    """Analytic schedule's profile vs. the closed-form efficiency vector.

    ``solutions`` are the closed-form solutions of the canonical grid
    ``n in 2..25``, ``c in {0, 0.05, .., 0.5}``, as :func:`run_all` builds
    them.  With ``inject_fault`` the first strength of every schedule is
    scaled by a factor of 1.001, which must push the residual far past the
    threshold.
    """

    def results() -> Iterator[_Pair]:
        for solution in solutions:
            n, c = solution.schedule.n, solution.schedule.overlap.c
            profile = solution.profile
            if inject_fault:
                # scale down: the first strength is always >= 1, so the
                # faulted schedule stays admissible and the corruption is
                # caught by the residual check, not by input validation
                xs = solution.schedule.strengths.copy()
                xs[0] /= _FAULT_FACTOR
                schedule = StrengthSchedule(n=n, strengths=xs, overlap=Overlap(c))
                profile = evaluate_strategy(schedule)
            gaps = np.abs(profile.per_position - global_efficiencies(n, c))
            mean_gap = abs(profile.average - global_success(n, c))
            j = int(np.argmax(gaps))
            position = j + 1 if gaps[j] >= mean_gap else None
            yield max(float(gaps[j]), mean_gap), _case(n, c, position)

    return _suite("central_equality", CENTRAL_TOL, results())


def recursion_agreement(solutions: Sequence[OnlineSolution]) -> SuiteResult:
    """Forward-substitution strengths (those of ``recursive_strengths``,
    without its schedule and profile) vs. the closed-form ``solutions`` of
    the canonical grid, as for :func:`central_equality`."""

    def results() -> Iterator[_Pair]:
        for solution in solutions:
            n, c = solution.schedule.n, solution.schedule.overlap.c
            direct = solution.schedule.strengths
            rebuilt = _recursive_xs(n, c)
            yield _worst_entry(n, c, np.abs(direct - rebuilt))

    return _suite("recursion_agreement", RECURSION_TOL, results())


def gram_feasibility() -> SuiteResult:
    """Positivity of the efficiency vector on either side of the threshold.

    Below the critical overlap the vector must pass the full check: the
    residual is the worst eigenvalue deficit, or 1.0 if an efficiency is
    not a probability.  Above it the range check must already fail: the
    residual is 0.0 if it does and 1.0 if it passes.  The suite stops at
    the first failing case.  Odd lengths 5..31 — even lengths below 32 have
    no interior threshold to straddle.
    """

    def results() -> Iterator[_Pair]:
        for n in range(5, 32, 2):
            threshold = critical_overlap(n)
            for below, cs in (
                (True, np.linspace(0.05, threshold - 0.011, 5)),
                (False, np.linspace(threshold + 0.011, 0.99, 5)),
            ):
                for c in cs.tolist():
                    report = validate_unambiguous(build_gram(n, c), global_efficiencies(n, c))
                    if not below:
                        residual = 1.0 if report.gamma_range_ok else 0.0
                    elif report.gamma_range_ok:
                        residual = max(0.0, -report.min_eigenvalue)
                    else:
                        residual = 1.0
                    yield residual, _case(n, c, None)
                    if residual > GRAM_TOL:
                        return

    return _suite("gram_feasibility", GRAM_TOL, results())


def run_all(
    n_max: int = 8, seed: int = 0, inject_fault: bool = False
) -> list[SuiteResult]:
    """Run every suite; ``inject_fault`` sabotages the central-equality one.

    The canonical closed-form solutions are built once here, shared by the
    two suites that check them and dropped on return, so every call
    recomputes everything it checks.
    """
    oracle = oracle_equivalence(n_max=n_max, seed=seed)
    solutions = _canonical_solutions()
    return [
        oracle,
        central_equality(solutions, inject_fault=inject_fault),
        recursion_agreement(solutions),
        gram_feasibility(),
    ]
