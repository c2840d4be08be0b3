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

Each suite checks one stack per chain length rather than one validated
object per case: a column of overlaps with one schedule per row, walked
by one stacked ``kernels.detection_profile`` call, enumerated by one
``_path_profiles`` call, and held against the broadcast efficiency and
Gram formulas with one batched eigensolve.  Only ``recursion_agreement``
stays per case, on the forward substitution it checks.  Each suite yields
one ``(residual, case)`` pair per case, in the order of the one-case loops
(``run_all_per_case`` in ``tests/oracles.py``, which a test holds equal),
and :func:`_suite` folds them into the worst residual and the case
attaining it; the CLI's ``verify`` subcommand renders the results and
sets the exit code.  The fault-injection mode deliberately perturbs one
strength so the harness can demonstrate that a broken schedule is
actually caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import kernels
from .core import ENUMERATION_CAP, _check_probabilities, _path_profiles, check_strength
from .global_bound import (
    PSD_TOL,
    _gram_powers,
    _tent_efficiencies,
    _unambiguous_spectra,
    critical_overlap,
    global_success,
)
from .online_opt import _closed_form_xs, _recursive_xs

ORACLE_TOL = 1e-12
CENTRAL_TOL = 1e-10
RECURSION_TOL = 1e-10
#: the eigenvalue tolerance of the feasibility check itself, so a case
#: fails the suite exactly when ``validate_unambiguous`` rejects it
GRAM_TOL = PSD_TOL

#: random schedules per chain length in :func:`oracle_equivalence`
_SCHEDULES_PER_N = 25
#: overlaps per side of the critical overlap in :func:`gram_feasibility`
_GRAM_SIDE = 5
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


class _Stack(NamedTuple):
    """One chain length's closed-form schedules, one per row: the overlap
    column ``cs``, the ``(R, n-1)`` strengths and their ``(R, n)``
    profiles."""

    n: int
    cs: np.ndarray
    xs: np.ndarray
    profiles: np.ndarray


def _profiles(cs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Checked profiles of the schedules stacked in ``xs``: the checks a
    ``StrengthSchedule`` and a ``DetectionProfile`` make, on the stack."""
    check_strength(cs[:, None], xs)
    profiles = kernels.detection_profile(cs, xs)
    _check_probabilities(profiles)
    return profiles


def _canonical_solutions() -> list[_Stack]:
    """Closed-form solutions on the canonical grid: ``n in 2..25`` by
    ``c in {0, 0.05, .., 0.5}``, one stack per ``n`` (264 cases)."""
    cs = np.array([float(round(c, 10)) for c in np.arange(0.0, 0.5001, 0.05)])
    stacks = []
    for n in range(2, 26):
        xs = _closed_form_xs(n, cs[:, None])
        stacks.append(_Stack(n, cs, xs, _profiles(cs, xs)))
    return stacks


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
            cs = np.empty(_SCHEDULES_PER_N)
            xs = np.empty((_SCHEDULES_PER_N, n - 1))
            for row in range(_SCHEDULES_PER_N):
                c = float(rng.uniform(0.0, 0.95))
                lo = c if c > 0.0 else 0.05
                hi = min(1.0 / c, 3.0) if c > 0.0 else 3.0
                cs[row] = c
                xs[row] = rng.uniform(lo, hi, size=n - 1)
            fast = _profiles(cs, xs)
            slow = _path_profiles(cs, xs)
            _check_probabilities(slow)
            for c, gaps in zip(cs.tolist(), np.abs(fast - slow)):
                yield _worst_entry(n, c, gaps)

    return _suite("oracle_equivalence", ORACLE_TOL, results())


def central_equality(
    solutions: Sequence[_Stack], inject_fault: bool = False
) -> SuiteResult:
    """Analytic schedule's profile vs. the closed-form efficiency vector.

    ``solutions`` are the closed-form stacks of the canonical grid
    ``n in 2..25``, ``c in {0, 0.05, .., 0.5}``, as :func:`run_all` builds
    them.  With ``inject_fault`` the first strength of every schedule is
    scaled by a factor of 1.001, which must push the residual far past the
    threshold.
    """

    def results() -> Iterator[_Pair]:
        for n, cs, xs, profiles in solutions:
            if inject_fault:
                # scale down: the first strength is always >= 1, so the
                # faulted schedule stays admissible and the corruption is
                # caught by the residual check, not by input validation
                xs = xs.copy()
                xs[:, 0] /= _FAULT_FACTOR
                profiles = _profiles(cs, xs)
            all_gaps = np.abs(profiles - _tent_efficiencies(n, cs[:, None]))
            # a row's mean over a C-contiguous stack is that of the row alone
            averages = profiles.mean(axis=1).tolist()
            for c, average, gaps in zip(cs.tolist(), averages, all_gaps):
                mean_gap = abs(average - global_success(n, c))
                j = int(np.argmax(gaps))
                position = j + 1 if gaps[j] >= mean_gap else None
                yield max(float(gaps[j]), mean_gap), _case(n, c, position)

    return _suite("central_equality", CENTRAL_TOL, results())


def recursion_agreement(solutions: Sequence[_Stack]) -> SuiteResult:
    """Forward-substitution strengths (those of ``recursive_strengths``,
    without its schedule and profile) vs. the closed-form ``solutions`` of
    the canonical grid, as for :func:`central_equality`; one case at a
    time, as the recursion is the independent route."""

    def results() -> Iterator[_Pair]:
        for n, cs, xs, _ in solutions:
            for c, direct in zip(cs.tolist(), xs):
                yield _worst_entry(n, c, np.abs(direct - _recursive_xs(n, c)))

    return _suite("recursion_agreement", RECURSION_TOL, results())


def gram_feasibility() -> SuiteResult:
    """Positivity of the efficiency vector on either side of the threshold.

    Below the critical overlap the vector must pass the full check: the
    residual is the worst eigenvalue deficit, or 1.0 if an efficiency is
    not a probability.  Above it the range check must already fail: the
    residual is 0.0 if it does and 1.0 if it passes.  The suite stops at
    the first failing case.  Odd lengths 5..31 only, to keep eigen-solves
    few; even lengths 6..30 have thresholds too and meet the same criteria.
    """

    def results() -> Iterator[_Pair]:
        for n in range(5, 32, 2):
            threshold = critical_overlap(n)
            cs = np.concatenate(
                (
                    np.linspace(0.05, threshold - 0.011, _GRAM_SIDE),
                    np.linspace(threshold + 0.011, 0.99, _GRAM_SIDE),
                )
            )
            min_eigs, range_ok = _unambiguous_spectra(
                _gram_powers(n, cs[:, None, None]), _tent_efficiencies(n, cs[:, None])
            )
            for i, (c, min_eig, ok) in enumerate(
                zip(cs.tolist(), min_eigs.tolist(), range_ok.tolist())
            ):
                below = i < _GRAM_SIDE
                if not below:
                    residual = 1.0 if ok else 0.0
                elif ok:
                    residual = max(0.0, -min_eig)
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

    The canonical closed-form stacks are built once here, shared by the
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
