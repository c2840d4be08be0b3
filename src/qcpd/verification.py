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
object per case: a column of overlaps with one schedule per row, checked
and walked by one ``core._stack_profiles`` call, enumerated by one
``_path_profiles`` call, and held against the broadcast efficiency and
Gram formulas with one batched eigensolve of the rows whose eigenvalue is
read.  Only ``recursion_agreement`` runs its forward substitution one case
at a time, as that is the route it checks.  A suite yields one
:class:`_Cases` per stack, every case's residual in one array, and
:func:`_fold` takes the worst of them, building a case dict for the
reported case only.  The result is that of the one-case loops
(``run_all_per_case`` in ``tests/oracles.py``, which a test holds equal).
The CLI's ``verify`` subcommand renders the results and sets the exit
code.  The fault-injection mode deliberately perturbs one strength so the
harness can demonstrate that a broken schedule is actually caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    ENUMERATION_CAP,
    OutOfValidityError,
    _check_probabilities,
    _path_profiles,
    _stack_profiles,
)
from .global_bound import (
    PSD_TOL,
    _gram_powers,
    _in_range,
    _tent_efficiencies,
    _tent_powers,
    _unambiguous_spectra,
    critical_overlap,
    global_success,
)
from .kernels import _uniforms
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


@dataclass(frozen=True, slots=True)
class SuiteResult:
    """Outcome of one consistency suite."""

    name: str
    passed: bool
    max_residual: float
    threshold: float
    cases: int
    worst_case: dict | None


class _Cases(NamedTuple):
    """One stack's cases, one per row: the chain length ``n``, the overlap
    column ``cs``, each row's residual and the 1-based position of its
    worst entry, 0 where the residual is not one entry's."""

    n: int
    cs: np.ndarray
    residuals: np.ndarray
    positions: np.ndarray


def _case(n: int, c: float, position: int | None) -> dict:
    return {"n": n, "c": c, "position": position}


def _fold(name: str, threshold: float, stacks: Iterable[_Cases]) -> SuiteResult:
    """Fold the stacks, in order, into a :class:`SuiteResult`.

    Every row counts as a case.  A stack's worst row is its first largest
    residual, and it replaces the worst so far only when strictly larger,
    so on a tie the earlier case is reported.  The reported case alone
    becomes a dict.  ``passed`` is ``max_residual <= threshold``.
    """
    worst, at, cases = 0.0, None, 0
    for rows in stacks:
        cases += rows.residuals.size
        if rows.residuals.size == 0:
            continue
        i = int(rows.residuals.argmax())
        if rows.residuals[i] > worst:
            worst, at = float(rows.residuals[i]), (rows, i)
    worst_case = None
    if at is not None:
        rows, i = at
        worst_case = _case(rows.n, float(rows.cs[i]), int(rows.positions[i]) or None)
    return SuiteResult(
        name=name,
        passed=worst <= threshold,
        max_residual=worst,
        threshold=threshold,
        cases=cases,
        worst_case=worst_case,
    )


def _worst_entries(n: int, cs: np.ndarray, gaps: np.ndarray) -> _Cases:
    """Each row's largest entrywise gap and its position, the first on a
    tie."""
    return _Cases(n, cs, gaps.max(axis=1), gaps.argmax(axis=1) + 1)


class _Stack(NamedTuple):
    """One chain length's closed-form schedules, one per row: the overlap
    column ``cs``, the ``(R, n-1)`` strengths, their ``(R, n)`` profiles and
    the ``(R, n)`` closed-form efficiencies they must reach."""

    n: int
    cs: np.ndarray
    xs: np.ndarray
    profiles: np.ndarray
    targets: np.ndarray


def _canonical_solutions() -> list[_Stack]:
    """Closed-form solutions on the canonical grid: ``n in 2..25`` by
    ``c in {0, 0.05, .., 0.5}``, one stack per ``n`` (264 cases), the
    schedules and their targets from one power table per ``n``."""
    cs = np.array([float(round(c, 10)) for c in np.arange(0.0, 0.5001, 0.05)])
    stacks = []
    for n in range(2, 26):
        powers = _tent_powers(n, cs[:, None])
        xs = _closed_form_xs(cs[:, None], powers)
        targets = _tent_efficiencies(cs[:, None], powers)
        stacks.append(_Stack(n, cs, xs, _stack_profiles(cs, xs), targets))
    return stacks


def oracle_equivalence(n_max: int = 8, seed: int = 0) -> SuiteResult:
    """Forward recursion vs. brute-force enumeration on random schedules,
    for every ``n`` in ``2..n_max`` (rejected, not clamped, beyond the cap).

    Case ``i`` of chain length ``n`` draws from stream
    ``(n - 2)*25 + i`` of the ``simulate`` generator keyed by ``seed``: its
    overlap from counter 0 and its strengths from counters ``1..n-1``, so a
    chain length's cases do not depend on ``n_max``.  All of a run's
    uniforms come from one :func:`kernels._uniforms` block."""
    top = int(n_max)
    if not 2 <= top <= ENUMERATION_CAP:
        raise ValueError(f"n_max must lie in 2..{ENUMERATION_CAP}, got {n_max}")
    block = _uniforms(seed, 0, _SCHEDULES_PER_N * (top - 1), top)

    def stacks() -> Iterator[_Cases]:
        for n in range(2, top + 1):
            # the overlap in [0, 0.95) and the strengths in [lo, hi)
            u = block[(n - 2) * _SCHEDULES_PER_N : (n - 1) * _SCHEDULES_PER_N, :n]
            cs = 0.95 * u[:, 0]
            drawn = cs > 0.0
            lo = np.where(drawn, cs, 0.05)
            hi = np.minimum(np.divide(1.0, cs, out=np.full_like(cs, 3.0), where=drawn), 3.0)
            xs = lo[:, None] + (hi - lo)[:, None] * u[:, 1:]
            fast = _stack_profiles(cs, xs)
            slow = _path_profiles(cs, xs)
            _check_probabilities(slow)
            yield _worst_entries(n, cs, np.abs(fast - slow))

    return _fold("oracle_equivalence", ORACLE_TOL, stacks())


def central_equality(
    solutions: Sequence[_Stack], inject_fault: bool = False
) -> SuiteResult:
    """Analytic schedule's profile vs. the closed-form efficiency vector.

    ``solutions`` are the closed-form stacks of the canonical grid
    ``n in 2..25``, ``c in {0, 0.05, .., 0.5}``, as :func:`run_all` builds
    them.  A row's residual is its largest entrywise gap, or the gap of
    its mean to :func:`global_success` where that is larger, with no
    position.  With ``inject_fault`` the first strength of every schedule
    is scaled by a factor of 1.001, which must push the residual far past
    the threshold.
    """

    def stacks() -> Iterator[_Cases]:
        for n, cs, xs, profiles, targets in solutions:
            if inject_fault:
                # scale down: the first strength is always >= 1, so the
                # faulted schedule stays admissible and the corruption is
                # caught by the residual check, not by input validation
                xs = xs.copy()
                xs[:, 0] /= _FAULT_FACTOR
                profiles = _stack_profiles(cs, xs)
            worst = _worst_entries(n, cs, np.abs(profiles - targets))
            # a row's mean over a C-contiguous stack is that of the row alone
            means = profiles.mean(axis=1)
            mean_gaps = np.abs(means - [global_success(n, c) for c in cs.tolist()])
            yield _Cases(
                n,
                cs,
                np.maximum(worst.residuals, mean_gaps),
                np.where(worst.residuals >= mean_gaps, worst.positions, 0),
            )

    return _fold("central_equality", CENTRAL_TOL, stacks())


def recursion_agreement(solutions: Sequence[_Stack]) -> SuiteResult:
    """Forward-substitution strengths (those of ``recursive_strengths``,
    without its schedule and profile) vs. the closed-form ``solutions`` of
    the canonical grid, as for :func:`central_equality`; one case at a
    time from the stack's targets, as the recursion is the independent
    route.  A case whose targets no admissible strength reaches reads 1.0,
    with no position."""

    def stacks() -> Iterator[_Cases]:
        for n, cs, xs, _, targets in solutions:
            rebuilt = np.zeros_like(xs)
            unsolved = np.zeros(cs.size, dtype=bool)
            for row, (c, gammas) in enumerate(zip(cs.tolist(), targets)):
                try:
                    rebuilt[row] = _recursive_xs(c, gammas)
                except OutOfValidityError:
                    unsolved[row] = True
            worst = _worst_entries(n, cs, np.abs(xs - rebuilt))
            yield _Cases(
                n,
                cs,
                np.where(unsolved, 1.0, worst.residuals),
                np.where(unsolved, 0, worst.positions),
            )

    return _fold("recursion_agreement", RECURSION_TOL, stacks())


def gram_feasibility() -> SuiteResult:
    """Positivity of the efficiency vector on either side of the threshold.

    Below the critical overlap the vector must pass the full check: the
    residual is the worst eigenvalue deficit, or 1.0 if an efficiency is
    not a probability.  Above it the range check must already fail: the
    residual is 0.0 if it does and 1.0 if it passes, with no eigensolve.
    The suite stops at the first failing case.  Odd lengths 5..31 only, to
    keep eigen-solves few; even lengths 6..30 have thresholds too and meet
    the same criteria.
    """

    def stacks() -> Iterator[_Cases]:
        for n in range(5, 32, 2):
            threshold = critical_overlap(n)
            cs = np.concatenate(
                (
                    np.linspace(0.05, threshold - 0.011, _GRAM_SIDE),
                    np.linspace(threshold + 0.011, 0.99, _GRAM_SIDE),
                )
            )
            targets = _tent_efficiencies(cs[:, None], _tent_powers(n, cs[:, None]))
            min_eigs, below_ok = _unambiguous_spectra(
                _gram_powers(n, cs[:_GRAM_SIDE, None, None]), targets[:_GRAM_SIDE]
            )
            residuals = np.concatenate(
                (
                    np.where(below_ok, np.maximum(0.0, -min_eigs), 1.0),
                    np.where(_in_range(targets[_GRAM_SIDE:]), 1.0, 0.0),
                )
            )
            failed = residuals > GRAM_TOL
            stop = bool(failed.any())
            cut = int(failed.argmax()) + 1 if stop else cs.size
            yield _Cases(n, cs[:cut], residuals[:cut], np.zeros(cut, dtype=np.int64))
            if stop:
                return

    return _fold("gram_feasibility", GRAM_TOL, stacks())


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
