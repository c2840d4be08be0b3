"""Online (one-way local) strategies and their optimization.

The online protocol measures particles one at a time, choosing each
strength from the outcomes seen so far.  Since the strength after an
inconclusive outcome is pinned to ``c`` by the model, a strategy is just
the schedule of strengths used along the conclusive-default run.

Constructions:

* :func:`closed_form_strengths` — the analytic optimum
  ``x(j) = (1+c)/(1-(-c)^(n-j))``, valid for ``c <= 1/2`` where no strength
  exceeds ``1/c``.  Its profile reproduces the collective optimum exactly.
* :func:`recursive_strengths` — the same schedule obtained by forward
  substitution from the target efficiencies (independent derivation path).
* :func:`optimize_strengths` — a single backward pass over subproblem
  lengths, maximizing one strength at a time.  The one-variable restriction
  of the success probability is exactly ``alpha + beta*x + delta/x``, so
  each maximization is analytic (``x* = sqrt(delta/beta)``) followed by
  clipping to ``[c, 1/c]``.  Works for every overlap.
* :func:`fl_solution` / :func:`sl_solution` — the two simple benchmark
  families: constant strength ``1+c`` (asymptotically optimal below the
  critical overlap) and fully saturated strength ``1/c``.

Thresholds: :func:`total_saturation_point` is the overlap beyond which the
backward pass clips every strength except the last.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .core import (
    DetectionProfile,
    Overlap,
    StrengthSchedule,
    _check_n,
    _overlap,
    check_strength,
    evaluate_strategy,
)
from .errors import NumericDomainError, OutOfValidityError
from .global_bound import global_efficiencies
from .numutil import bisect_root

__all__ = [
    "Method",
    "OnlineSolution",
    "RationalCoefficients",
    "closed_form_strengths",
    "recursive_strengths",
    "coordinate_objective",
    "optimize_strengths",
    "total_saturation_point",
    "fl_solution",
    "fl_success_exact",
    "fl_success_asymptotic",
    "sl_solution",
    "sl_success_asymptotic",
    "sl_worst_case_gap",
    "best_online",
]

#: relative slack when flagging a strength as sitting at the ceiling 1/c
_SATURATION_SLACK = 1e-9


class Method(Enum):
    """How an :class:`OnlineSolution`'s schedule was constructed."""

    CLOSED_FORM = "closed-form"
    RECURSIVE = "recursive"
    NUMERIC_BACKWARD = "numeric-backward"
    FIXED_FL = "fixed-fl"
    SATURATED_SL = "saturated-sl"


@dataclass(frozen=True, slots=True)
class OnlineSolution:
    """A schedule together with its profile and construction metadata.

    ``saturated_positions`` lists the 1-based positions whose strength sits
    at the admissibility ceiling ``1/c`` (within round-off slack).
    """

    schedule: StrengthSchedule
    profile: DetectionProfile
    method: Method
    saturated_positions: frozenset[int]

    @property
    def n(self) -> int:
        return self.schedule.n

    @property
    def success(self) -> float:
        return self.profile.average


@dataclass(frozen=True, slots=True)
class RationalCoefficients:
    """Coefficients of the one-strength restriction of the success
    probability, ``P(x) = alpha + beta*x + delta/x``, plus the residual of
    the fit at a fourth sample point (certifying the functional form)."""

    alpha: float
    beta: float
    delta: float
    residual: float

    def __call__(self, x: float) -> float:
        return self.alpha + self.beta * x + self.delta / x


def _saturated(cv: float, xs) -> frozenset[int]:
    if cv == 0.0:
        return frozenset()
    ceiling = 1.0 / cv
    slack = _SATURATION_SLACK * max(1.0, ceiling)
    return frozenset(
        j for j, x in enumerate(xs, start=1) if abs(x - ceiling) <= slack
    )


def _solution(n: int, cv: float, xs, method: Method) -> OnlineSolution:
    schedule = StrengthSchedule(n=n, strengths=tuple(xs), overlap=Overlap(cv))
    return OnlineSolution(
        schedule=schedule,
        profile=evaluate_strategy(schedule),
        method=method,
        saturated_positions=_saturated(cv, schedule.strengths),
    )


# ---------------------------------------------------------------------------
# analytic and recursive constructions (valid for c <= 1/2)
# ---------------------------------------------------------------------------

def _check_closed_form_range(cv: float) -> None:
    if cv > 0.5:
        raise OutOfValidityError(
            f"the analytic schedule requires overlap <= 1/2 (got {cv}); "
            "strengths would exceed 1/c — use optimize_strengths instead"
        )


def closed_form_strengths(n: int, c: Overlap | float) -> OnlineSolution:
    """Optimal schedule ``x(j) = (1+c)/(1-(-c)^(n-j))`` for ``c <= 1/2``.

    The largest entry is ``x(n-2) = 1/(1-c)``, which reaches the ceiling
    ``1/c`` exactly at ``c = 1/2``; beyond that the analytic form is
    inadmissible.  The resulting profile equals the collective-measurement
    efficiencies at every position.
    """
    n = _check_n(n)
    cv = _overlap(c)
    _check_closed_form_range(cv)
    j = np.arange(1, n)
    xs = (1.0 + cv) / (1.0 - np.power(-cv, n - j))
    return _solution(n, cv, xs, Method.CLOSED_FORM)


def recursive_strengths(n: int, c: Overlap | float) -> OnlineSolution:
    """The same optimal schedule by forward substitution.

    Solves position by position for the strength that makes the profile
    entry hit the target efficiency: ``x(1) = c/(1 - g(1))`` and
    ``x(k+1) = c / (1 - g(k+1)/((1-c^2) - c*g(k)*x(k)))`` where ``g`` are
    the collective efficiencies.  Independent of the closed form, hence a
    useful cross-check; both must agree.
    """
    n = _check_n(n)
    cv = _overlap(c)
    _check_closed_form_range(cv)
    if cv == 0.0:
        # the recursion's first step is 0/0 at zero overlap; its limit, like
        # the closed form, is the all-balanced schedule
        return _solution(n, cv, np.ones(n - 1), Method.RECURSIVE)
    targets = global_efficiencies(n, cv).as_array()
    xs = np.empty(n - 1)
    first_den = 1.0 - targets[0]
    if first_den <= 0.0:
        raise NumericDomainError(
            f"cannot solve for the first strength: 1 - target = {first_den!r}",
            position=1,
        )
    xs[0] = cv / first_den
    for k in range(1, n - 1):
        run_prob = (1.0 - cv * cv) - cv * targets[k - 1] * xs[k - 1]
        if run_prob == 0.0:
            # reachable only at (n=3, c=1/2), where the first strength
            # saturates at 1/c and its target efficiency vanishes with it:
            # the constraint becomes vacuous (0 == 0) and the limit of the
            # recursion is the balanced strength
            if abs(targets[k]) <= 1e-15:
                xs[k] = 1.0
                continue
            raise NumericDomainError(
                "conclusive-run probability vanished during the recursion",
                position=k + 1,
            )
        frac = 1.0 - targets[k] / run_prob
        if frac <= 0.0:
            raise NumericDomainError(
                f"no admissible strength solves position {k + 1} "
                f"(denominator {frac!r})",
                position=k + 1,
            )
        xs[k] = cv / frac
    return _solution(n, cv, xs, Method.RECURSIVE)


# ---------------------------------------------------------------------------
# one-variable rational restriction and the backward optimizer
# ---------------------------------------------------------------------------

def _mean_success(cv: float, xs: np.ndarray) -> float:
    return float(np.mean(kernels.detection_profile(cv, xs)))


def _fit_rational(
    cv: float, xs: np.ndarray, position: int, probes, check_at: float
) -> RationalCoefficients:
    """Fit ``alpha + beta*x + delta/x`` through three evaluations of the
    mean success with ``xs[position-1]`` swept over ``probes``; the fourth
    point ``check_at`` certifies the form."""
    p1, p2, p3 = probes
    if len({p1, p2, p3, check_at}) != 4:
        raise ValueError(f"degenerate sample points {probes} / {check_at}")
    work = xs.copy()
    rows = np.empty((3, 3))
    vals = np.empty(3)
    for i, p in enumerate((p1, p2, p3)):
        work[position - 1] = p
        rows[i] = (1.0, p, 1.0 / p)
        vals[i] = _mean_success(cv, work)
    alpha, beta, delta = np.linalg.solve(rows, vals)
    work[position - 1] = check_at
    residual = abs(alpha + beta * check_at + delta / check_at - _mean_success(cv, work))
    return RationalCoefficients(
        alpha=float(alpha), beta=float(beta), delta=float(delta), residual=float(residual)
    )


def coordinate_objective(
    n: int, c: Overlap | float, schedule: StrengthSchedule, position: int
) -> RationalCoefficients:
    """Restriction of the success probability to one free strength.

    The strength at ``position`` enters its own profile entry through a
    single ``1/x`` factor and every later entry affinely, so the restricted
    objective is exactly ``alpha + beta*x + delta/x``.  Sample points are
    spread over the admissible interval; the fit is certified at a fourth.
    """
    n = _check_n(n)
    cv = _overlap(c)
    if schedule.n != n or schedule.overlap.c != cv:
        raise ValueError("schedule does not match the given n and overlap")
    if not 1 <= position <= n - 1:
        raise ValueError(f"position must be in 1..{n - 1}, got {position}")
    if cv == 0.0:
        probes, fourth = (0.5, 1.0, 2.0), 1.5
    elif cv == 1.0:
        raise ValueError(
            "degenerate sample points: the admissible interval [c, 1/c] "
            "collapses to a point at overlap 1"
        )
    else:
        probes, fourth = (cv, 1.0, 1.0 / cv), 0.5 * (1.0 + 1.0 / cv)
    return _fit_rational(cv, schedule.as_array(), position, probes, fourth)


# fixed well-conditioned probe points for the optimizer's internal fits;
# the restriction is a rational function, so evaluating it outside the
# admissible interval is sound algebra even though the probe schedule is
# not physical
_OPT_PROBES = (0.5, 1.0, 2.0)
_OPT_CHECK = 1.5


def _argmax_rational(beta: float, delta: float, lo: float, hi: float) -> float:
    """Maximize ``beta*x + delta/x`` over ``[lo, hi]``."""
    if abs(beta) < 1e-15 and abs(delta) < 1e-15:
        # flat objective (zero overlap): any strength works, prefer balanced
        return min(max(1.0, lo), hi)
    if beta < 0.0 and delta < 0.0:
        return min(max(math.sqrt(delta / beta), lo), hi)
    # monotone (or interior-minimum) cases: an endpoint wins
    at_lo = beta * lo + delta / lo
    at_hi = beta * hi + delta / hi
    return lo if at_lo >= at_hi else hi


def optimize_strengths(n: int, c: Overlap | float) -> OnlineSolution:
    """Backward coordinate pass valid for every overlap.

    The optimal schedule has the shift property ``x_n(j) = x_{n-j+1}(1)``:
    the strength ``j`` positions from the end solves the length-``n-j+1``
    subproblem's first position.  The pass therefore grows subproblems from
    length 2 to ``n``, each time maximizing the first strength analytically
    with the already-fixed tail behind it and clipping to ``[c, 1/c]``.
    Each strength is fixed once; no iteration.

    At overlap 1 the admissible interval collapses to {1}: the schedule is
    all-balanced and the success probability is 0 (identical states carry
    no information).
    """
    n = _check_n(n)
    cv = _overlap(c)
    if cv == 0.0 or cv == 1.0:
        return _solution(n, cv, np.ones(n - 1), Method.NUMERIC_BACKWARD)
    lo, hi = cv, 1.0 / cv
    tail: list[float] = []
    for m in range(2, n + 1):
        work = np.array([1.0] + tail, dtype=np.float64)
        fit = _fit_rational(cv, work, 1, _OPT_PROBES, _OPT_CHECK)
        tail.insert(0, _argmax_rational(fit.beta, fit.delta, lo, hi))
    return _solution(n, cv, tail, Method.NUMERIC_BACKWARD)


def total_saturation_point() -> float:
    """Overlap beyond which the backward pass clips every strength but the
    last: the root in (0, 1) of ``c*(2-c)*(1-c^2) = c^2``, equivalently
    ``c^3 - 2c^2 - 2c + 2 = 0``."""
    return bisect_root(lambda cv: ((cv - 2.0) * cv - 2.0) * cv + 2.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# benchmark strategy families
# ---------------------------------------------------------------------------

def _run_length_probability(cv: float, x: float, k) -> np.ndarray:
    """Probability that the outcome after ``k`` default particles measured
    under constant scheduled strength ``x`` is inconclusive (vectorized in
    ``k >= 0``); the closed form of the two-state outcome recursion."""
    q = cv * cv - cv * x
    den = 1.0 + cv * x - cv * cv
    return cv * x * (1.0 - np.power(q, k)) / den


def fl_solution(n: int, c: Overlap | float, x: float | None = None) -> OnlineSolution:
    """Constant-strength benchmark: ``x`` everywhere (default ``1+c``),
    balanced last position.  The default is admissible only while
    ``1+c <= 1/c``, i.e. up to the golden-ratio overlap; beyond that an
    explicit clipped ``x`` must be supplied."""
    n = _check_n(n)
    cv = _overlap(c)
    xv = 1.0 + cv if x is None else float(x)
    return _solution(n, cv, (xv,) * (n - 2) + (1.0,), Method.FIXED_FL)


def fl_success_exact(n: int, c: Overlap | float, x: float | None = None) -> float:
    """Success probability of :func:`fl_solution` in closed form.

    Sums the per-position efficiencies: the first two positions explicitly,
    the bulk through the inconclusive-run probability, and the last two
    positions through the balanced final measurement.  Must agree with the
    profile evaluation to machine precision — the pair is a cross-check.
    """
    n = _check_n(n)
    cv = _overlap(c)
    xv = 1.0 + cv if x is None else float(x)
    check_strength(cv, xv)
    total = 0.0
    if n >= 3:
        total += 1.0 - cv / xv
    if n >= 4:
        total += (1.0 - cv * xv) * (1.0 - cv / xv)
    if n >= 5:
        ks = np.arange(3, n - 1)
        runs = _run_length_probability(cv, xv, ks - 2)
        total += float(
            np.sum(
                (runs * (1.0 - cv * cv) + (1.0 - runs) * (1.0 - cv * xv))
                * (1.0 - cv / xv)
            )
        )
    tail_run = float(_run_length_probability(cv, xv, n - 2))
    total += (1.0 - cv) * (2.0 - (1.0 - cv) * tail_run)
    return total / n


def fl_success_asymptotic(c: Overlap | float, x: float | None = None) -> float:
    """Large-``n`` limit of the constant-strength success probability,
    ``(1-c^2)(1-c/x) / (1+c*x-c^2)``; maximized at ``x = 1+c`` where it
    equals ``(1-c)/(1+c)``."""
    cv = _overlap(c)
    xv = 1.0 + cv if x is None else float(x)
    check_strength(cv, xv)
    return (1.0 - cv * cv) * (1.0 - cv / xv) / (1.0 + cv * xv - cv * cv)


def sl_solution(n: int, c: Overlap | float) -> OnlineSolution:
    """Fully saturated benchmark: every strength at the ceiling ``1/c``
    (a chain of two-outcome change detectors), balanced last position."""
    n = _check_n(n)
    cv = _overlap(c)
    if cv == 0.0:
        raise ValueError(
            "the saturated strategy is undefined at overlap 0 (ceiling 1/c unbounded)"
        )
    return _solution(n, cv, (1.0 / cv,) * (n - 2) + (1.0,), Method.SATURATED_SL)


def sl_success_asymptotic(c: Overlap | float) -> float:
    """Large-``n`` limit of the saturated strategy's success probability,
    ``(1-c^2)^2 / (2-c^2)``."""
    cv = _overlap(c)
    if cv == 0.0:
        raise ValueError(
            "the saturated strategy is undefined at overlap 0 (ceiling 1/c unbounded)"
        )
    return (1.0 - cv * cv) ** 2 / (2.0 - cv * cv)


def sl_worst_case_gap() -> tuple[float, float]:
    """Largest asymptotic shortfall of the saturated strategy against the
    best online value ``(1-c)/(1+c)``, and the overlap attaining it.

    Scanned over the saturated regime ``c >= (sqrt(5)-1)/2`` — the overlaps
    where the constant-strength default is inadmissible and the saturated
    chain is the simple fallback.  The gap vanishes at the regime's left
    edge and again at overlap 1.
    """

    def gap(cs: np.ndarray) -> np.ndarray:
        return (1.0 - cs) / (1.0 + cs) - (1.0 - cs * cs) ** 2 / (2.0 - cs * cs)

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    coarse = np.linspace(golden, 1.0 - 1e-4, 10_001)
    c0 = coarse[int(np.argmax(gap(coarse)))]
    fine = np.linspace(c0 - 2e-4, c0 + 2e-4, 40_001)
    vals = gap(fine)
    i = int(np.argmax(vals))
    return float(vals[i]), float(fine[i])


def best_online(n: int, c: Overlap | float) -> OnlineSolution:
    """Best available online strategy at any overlap: the analytic schedule
    while it is admissible (``c <= 1/2``), the backward optimizer beyond."""
    n = _check_n(n)
    cv = _overlap(c)
    if cv <= 0.5:
        return closed_form_strengths(n, cv)
    return optimize_strengths(n, cv)
