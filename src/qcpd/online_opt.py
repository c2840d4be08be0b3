"""Online (one-way local) strategies and their optimization.

The online protocol measures particles one at a time, choosing each
strength from the outcomes seen so far.  Since the strength after an
inconclusive outcome is pinned to ``c`` by the model, a strategy is just
the schedule of strengths used along the conclusive-default run.

Constructions:

* :func:`optimize_strengths` — the optimum at any overlap, in O(n).  Its
  backward pass is an exact dynamic program (the best head strength does
  not depend on the inconclusive probability entering it) and reduces to
  the orbit of a map in one variable ``s``, from ``s = 1`` at position
  ``n-1``: strength ``1/s`` and ``s' = 1 - c*s`` while ``s >= c`` (ties
  included), else strength ``1/c`` and ``s'^2 = (1-c^2)(1-s^2)``.
  :func:`_optimal_strengths` runs it for every optimal schedule; once ``s``
  repeats its value from two steps back it fills the rest, bit for bit, so
  a chain costs O(unsettled positions) in Python.
* :func:`closed_form_strengths` — that orbit while it never saturates
  (``c <= 1/2``): ``x(j) = (1+c)/(1-(-c)^(n-j))``, whose profile
  reproduces the collective optimum exactly.  It is computed at the last
  ``K`` strengths and the first ``K - 1``, whose powers of ``-c``
  ``global_bound._end_powers`` keeps, and is ``1 + c`` between them.
* :func:`recursive_strengths` — the same schedule obtained by forward
  substitution from the target efficiencies (independent derivation path),
  filled alike from a strength that repeats between equal targets.
* :func:`fl_solution` / :func:`sl_solution` — the two simple benchmark
  families: constant strength ``min(1+c, 1/c)`` (asymptotically optimal
  below the critical overlap) and fully saturated strength ``1/c``.

The backward pass in its ``(A, B)`` form, its one-strength objective and
the paper's saturation constants are test oracles, in ``tests/oracles.py``.

:func:`_exact_table` builds the exact curve table; its docstring describes
how.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DetectionProfile,
    OutOfValidityError,
    Overlap,
    StrengthSchedule,
    _check_n,
    _check_probabilities,
    _overlap,
    check_strength,
    evaluate_strategy,
)
from .global_bound import _end_powers, _optimal_success, global_efficiencies

#: relative slack when flagging a strength as sitting at the ceiling 1/c
_SATURATION_SLACK = 1e-9


@dataclass(frozen=True, slots=True)
class OnlineSolution:
    """A schedule together with its profile and the name of its
    construction: ``"closed-form"``, ``"recursive"``,
    ``"numeric-backward"``, ``"fixed-fl"``, ``"saturated-sl"`` or, for a
    schedule read from a file, ``"custom"``."""

    schedule: StrengthSchedule
    profile: DetectionProfile
    method: str

    @property
    def success(self) -> float:
        return self.profile.average

    @property
    def saturated_positions(self) -> np.ndarray:
        """The 1-based positions whose strength sits at the admissibility
        ceiling ``1/c`` (within round-off slack), in increasing order, as a
        read-only int64 vector computed on each access."""
        at_ceiling = _at_ceiling(self.schedule.strengths, self.schedule.overlap.c)
        positions = np.flatnonzero(at_ceiling)
        positions += 1
        positions.setflags(write=False)
        return positions


def _at_ceiling(xs: np.ndarray, cv: float) -> np.ndarray:
    """Whether each strength of ``xs`` sits at the admissibility ceiling
    ``1/cv`` within round-off slack: the saturation flag of a position."""
    ceiling = 1.0 / cv if cv else math.inf
    if ceiling == math.inf:
        # c = 0, or a subnormal c whose 1/c overflows: an infinite
        # ceiling saturates no finite strength
        return np.zeros(len(xs), dtype=bool)
    # capped at a quarter of [c, 1/c], which near c = 1 is narrower
    # than the slack: a strength 1.0 there is not at the ceiling
    slack = min(_SATURATION_SLACK * max(1.0, ceiling), 0.25 * (ceiling - cv))
    return np.abs(xs - ceiling) <= slack


def _solution(n: int, cv: float, xs, method: str) -> OnlineSolution:
    """The one constructor of an :class:`OnlineSolution`: ``xs`` checked as
    a schedule of ``n`` at overlap ``cv``, its profile evaluated once."""
    schedule = StrengthSchedule(n=n, strengths=xs, overlap=Overlap(cv))
    return OnlineSolution(schedule, evaluate_strategy(schedule), method)


# ---------------------------------------------------------------------------
# the optimal schedule: closed form, recursion (c <= 1/2) and backward map
# ---------------------------------------------------------------------------

def _check_closed_form_range(cv: float) -> None:
    if cv > 0.5:
        raise OutOfValidityError(
            f"the analytic schedule requires overlap <= 1/2 (got {cv}); "
            "strengths would exceed 1/c — use optimize_strengths instead "
            "(qcpd strengths --method numeric)"
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
    return _solution(n, cv, _optimal_strengths(n, cv), "closed-form")


#: smallest nonzero overlap :func:`recursive_strengths` accepts.  Its drift
#: from the closed form grows as c shrinks, up to about ``n*eps/c``.  Over
#: n = 2..200 on a log grid of c it still exceeds
#: ``verification.RECURSION_TOL`` (1e-10) at c = 3.2e-4 (1.4e-10, n = 200);
#: from 1e-3 to 1/2 it stays below 4.2e-11.  Longer chains drift further, at
#: some overlaps about linearly in n: over 55 log-spaced c in [1e-3, 1/2] the
#: worst is 1.1e-9 at n = 1e4 (c = 1e-3) and 7.9e-9 at n = 1e5 (c = 1.4e-3).
RECURSION_FLOOR = 1e-3


def recursive_strengths(n: int, c: Overlap | float) -> OnlineSolution:
    """The same optimal schedule by forward substitution.

    Solves position by position for the strength that makes the profile
    entry hit the target efficiency: ``x(1) = c/(1 - g(1))`` and
    ``x(k+1) = c / (1 - g(k+1)/((1-c^2) - c*g(k)*x(k)))`` where ``g`` are
    the collective efficiencies.  Independent of the closed form, hence a
    useful cross-check; both must agree.

    Rounding errors grow as ``c`` shrinks (``1 - g(1)`` cancels, and the
    drift grows along the chain), so a nonzero overlap below
    :data:`RECURSION_FLOOR` raises :class:`OutOfValidityError`; ``c = 0``
    returns the limit, the all-balanced schedule.
    """
    n = _check_n(n)
    cv = _overlap(c)
    _check_closed_form_range(cv)
    if 0.0 < cv < RECURSION_FLOOR:
        raise OutOfValidityError(
            f"the recursion drifts from the closed form below overlap "
            f"{RECURSION_FLOOR!r} (got {cv!r}); use the closed form instead"
        )
    return _solution(n, cv, _recursive_xs(cv, global_efficiencies(n, cv)), "recursive")


def _recursive_xs(cv: float, gammas: np.ndarray) -> np.ndarray:
    """The strengths of :func:`recursive_strengths` for a checked overlap
    ``cv`` from its target efficiencies ``gammas``, a C-contiguous float64
    vector of :func:`global_efficiencies` at that overlap, with no schedule
    or profile built around them."""
    n = gammas.shape[0]
    if cv == 0.0:
        # the recursion's first step is 0/0 at zero overlap; its limit, like
        # the closed form, is the all-balanced schedule
        return np.ones(n - 1)
    targets = memoryview(gammas)  # indexes to Python floats
    first_den = 1.0 - targets[0]
    if first_den <= 0.0:
        raise OutOfValidityError(
            f"cannot solve for the first strength: 1 - target = {first_den!r}"
        )
    xs = np.empty(n - 1)
    strengths = memoryview(xs)
    strengths[0] = x = cv / first_den
    k = 1
    while k < n - 1:
        for k in range(k, n - 1):
            run_prob = (1.0 - cv * cv) - cv * targets[k - 1] * x
            if run_prob == 0.0:
                # only at (n=3, c=1/2): the first strength saturates at 1/c and
                # its target vanishes, so the step is vacuous (0 == 0) and
                # takes the recursion's limit, the balanced strength
                if abs(targets[k]) <= 1e-15:
                    strengths[k] = x = 1.0
                    continue
                raise OutOfValidityError(
                    "conclusive-run probability vanished during the recursion"
                )
            frac = 1.0 - targets[k] / run_prob
            if frac <= 0.0:
                raise OutOfValidityError(
                    f"no admissible strength solves position {k + 1} "
                    f"(denominator {frac!r})"
                )
            strengths[k] = y = cv / frac
            if y == x and targets[k - 1] == targets[k]:
                # x is a fixed point until the target moves
                end = k + 1 + int(np.argmax(np.append(gammas[k + 1 : n - 1] != targets[k], True)))
                xs[k + 1 : end], k = x, end
                break
            x = y
        else:
            break
    return xs


def _closed_form_xs(cs, ends: tuple[int, np.ndarray]) -> np.ndarray:
    """``(1+c)/(1-(-c)^(n-j))`` for ``j = 1..n-1`` from
    ``ends = _end_powers(n, cs)``: one schedule at an overlap ``cs``, or one
    row per overlap for an ``(R, 1)`` column ``cs``; ``1 + c`` between the
    strengths whose power is an end power."""
    n, powers = ends
    out = np.empty(np.shape(cs)[:-1] + (n - 1,))
    top, high = powers.shape[2], 1.0 + cs
    out[..., top - 1 : n - 1 - top] = high
    # strength j reads the power at n - j: the head's at the chain's end,
    # the tail's but the first (exponent n) at its start
    head, tail = high / (1.0 - powers)
    out[..., n - 1 - top :], out[..., : top - 1] = head[:, ::-1], tail[:, 1:]
    return out


def _optimal_strengths(n: int, cv: float) -> np.ndarray:
    """The optimal schedule for a checked ``n`` and overlap ``cv``: the orbit
    of the map in :func:`optimize_strengths`, written into one float64
    vector, or its closed form while ``c <= 1/2``, where it never saturates,
    from the O(K) end powers of :func:`global_bound._end_powers`."""
    if cv <= 0.5:
        return _closed_form_xs(cv, _end_powers(n, cv))
    xs = np.full(n - 1, 1.0 / cv)
    strengths, s, prev = memoryview(xs), 1.0, None
    for j in range(n - 2, -1, -1):
        back, prev = prev, s
        if s >= cv:
            strengths[j] = 1.0 / s
            s = 1.0 - cv * s
        else:
            s = math.sqrt((1.0 - cv * cv) * (1.0 - s * s))
        if s == back:
            break
    if j:  # s entering j - 1 is that entering j + 1: it alternates from here
        xs[(j - 1) % 2 : j : 2], xs[j % 2 : j : 2] = strengths[j + 1], strengths[j]
    return xs


def optimize_strengths(n: int, c: Overlap | float) -> OnlineSolution:
    """Optimal online schedule at every overlap, in O(n).

    The backward pass is an exact dynamic program.  The profile entries
    from a position on sum to ``A + B*pi``, affine in the inconclusive
    probability ``pi`` entering it, with ``(A, B) = (1, -1)`` at the last
    particle.  A head strength ``y`` makes the sum
    ``(1-pi)*(1 - c/y + c*B*y) + A + B*c^2*pi``, so the best ``y`` does not
    depend on ``pi``, and by induction the chosen tail maximizes
    ``A + B*pi`` for every ``pi`` in [0, 1] at once.  That ``y`` is ``1/s``
    with ``s = sqrt(-B)``, clipped to the ceiling ``1/c``; putting it back
    into ``B`` leaves a map in ``s`` alone, from ``s = 1`` at position
    ``n-1`` down to position 1:

    * interior, ``s >= c``: strength ``1/s``, then ``s' = 1 - c*s``;
    * saturated, ``s < c``: strength ``1/c``, then ``s'^2 = (1-c^2)(1-s^2)``.

    Both branches give ``1/c`` at the tie ``s = c``; the rule takes the
    interior one.  The interior branch solves to ``s_k = (1-(-c)^k)/(1+c)``,
    the closed form, and never leaves it (``s >= 1-c >= c``) while
    ``c <= 1/2``.  A strength depends only on its distance from the end:
    ``x_n(j) = x_{n-j+1}(1)``.  At overlap 1 every strength is 1 and the
    success 0 (identical states carry no information).
    """
    n = _check_n(n)
    cv = _overlap(c)
    return _solution(n, cv, _optimal_strengths(n, cv), "numeric-backward")


# ---------------------------------------------------------------------------
# benchmark strategy families
# ---------------------------------------------------------------------------

def _fl_strength(cv: float) -> float:
    """``1+c`` clipped to the ceiling ``1/c`` (1 at ``c = 0``): the clip
    binds beyond the golden-ratio overlap, where ``1+c > 1/c``."""
    return 1.0 if cv == 0.0 else min(1.0 + cv, 1.0 / cv)


def fl_solution(n: int, c: Overlap | float) -> OnlineSolution:
    """Constant-strength benchmark: the one strength ``min(1+c, 1/c)``
    everywhere, balanced last position."""
    n = _check_n(n)
    cv = _overlap(c)
    return _solution(n, cv, np.append(np.full(n - 2, _fl_strength(cv)), 1.0), "fixed-fl")


def _constant_success(n: int, cs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Success of the schedule ``(x, ..., x, 1)`` of ``n`` at each overlap
    of ``cs`` with the strength in the same place of ``xs``, in closed form,
    O(1) per entry, for finite checked strengths.

    After ``k - 1`` conclusive-default steps at strength ``x`` the
    inconclusive probability is ``pi_k = c*x * (1 - q^(k-1)) / (1 - q)``
    with ``q = c*(c - x)``, so the first ``n - 2`` probabilities ``p0_k``
    sum to ``((n-2)*(1-c)*(1+c) + c*x*g) / (1 - q)`` with the geometric sum
    ``g = (1 - q^(n-2)) / (1 - q)``, each entry times the change factor
    ``(x - c)/x``, and the balanced last two positions add
    ``(1-c)*(2 - (1-c)*pi_(n-1))``.  Every sum is of positive terms, and
    near ``c = 1`` the differences ``1 - c``, ``c - x`` and ``x - c`` are
    exact (Sterbenz), where ``1 - c/x`` and ``1 - c*c`` would cancel; so
    the mean keeps its relative accuracy there.  At ``n = 2`` it is
    ``1 - c`` exactly.  The one power is libm's ``pow``."""
    cx, q, low = cs * xs, cs * (cs - xs), 1.0 - cs
    den = 1.0 - q
    geometric = (1.0 - np.float_power(q, n - 2)) / den
    run = cx * geometric  # pi_(n-1)
    bulk = ((n - 2) * (low * (1.0 + cs)) + run) / den * ((xs - cs) / xs)
    return (bulk + low * (2.0 - low * run)) / n


def fl_success_exact(n: int, c: Overlap | float, x: float | None = None) -> float:
    """Success probability of :func:`fl_solution` in closed form, or of the
    constant strength ``x`` when given: the one-overlap call of
    :func:`_constant_success`, which fills the curve table's fl and sl
    columns, so it is their scalar route bit for bit.  Agrees with the
    profile walk to machine precision.  Not exported; the tests import it
    from here, and ``perfbench/gate.py``, which passes the default strength
    explicitly, ``x=min(1.0 + c, 1.0 / c)``."""
    n = _check_n(n)
    cv = _overlap(c)
    xv = _fl_strength(cv) if x is None else float(x)
    check_strength(cv, xv)
    return float(_constant_success(n, np.array([cv]), np.array([xv]))[0])


def fl_success_asymptotic(c: Overlap | float) -> float:
    """Large-``n`` limit of :func:`fl_solution`'s success probability,
    ``(1-c^2)(1-c/x) / (1+c*x-c^2)`` at its ``x = min(1+c, 1/c)``, the best
    ``x`` in ``[c, 1/c]``; it equals ``(1-c)/(1+c)`` up to the golden ratio."""
    cv = _overlap(c)
    xv = _fl_strength(cv)
    return (1.0 - cv * cv) * (1.0 - cv / xv) / (1.0 + cv * xv - cv * cv)


def sl_solution(n: int, c: Overlap | float) -> OnlineSolution:
    """Fully saturated benchmark: every strength at the ceiling ``1/c``
    (a chain of two-outcome change detectors), balanced last position."""
    n = _check_n(n)
    cv = _overlap(c)
    if cv == 0.0 or 1.0 / cv == math.inf:  # 1/c overflows at a subnormal c
        raise ValueError(
            f"the saturated strategy is undefined at overlap {cv:.12g} (ceiling 1/c unbounded)"
        )
    return _solution(n, cv, np.append(np.full(n - 2, 1.0 / cv), 1.0), "saturated-sl")


def sl_success_asymptotic(c: Overlap | float) -> float:
    """Large-``n`` limit of the saturated strategy's success probability,
    ``(1-c^2)^2 / (2-c^2)``."""
    cv = _overlap(c)
    if cv == 0.0:
        raise ValueError(
            "the saturated strategy is undefined at overlap 0 (ceiling 1/c unbounded)"
        )
    return (1.0 - cv * cv) ** 2 / (2.0 - cv * cv)


def best_online(n: int, c: Overlap | float) -> OnlineSolution:
    """The :func:`optimize_strengths` schedule, named ``"closed-form"`` while
    that form is admissible (``c <= 1/2``), ``"numeric-backward"`` beyond."""
    n = _check_n(n)
    cv = _overlap(c)
    method = "closed-form" if cv <= 0.5 else "numeric-backward"
    return _solution(n, cv, _optimal_strengths(n, cv), method)


def _exact_table(n: int, grid) -> np.ndarray:
    """The exact curve table at the increasing overlaps ``grid`` in
    ``[0, 1]``: a ``(5, len(grid))`` array whose rows are ``c``, the
    collective bound and the success of the optimal online schedule,
    :func:`fl_solution` and :func:`sl_solution`.

    The bound is :func:`_optimal_success`, row by row, on the grid's
    overlaps, which are not checked again.  Up to ``c = 1/2`` the online
    schedule reaches the bound, so its row is the bound's.  The fl and sl
    rows are :func:`_constant_success` over the overlap column at their
    strengths ``min(1+c, 1/c)`` and ``1/c``, checked as a schedule's are,
    and are :func:`fl_success_exact` bit for bit.  At ``c = 0`` every
    unambiguous measurement is conclusive, so each strategy succeeds with
    certainty (sl's ceiling ``1/c`` is vacuous there).  Each online row
    above 1/2 is the ``success`` of one :func:`optimize_strengths` call,
    or, where that schedule is sl's, the sl row, so the two print alike.
    No other row walks a profile.
    """
    table = np.empty((5, len(grid)))
    table[0] = grid
    table[1] = [_optimal_success(n, c) for c in table[0].tolist()]
    zero = int(table[0, :1].tolist() == [0.0])  # 1 when the grid starts at c = 0
    table[3:, :zero] = 1.0
    cs, fixed = table[0, zero:], table[3:, zero:]
    fixed[1] = 1.0 / cs
    np.minimum(1.0 + cs, fixed[1], out=fixed[0])
    check_strength(cs[:, None], fixed.T)
    fixed[:] = _constant_success(n, cs, fixed)
    _check_probabilities(fixed)
    low = int(np.searchsorted(table[0], 0.5, side="right"))
    table[2, :low] = table[1, :low]
    for r, cv in enumerate(table[0, low:].tolist(), start=low):
        solution = optimize_strengths(n, cv)
        # no strength but the last exceeds the ceiling 1/c: at their
        # smallest, all of them are at it, and the schedule is sl's
        ceiling = 1.0 / cv
        sl = np.minimum.reduce(solution.schedule.strengths[:-1], initial=ceiling) == ceiling
        table[2, r] = table[4, r] if sl else solution.success
    return table
