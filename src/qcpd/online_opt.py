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
  reproduces the collective optimum exactly.
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
    _overlap,
    _stack_profiles,
    check_strength,
    evaluate_strategy,
)
from .global_bound import _optimal_success, _tent_powers, global_efficiencies

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
        positions = np.flatnonzero(at_ceiling) + 1
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
    xs[0] = x = cv / first_den
    k = 1
    while k < n - 1:
        for k in range(k, n - 1):
            run_prob = (1.0 - cv * cv) - cv * targets[k - 1] * x
            if run_prob == 0.0:
                # only at (n=3, c=1/2): the first strength saturates at 1/c and
                # its target vanishes, so the step is vacuous (0 == 0) and
                # takes the recursion's limit, the balanced strength
                if abs(targets[k]) <= 1e-15:
                    xs[k] = x = 1.0
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
            xs[k] = y = cv / frac
            if y == x and targets[k - 1] == targets[k]:
                # x is a fixed point until the target moves
                end = k + 1 + int(np.argmax(np.append(gammas[k + 1 : n - 1] != targets[k], True)))
                xs[k + 1 : end], k = x, end
                break
            x = y
        else:
            break
    return xs


def _closed_form_xs(cs, powers: np.ndarray):
    """``(1+c)/(1-(-c)^(n-j))`` for ``j = 1..n-1`` from the power table
    ``powers = _tent_powers(n, cs)``: one schedule at an overlap ``cs``, or
    one row per overlap for a column ``cs``."""
    return (1.0 + cs) / (1.0 - powers[..., -2:0:-1])


def _optimal_strengths(n: int, cv: float) -> np.ndarray:
    """The optimal schedule for a checked ``n`` and overlap ``cv``: the orbit
    of the map in :func:`optimize_strengths`, or its closed form while
    ``c <= 1/2``, where it never saturates."""
    if cv <= 0.5:
        return _closed_form_xs(cv, _tent_powers(n, cv))
    xs = [1.0 / cv] * (n - 1)
    s, prev = 1.0, None
    for j in range(n - 2, -1, -1):
        back, prev = prev, s
        if s >= cv:
            xs[j] = 1.0 / s
            s = 1.0 - cv * s
        else:
            s = math.sqrt((1.0 - cv * cv) * (1.0 - s * s))
        if s == back:
            break
    out = np.array(xs)
    if j:  # s entering j - 1 is that entering j + 1: it alternates from here
        out[(j - 1) % 2 : j : 2], out[j % 2 : j : 2] = xs[j + 1], xs[j]
    return out


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

def _run_length_probability(cv: float, x: float, k) -> np.ndarray:
    """Probability that the outcome after ``k`` default particles measured
    under constant scheduled strength ``x`` is inconclusive (vectorized in
    ``k >= 0``); the closed form of the two-state outcome recursion."""
    q = cv * cv - cv * x
    den = 1.0 + cv * x - cv * cv
    return cv * x * (1.0 - np.power(q, k)) / den


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


def fl_success_exact(n: int, c: Overlap | float, x: float | None = None) -> float:
    """Success probability of :func:`fl_solution` in closed form.

    Sums the per-position efficiencies: the first two positions explicitly,
    the bulk through the inconclusive-run probability, and the last two
    positions through the balanced final measurement.  Must agree with the
    profile evaluation to machine precision — the pair is a cross-check.
    Not exported; the tests import it from here, and ``perfbench/gate.py``,
    which passes the default strength explicitly, ``x=min(1.0 + c, 1.0 / c)``.
    """
    n = _check_n(n)
    cv = _overlap(c)
    xv = _fl_strength(cv) if x is None else float(x)
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
    if cv == 0.0:
        raise ValueError(
            "the saturated strategy is undefined at overlap 0 (ceiling 1/c unbounded)"
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
    """Best available online strategy at any overlap: the analytic schedule
    while it is admissible (``c <= 1/2``), the backward optimizer beyond."""
    n = _check_n(n)
    cv = _overlap(c)
    if cv <= 0.5:
        return closed_form_strengths(n, cv)
    return optimize_strengths(n, cv)


#: most strengths one block of :func:`_exact_table` holds; the one bound
#: on a profile-kernel stack and so on the working memory of a fine grid
_TABLE_BLOCK = 1 << 15


def _exact_table(n: int, grid) -> np.ndarray:
    """The exact curve table at the increasing overlaps ``grid`` in
    ``[0, 1]``: a ``(5, len(grid))`` array whose rows are ``c``, the
    collective bound and the ``success`` of :func:`best_online`,
    :func:`fl_solution` and :func:`sl_solution`, each bit-identical to its
    row-by-row value.

    The bound is :func:`_optimal_success`, row by row.  At ``c = 0`` every
    unambiguous measurement is conclusive, so each strategy succeeds with
    certainty (sl's ceiling ``1/c`` is vacuous there).  Each online row
    above 1/2 is the ``success`` of :func:`optimize_strengths`, evaluated
    once.  Block by block of at most :data:`_TABLE_BLOCK` strengths, the
    other rows are stacked, one schedule per row: the closed-form online
    rows (one 2-D evaluation of :func:`_closed_form_xs`), then the fl rows,
    then the sl rows; each block is one :func:`_stack_profiles` call, whose
    kernel picks the walk, and each row's mean is taken over the
    C-contiguous ``(rows, n)`` result:
    numpy sums pairwise only along the contiguous axis, so a column-major
    copy would change the last bit of most means.
    """
    table = np.empty((5, len(grid)))
    table[0] = grid
    table[1] = [_optimal_success(n, c) for c in table[0].tolist()]
    zero = int(table[0, :1].tolist() == [0.0])  # 1 when the grid starts at c = 0
    table[2:, :zero] = 1.0
    cs, out = table[0, zero:], table[2:, zero:]
    low = int(np.searchsorted(cs, 0.5, side="right"))
    for r, cv in enumerate(cs[low:].tolist(), start=low):
        out[0, r] = optimize_strengths(n, cv).success
    per_block = max(1, _TABLE_BLOCK // (3 * (n - 1)))
    for lo in range(0, len(cs), per_block):
        block = cs[lo : lo + per_block]
        closed = block[: max(0, low - lo)]  # the block's closed-form online rows
        fixed = np.concatenate([np.minimum(1.0 + block, 1.0 / block), 1.0 / block])
        row_cs = np.concatenate([closed, block, block])
        xs = np.empty((len(row_cs), n - 1))
        xs[: len(closed)] = _closed_form_xs(closed[:, None], _tent_powers(n, closed[:, None]))
        xs[len(closed) :, :-1] = fixed[:, None]
        xs[len(closed) :, -1] = 1.0
        means = _stack_profiles(row_cs, xs).mean(axis=1)
        out[0, lo : lo + len(closed)] = means[: len(closed)]
        out[1:, lo : lo + per_block] = means[len(closed) :].reshape(2, -1)
    return table
