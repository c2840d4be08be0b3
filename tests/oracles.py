"""Oracles that only the tests use.

Each recomputes a quantity the package relies on by a second route, or
evaluates one of the paper's constants, so the tests can check the package
from outside it:

* :func:`optimize_strengths_backward` is the backward optimizer as a pass
  over the tail sums ``(A, B)`` with a rational argmax per position, which
  the one-variable map of ``optimize_strengths`` must match to a few ulps;
* :func:`coordinate_objective` restricts the success probability to one
  strength, ``alpha + beta*x + delta/x`` (:class:`RationalCoefficients`),
  the form the backward optimizer maximizes;
* :func:`global_efficiencies_direct` sums the collective efficiencies term
  by term, and :func:`optimal_success_fraction` takes the collective bound
  exactly, in ``fractions`` arithmetic, from the plain or corrected vector;
* :func:`gamma_two_reference`, :func:`z_score_reference` and
  :func:`optimal_strengths_reference` evaluate the position-2 efficiency,
  ``simulate``'s z-score and the optimal schedule's orbit in 60-digit
  ``decimal`` arithmetic, the references their float routes are bounded
  against;
* :func:`enumerate_strategy_nested` enumerates outcome paths one string at
  a time, multiplying out each path probability on its own, the route
  ``enumerate_strategy`` must match bit for bit;
* :func:`detection_profile_loop` is the profile recursion as one Python
  loop over positions, each factor computed where it is used, which both
  call shapes of ``kernels.detection_profile`` must match bit for bit;
* :func:`tent_efficiencies_full` and :func:`closed_form_xs_full` are the
  two closed forms with every power of ``-c`` taken by ``np.power``, which
  the cut-off powers of ``global_bound._tent_powers`` must match bit for
  bit;
* :func:`recursive_xs_loop` and :func:`optimal_strengths_loop` are the
  forward substitution and the orbit of the optimal schedule walked to
  the last position, with no stop at a fixed point, which
  ``online_opt._recursive_xs`` and ``online_opt._optimal_strengths`` must
  match bit for bit;
* :func:`detection_profile_reference` is the profile recursion in
  50-digit ``decimal`` arithmetic, the reference both call shapes of
  ``kernels.detection_profile`` are bounded against;
* :func:`simulate_counts_forward` is the Monte Carlo kernel as a forward
  walk over every position before the change point, which the backward
  walk of ``kernels.simulate_counts`` must match count for count;
* :func:`run_all_per_case` runs the four ``verify`` suites one case at a
  time, building one validated schedule, profile and feasibility report
  per case and folding one ``(residual, case)`` pair per case with
  :func:`_suite`, which the stacked suites of ``verification.run_all``
  must match exactly;
* :func:`_bisect_root` is the generic bisection that ``critical_overlap``
  must match bit for bit after a sign scan of the grid ``k/4096``;
* :data:`GOLDEN` is the golden-ratio overlap ``(sqrt(5)-1)/2``, where the
  critical overlap converges and fl's strength ``1+c`` meets ``1/c``;
* :func:`total_saturation_point` and :func:`sl_worst_case_gap` give the
  paper's saturation overlap (about 0.6889) and the saturated strategy's
  largest asymptotic shortfall (about 0.022 near c = 0.89).

Import them as ``from oracles import ...``, like the ``conftest`` helpers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from qcpd import kernels
from qcpd.kernels import (
    _CHUNK,
    _GAMMA_INT,
    _INV53,
    _MIX1,
    _MIX2,
    GAMMA,
    _int_threshold,
    _mix64,
    mix64_int,
    seed_root,
)
from qcpd.core import (
    ENUMERATION_CAP,
    DetectionProfile,
    Overlap,
    StrengthSchedule,
    _check_n,
    _frozen_vector,
    _overlap,
    enumerate_strategy,
    evaluate_strategy,
)
from qcpd.global_bound import (
    build_gram,
    critical_overlap,
    global_efficiencies,
    global_success,
    validate_unambiguous,
)
from qcpd.montecarlo import _uniform
from qcpd.online_opt import OnlineSolution, _recursive_xs, _solution, closed_form_strengths
from qcpd.verification import (
    _FAULT_FACTOR,
    _SCHEDULES_PER_N,
    CENTRAL_TOL,
    GRAM_TOL,
    ORACLE_TOL,
    RECURSION_TOL,
    SuiteResult,
    _case,
)


def _push_head(cv: float, y: float, a: float, b: float) -> tuple[float, float]:
    """Prepend strength ``y`` to a tail whose entries sum to ``a + b*pi``:
    the head adds ``(1-pi)*w`` with ``w = 1 - c/y`` and hands the tail the
    inconclusive probability ``c*y + pi*(c^2 - c*y)``."""
    w = 1.0 - cv / y
    return w + a + b * cv * y, -w + b * (cv * cv - cv * y)


def _argmax_rational(beta: float, delta: float, lo: float, hi: float) -> float:
    """Maximize ``beta*x + delta/x`` over ``[lo, hi]``."""
    if beta == 0.0 and delta == 0.0:
        # flat objective (zero overlap): any strength works, prefer balanced;
        # only exact zeros count, since at tiny c every coefficient is tiny
        return min(max(1.0, lo), hi)
    if beta < 0.0 and delta < 0.0:
        return min(max(math.sqrt(delta / beta), lo), hi)
    # monotone (or interior-minimum) cases: an endpoint wins
    at_lo = beta * lo + delta / lo
    at_hi = beta * hi + delta / hi
    return lo if at_lo >= at_hi else hi


def optimize_strengths_backward(n: int, c: Overlap | float) -> OnlineSolution:
    """The backward pass over the tail sums ``(A, B)``, valid for every
    overlap, in O(n): the route ``optimize_strengths`` took before it
    became a map in one variable, kept to check that map.

    Walking from position ``n-1`` down to 1 with the tail sum ``A + B*pi``
    (from ``(1, -1)`` at the unmeasured last particle), the head strength
    ``y`` of the length-``m`` subproblem enters its mean success as
    ``beta*y + delta/y`` with ``beta = c*B/m`` and ``delta = -c/m``; it is
    maximized analytically, clipped to ``[c, 1/c]`` and pushed onto the
    tail.  Each strength is fixed once, which gives the shift property
    ``x_n(j) = x_{n-j+1}(1)``.

    At overlap 1 the admissible interval collapses to {1}: the schedule is
    all-balanced and the success probability is 0 (identical states carry
    no information).
    """
    n = _check_n(n)
    cv = _overlap(c)
    if cv == 0.0 or cv == 1.0:
        return _solution(n, cv, np.ones(n - 1), "numeric-backward")
    lo, hi = cv, 1.0 / cv
    xs = np.empty(n - 1)
    a, b = 1.0, -1.0
    for m in range(2, n + 1):
        y = _argmax_rational(cv * b / m, -cv / m, lo, hi)
        xs[n - m] = y
        a, b = _push_head(cv, y, a, b)
    return _solution(n, cv, xs, "numeric-backward")


@dataclass(frozen=True, slots=True)
class RationalCoefficients:
    """Coefficients of the one-strength restriction of the success
    probability, ``P(x) = alpha + beta*x + delta/x``, plus their residual
    against a direct evaluation at a fourth point (certifying the form)."""

    alpha: float
    beta: float
    delta: float
    residual: float

    def __call__(self, x: float) -> float:
        return self.alpha + self.beta * x + self.delta / x


def coordinate_objective(
    n: int, c: Overlap | float, schedule: StrengthSchedule, position: int
) -> RationalCoefficients:
    """Restriction of the success probability to one free strength.

    A forward pass gives the inconclusive probability ``pi`` entering
    ``position`` and the entries before it, a backward pass the tail sum
    ``A + B*pi'`` behind it, with ``pi' = (1-pi)*c*x + pi*c^2``; so the
    objective is exactly ``alpha + beta*x + delta/x``.  The residual is its
    gap to one direct profile evaluation at a fourth strength.
    """
    n = _check_n(n)
    cv = _overlap(c)
    if schedule.n != n or schedule.overlap.c != cv:
        raise ValueError("schedule does not match the given n and overlap")
    if not 1 <= position <= n - 1:
        raise ValueError(f"position must be in 1..{n - 1}, got {position}")
    xs = schedule.strengths.tolist()
    head, pi = 0.0, 0.0
    for x in xs[: position - 1]:
        head += (1.0 - pi) * (1.0 - cv / x)
        pi = (1.0 - pi) * (cv * x) + pi * (cv * cv)
    a, b = 1.0, -1.0
    for y in reversed(xs[position:]):
        a, b = _push_head(cv, y, a, b)
    alive = 1.0 - pi
    alpha = (head + alive + a + b * cv * cv * pi) / n
    beta = b * cv * alive / n
    delta = -cv * alive / n
    fourth = 1.5 if cv == 0.0 else 0.5 * (1.0 + 1.0 / cv)
    probe = np.array(xs)
    probe[position - 1] = fourth
    direct = float(np.mean(kernels.detection_profile(cv, probe)))
    residual = abs(alpha + beta * fourth + delta / fourth - direct)
    return RationalCoefficients(alpha=alpha, beta=beta, delta=delta, residual=residual)


#: absolute bracket width at which :func:`_bisect_root` stops, and its
#: iteration budget
_ROOT_TOL = 1e-12
_ROOT_MAX_ITER = 200


def _bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``f`` on a bracketing interval by plain bisection.

    Requires ``f(lo)`` and ``f(hi)`` to have opposite (or zero) sign and
    narrows the bracket until its width is below ``_ROOT_TOL`` (absolute).
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]")
    for _ in range(_ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _ROOT_TOL or mid == lo or mid == hi:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: the golden-ratio overlap, the one definition the tests import
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def total_saturation_point() -> float:
    """Overlap beyond which the backward pass clips every strength but the
    last: the root in (0, 1) of ``c*(2-c)*(1-c^2) = c^2``, equivalently
    ``c^3 - 2c^2 - 2c + 2 = 0``."""
    return _bisect_root(lambda cv: ((cv - 2.0) * cv - 2.0) * cv + 2.0, 0.0, 1.0)


def sl_worst_case_gap() -> tuple[float, float]:
    """Largest asymptotic shortfall of the saturated strategy against the
    best online value ``(1-c)/(1+c)``, and the overlap attaining it.

    Scanned over the saturated regime ``c >= (sqrt(5)-1)/2`` — the overlaps
    where the constant-strength default clips to ``1/c`` and so becomes the
    saturated chain.  The gap vanishes at the regime's left
    edge and again at overlap 1.
    """

    def gap(cs: np.ndarray) -> np.ndarray:
        return (1.0 - cs) / (1.0 + cs) - (1.0 - cs * cs) ** 2 / (2.0 - cs * cs)

    coarse = np.linspace(GOLDEN, 1.0 - 1e-4, 10_001)
    c0 = coarse[int(np.argmax(gap(coarse)))]
    fine = np.linspace(c0 - 2e-4, c0 + 2e-4, 40_001)
    vals = gap(fine)
    i = int(np.argmax(vals))
    return float(vals[i]), float(fine[i])


def global_efficiencies_direct(n: int, c: Overlap | float) -> np.ndarray:
    """Efficiencies by the literal sum ``sum_j (-c)^|k-j|`` (O(n^2)).

    Definitional form; :func:`global_efficiencies` computes the same values
    through the closed form, and the two agree to machine precision.
    """
    n = _check_n(n)
    cv = _overlap(c)
    idx = np.arange(n)
    terms = np.power(-cv, np.abs(idx[:, None] - idx[None, :]), dtype=np.float64)
    return _frozen_vector(terms.sum(axis=1))


def optimal_success_fraction(n: int, c: float) -> Fraction:
    """The collective bound at the exact binary value of ``c``, as a
    ``Fraction``: the mean of the tent sums ``sum_j (-c)^|k-j|``, each the
    two geometric sums that meet at ``k``, where their entry 2 is not
    negative; else the mean of the corrected vector, the tent minus
    ``gamma_2 * ((-c)^|k-2| + (-c)^|n-k-1|) / (1 + (-c)^(n-3))``, which
    zeroes entries 2 and ``n-1``."""
    d = Fraction(c)
    power = [(-d) ** e for e in range(n + 1)]
    geometric = list(itertools.accumulate(power))  # sum of power[:m + 1]
    tent = [geometric[k - 1] + geometric[n - k] - 1 for k in range(1, n + 1)]
    gamma2 = tent[1]
    if gamma2 < 0:
        den = 1 + power[n - 3]
        tent = [g - gamma2 * (power[abs(k - 2)] + power[abs(n - k - 1)]) / den
                for k, g in enumerate(tent, start=1)]
    return sum(tent) / n


#: significant digits of the ``decimal`` references, far past float64's 17
REFERENCE_DIGITS = 60


def gamma_two_reference(n: int, c: float) -> Decimal:
    """Entry 2 of the plain collective efficiencies,
    ``(1 - c - c^2 - (-c)^(n-1)) / (1 + c)``, in ``decimal`` arithmetic at
    :data:`REFERENCE_DIGITS` digits from the exact binary value of ``c``."""
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        d = Decimal(c)
        return (1 - d - d * d - (-d) ** (n - 1)) / (1 + d)


def z_score_reference(empirical: float, exact: float, trials: int) -> Decimal:
    """``(empirical - exact) / sqrt(exact*(1 - exact)/trials)`` in ``decimal``
    arithmetic at :data:`REFERENCE_DIGITS` digits from the exact binary
    values of the inputs; 0 where the variance vanishes."""
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        e, x = Decimal(empirical), Decimal(exact)
        variance = x * (1 - x) / trials
        return (e - x) / variance.sqrt() if variance > 0 else Decimal(0)


def optimal_strengths_reference(n: int, c: float) -> list[Decimal]:
    """The optimal schedule as the orbit of the map in ``optimize_strengths``
    (strength ``1/s``, ``s' = 1 - c*s`` while ``s >= c``, else strength
    ``1/c``, ``s' = sqrt((1-c^2)(1-s^2))``), run from ``s = 1`` in ``decimal``
    arithmetic at :data:`REFERENCE_DIGITS` digits from the exact binary
    value of ``c``, with ``Decimal.sqrt``."""
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        d = Decimal(c)
        s = Decimal(1)
        xs = []
        for _ in range(n - 1):
            if s >= d:
                xs.append(1 / s)
                s = 1 - d * s
            else:
                xs.append(1 / d)
                s = ((1 - d * d) * (1 - s * s)).sqrt()
        return xs[::-1]


def detection_profile_loop(c: float, xs) -> np.ndarray:
    """The detection profile of one schedule, position by position."""
    c = float(c)
    prof = []
    p0 = 1.0
    pi = 0.0
    for x in np.asarray(xs, dtype=np.float64).tolist():
        prof.append(p0 * (1.0 - c / x))
        pi = p0 * (c * x) + pi * (c * c)
        p0 = 1.0 - pi
    prof.append(p0)
    return np.array(prof)


def tent_efficiencies_full(n: int, cs) -> np.ndarray:
    """``(1 - c - (-c)^k - (-c)^(n-k+1)) / (1 + c)`` for ``k = 1..n``, at an
    overlap or along an ``(R, 1)`` column, every power by ``np.power``."""
    k = np.arange(1, n + 1)
    return (1.0 - cs - np.power(-cs, k) - np.power(-cs, n - k + 1)) / (1.0 + cs)


def closed_form_xs_full(n: int, cs) -> np.ndarray:
    """``(1 + c) / (1 - (-c)^(n-j))`` for ``j = 1..n-1``, at an overlap or
    along an ``(R, 1)`` column, every power by ``np.power``."""
    return (1.0 + cs) / (1.0 - np.power(-cs, n - np.arange(1, n)))


def recursive_xs_loop(n: int, cv: float) -> np.ndarray:
    """The forward substitution of ``recursive_strengths``, one position at
    a time to the last, from the full-power targets
    :func:`tent_efficiencies_full`."""
    if cv == 0.0:
        return np.ones(n - 1)
    targets = tent_efficiencies_full(n, cv).tolist()
    xs = np.empty(n - 1)
    xs[0] = x = cv / (1.0 - targets[0])
    for k in range(1, n - 1):
        run_prob = (1.0 - cv * cv) - cv * targets[k - 1] * x
        if run_prob == 0.0 and abs(targets[k]) <= 1e-15:
            xs[k] = x = 1.0  # the vacuous step at (n=3, c=1/2)
            continue
        xs[k] = x = cv / (1.0 - targets[k] / run_prob)
    return xs


def optimal_strengths_loop(n: int, cv: float) -> np.ndarray:
    """The optimal schedule: :func:`closed_form_xs_full` up to ``c = 1/2``,
    else the orbit of ``optimize_strengths``'s map in ``s``, one position at
    a time from ``s = 1`` down to position 1."""
    if cv <= 0.5:
        return closed_form_xs_full(n, cv)
    xs = [1.0 / cv] * (n - 1)
    s = 1.0
    for j in range(n - 2, -1, -1):
        if s >= cv:
            xs[j] = 1.0 / s
            s = 1.0 - cv * s
        else:
            s = math.sqrt((1.0 - cv * cv) * (1.0 - s * s))
    return np.array(xs)


def enumerate_strategy_nested(schedule: StrengthSchedule) -> DetectionProfile:
    """Detection profile by explicit enumeration of outcome paths.

    Walks every conclusive-default/inconclusive string the positions before
    the change can produce, multiplies out each path probability on its
    own, and sums those ending in the naming pattern.  O(n^2 * 2^n) —
    refuses streams longer than :data:`ENUMERATION_CAP`.
    """
    if schedule.n > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration is exponential; n={schedule.n} exceeds the cap of "
            f"{ENUMERATION_CAP}"
        )
    c = schedule.overlap.c
    xs = schedule.strengths.tolist()
    n = schedule.n
    values = []
    for k in range(1, n + 1):
        if k == 1:
            values.append(1.0 - c / xs[0])
            continue
        prefix_len = k - 2 if k < n else n - 2
        total = 0.0
        for outcomes in itertools.product((True, False), repeat=prefix_len):
            # True = conclusive-default, False = inconclusive
            p = 1.0
            prev_zero = True
            for j, conclusive in enumerate(outcomes, start=1):
                x = xs[j - 1] if prev_zero else c
                p *= (1.0 - c * x) if conclusive else c * x
                prev_zero = conclusive
            # conclusive-default at the position before the change (k < n)
            # or at position n-1 (k == n)
            x = xs[prefix_len] if prev_zero else c
            p *= 1.0 - c * x
            if k < n:
                # conclusive-change right after a conclusive-default outcome
                p *= 1.0 - c / xs[k - 1]
            total += p
        values.append(total)
    return DetectionProfile(values)


def simulate_counts_forward(
    c: float, xs: np.ndarray, trials: int, seed: int
) -> tuple[np.ndarray, int]:
    """Detections per position and the count of wrong verdicts over
    ``trials`` trials, each walked forward from position 1 to its change
    point.

    Each chunk is sorted by k, descending, and step j hashes the live
    prefix of trials with k >= j, tests the verdicts of its k == j segment
    and carries the one bit of memory, ``prev_zero``, on the rest.  The
    step ``u < 1 - c*x`` runs on the 53-bit integers behind ``u`` against
    exact integer thresholds.  It draws the same ``(seed, trial,
    position)`` uniforms as ``kernels.simulate_counts``, which walks back
    from the change point instead, so the two must agree byte for byte.
    """
    c = float(c)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    n = xs.shape[0] + 1
    root = np.uint64(seed_root(seed))
    # counter offsets j*GAMMA, built as an array op: scalar uint64 products
    # would warn on the intended modular wrap-around
    offsets = np.arange(n, dtype=np.uint64) * GAMMA
    # stay threshold after an inconclusive outcome (x = c), and how far the
    # scheduled strength xs[j-1] after a conclusive 0 lowers it; uint64
    # arithmetic is modular, so thr_pinned - thr_drop is exact for any xs
    thr_pinned = _int_threshold(1.0 - c * c)
    thr_drop = thr_pinned - _int_threshold(1.0 - c * xs)
    r30, r27, r31, r11 = (np.uint64(s) for s in (30, 27, 31, 11))
    size = min(trials, _CHUNK)
    z = np.empty(size, dtype=np.uint64)
    tmp = np.empty(size, dtype=np.uint64)
    counts = np.zeros(n, dtype=np.int64)
    wrong = 0
    for lo in range(0, trials, _CHUNK):
        hi = min(lo + _CHUNK, trials)
        t = np.arange(lo, hi, dtype=np.uint64)
        zt = _mix64(root + t * GAMMA)
        u = (_mix64(zt) >> r11).astype(np.float64) * _INV53
        k = (u * n).astype(np.int64)
        np.minimum(k, n - 1, out=k)
        k += 1
        # a stable sort on the smallest dtype that holds n - k is a radix
        # sort for n < 2**16
        order = np.argsort((n - k).astype(np.min_scalar_type(n)), kind="stable")
        zt, k = zt[order], k[order]
        del t, u, order  # the draw temporaries are not live during the walk
        # ge[j] = number of trials with k >= j, for j in 0..n+1
        ge = np.bincount(k, minlength=n + 2)[::-1].cumsum()[::-1].tolist()
        prev_zero = np.ones(hi - lo, dtype=np.bool_)
        det = np.zeros(hi - lo, dtype=np.int64)
        for j in range(1, n):
            live, carry = ge[j], ge[j + 1]
            if live == 0:
                break
            m, scratch = z[:live], tmp[:live]
            np.add(zt[:live], offsets[j], out=m)
            np.right_shift(m, r30, out=scratch)
            m ^= scratch
            m *= _MIX1
            np.right_shift(m, r27, out=scratch)
            m ^= scratch
            m *= _MIX2
            np.right_shift(m, r31, out=scratch)
            m ^= scratch
            m >>= r11
            # verdicts of the trials whose change point is j
            u = m[carry:].astype(np.float64) * _INV53
            hit = prev_zero[carry:live] & (xs[j - 1] * (1.0 - u) > c)
            det[carry:live][hit] = j
            # the rest stay live: u < 1 - c*x, with x set by prev_zero
            pz, thr = prev_zero[:carry], scratch[:carry]
            np.multiply(pz, thr_drop[j - 1], out=thr)
            np.subtract(thr_pinned, thr, out=thr)
            np.less(m[:carry], thr, out=pz)
        det[: ge[n]][prev_zero[: ge[n]]] = n
        counts += np.bincount(det, minlength=n + 1)[1:]
        wrong += int(np.count_nonzero((det > 0) & (det != k)))
    return counts, wrong


#: significant digits of :func:`detection_profile_reference`
PROFILE_REFERENCE_DIGITS = 50


def detection_profile_reference(c: float, xs) -> list[Decimal]:
    """The detection profile of one schedule by the forward recursion
    (entry j is ``p0_j * (1 - c/x_j)``, the last ``p0_n``, with
    ``pi' = p0*c*x + pi*c^2`` from ``pi = 0``) in ``decimal`` arithmetic at
    :data:`PROFILE_REFERENCE_DIGITS` digits from the exact binary values
    of ``c`` and the strengths."""
    with localcontext() as ctx:
        ctx.prec = PROFILE_REFERENCE_DIGITS
        d = Decimal(c)
        prof = []
        p0, pi = Decimal(1), Decimal(0)
        for x in np.asarray(xs, dtype=np.float64).tolist():
            x = Decimal(x)
            prof.append(p0 * (1 - d / x))
            pi = p0 * d * x + pi * d * d
            p0 = 1 - pi
        prof.append(p0)
        return prof


_Pair = tuple[float, dict | None]


def _suite(name: str, threshold: float, results: Iterable[_Pair]) -> SuiteResult:
    """Fold ``(residual, case)`` pairs, in order, into a ``SuiteResult``.

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


def _worst_entry(n: int, c: float, gaps: np.ndarray) -> _Pair:
    """The largest of the entrywise ``gaps`` and its 1-based position."""
    j = int(np.argmax(gaps))
    return float(gaps[j]), _case(n, c, j + 1)


def run_all_per_case(
    n_max: int = 8, seed: int = 0, inject_fault: bool = False
) -> list[SuiteResult]:
    """The four ``verify`` suites of ``verification.run_all``, one case at a
    time: a ``StrengthSchedule`` and both profile routes per random
    schedule, a ``closed_form_strengths`` solution per grid point and a
    ``validate_unambiguous`` report per feasibility case, each case yielded
    in the stacked suites' order.  Each random schedule draws its own
    uniforms through the scalar ``montecarlo._uniform``: case ``i`` of
    chain length ``n`` on stream ``(n - 2)*25 + i``, the overlap at counter
    0 and the strengths at counters ``1..n-1``."""
    root = seed_root(seed)

    def oracle():
        for n in range(2, n_max + 1):
            for i in range(_SCHEDULES_PER_N):
                stream = mix64_int(root + ((n - 2) * _SCHEDULES_PER_N + i) * _GAMMA_INT)
                c = 0.95 * _uniform(stream, 0)
                lo = c if c > 0.0 else 0.05
                hi = min(1.0 / c, 3.0) if c > 0.0 else 3.0
                xs = np.array([lo + (hi - lo) * _uniform(stream, j) for j in range(1, n)])
                schedule = StrengthSchedule(n=n, strengths=xs, overlap=Overlap(c))
                fast = evaluate_strategy(schedule).per_position
                slow = enumerate_strategy(schedule).per_position
                yield _worst_entry(n, c, np.abs(fast - slow))

    cs = [float(round(c, 10)) for c in np.arange(0.0, 0.5001, 0.05)]
    solutions = [closed_form_strengths(n, c) for n, c in itertools.product(range(2, 26), cs)]

    def central():
        for solution in solutions:
            n, c = solution.schedule.n, solution.schedule.overlap.c
            profile = solution.profile
            if inject_fault:
                xs = solution.schedule.strengths.copy()
                xs[0] /= _FAULT_FACTOR
                schedule = StrengthSchedule(n=n, strengths=xs, overlap=Overlap(c))
                profile = evaluate_strategy(schedule)
            gaps = np.abs(profile.per_position - global_efficiencies(n, c))
            mean_gap = abs(profile.average - global_success(n, c))
            j = int(np.argmax(gaps))
            position = j + 1 if gaps[j] >= mean_gap else None
            yield max(float(gaps[j]), mean_gap), _case(n, c, position)

    def recursion():
        for solution in solutions:
            n, c = solution.schedule.n, solution.schedule.overlap.c
            direct = solution.schedule.strengths
            rebuilt = _recursive_xs(c, global_efficiencies(n, c))
            yield _worst_entry(n, c, np.abs(direct - rebuilt))

    def gram():
        for n in range(5, 32, 2):
            threshold = critical_overlap(n)
            for below, grid in (
                (True, np.linspace(0.05, threshold - 0.011, 5)),
                (False, np.linspace(threshold + 0.011, 0.99, 5)),
            ):
                for c in grid.tolist():
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

    return [
        _suite("oracle_equivalence", ORACLE_TOL, oracle()),
        _suite("central_equality", CENTRAL_TOL, central()),
        _suite("recursion_agreement", RECURSION_TOL, recursion()),
        _suite("gram_feasibility", GRAM_TOL, gram()),
    ]
