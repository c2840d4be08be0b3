"""Schedule constructions, the coordinate optimizer, and benchmark families."""

from __future__ import annotations

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from qcpd import (
    OutOfValidityError,
    StrengthSchedule,
    Overlap,
    closed_form_strengths,
    critical_overlap,
    evaluate_strategy,
    fl_solution,
    fl_success_asymptotic,
    global_efficiencies,
    global_success,
    optimal_global,
    optimize_strengths,
    recursive_strengths,
    sl_solution,
    sl_success_asymptotic,
)
from qcpd import online_opt, verification
from qcpd.online_opt import best_online, fl_success_exact
from qcpd.cli import build_curve
from qcpd.global_bound import _end_powers
from qcpd.kernels import detection_profile
from oracles import (
    GOLDEN,
    backward_sums,
    coordinate_objective,
    optimal_strengths_loop,
    optimal_strengths_reference,
    optimize_strengths_backward,
    recursive_xs_loop,
    sl_worst_case_gap,
    total_saturation_point,
)

C_GRID = [0.05, 0.15, 0.25, 0.35, 0.45, 0.5]


class TestClosedForm:
    @pytest.mark.parametrize("c", [0.1, 0.2, 0.3, 0.4, 0.49])
    def test_four_position_formulas(self, c):
        xs = closed_form_strengths(4, c).schedule.strengths
        want = (1 / (1 - c + c * c), 1 / (1 - c), 1.0)
        assert xs == pytest.approx(want, abs=1e-12)

    def test_profile_equals_global_efficiencies(self):
        for n in (2, 5, 12, 25):
            for c in C_GRID:
                solution = closed_form_strengths(n, c)
                target = global_efficiencies(n, c)
                got = np.asarray(solution.profile.per_position)
                assert np.max(np.abs(got - target)) <= 1e-10
                assert solution.success == pytest.approx(
                    global_success(n, c), abs=1e-10
                )

    def test_zero_overlap_is_all_balanced(self):
        assert closed_form_strengths(5, 0.0).schedule.strengths.tolist() == [1.0] * 4

    def test_rejects_high_overlap(self):
        with pytest.raises(OutOfValidityError):
            closed_form_strengths(4, 0.6)
        closed_form_strengths(4, 0.5)  # boundary is inside

    def test_last_strength_is_balanced(self):
        for n in (2, 3, 9):
            assert closed_form_strengths(n, 0.37).schedule.strengths[-1] == pytest.approx(1.0)


class TestRecursive:
    def test_matches_closed_form(self):
        for n in (2, 3, 4, 7, 18):
            for c in C_GRID:
                a = closed_form_strengths(n, c).schedule.strengths
                b = recursive_strengths(n, c).schedule.strengths
                assert np.max(np.abs(a - b)) <= 1e-10

    def test_four_positions_at_c_03(self):
        xs = recursive_strengths(4, 0.3).schedule.strengths
        assert xs == pytest.approx((1.2658227848, 1.4285714286, 1.0), abs=1e-9)

    def test_removable_singularity_at_three_positions_half_overlap(self):
        # the one admissible point where the forward substitution hits 0/0:
        # the first strength saturates the ceiling exactly when the second
        # position's target efficiency vanishes, so the second strength is
        # unconstrained and takes the balanced value
        xs = recursive_strengths(3, 0.5).schedule.strengths
        assert xs == pytest.approx((2.0, 1.0), abs=1e-12)
        assert xs == pytest.approx(
            closed_form_strengths(3, 0.5).schedule.strengths, abs=1e-12
        )

    def test_rejects_high_overlap(self):
        with pytest.raises(OutOfValidityError):
            recursive_strengths(5, 0.51)

    def test_guards_raise_out_of_validity_with_plain_floats(self, monkeypatch):
        # RECURSION_FLOOR rejects the small overlaps where 1 - g(1) cancels
        # to 0, so a first target of 1 stands in for that cancellation
        monkeypatch.setattr(
            online_opt, "global_efficiencies", lambda n, c: np.array([1.0, 0.5, 0.5, 0.5, 0.5])
        )
        with pytest.raises(OutOfValidityError, match=r"1 - target = 0\.0$"):
            recursive_strengths(5, 0.3)
        # targets no admissible schedule meets: position 2 asks for more
        # than the conclusive run leaves
        monkeypatch.setattr(
            online_opt, "global_efficiencies", lambda n, c: np.array([0.5, 2.0, 0.5, 0.5, 0.5])
        )
        with pytest.raises(OutOfValidityError, match=r"position 2 \(denominator -1\.43\d*\)$"):
            recursive_strengths(5, 0.3)

    def test_floor_is_the_edge_of_the_accurate_range(self):
        floor = online_opt.RECURSION_FLOOR
        for n in (2, 3, 25, 200):
            a = closed_form_strengths(n, floor).schedule.strengths
            b = recursive_strengths(n, floor).schedule.strengths
            assert np.max(np.abs(a - b)) <= verification.RECURSION_TOL
        below = float(np.nextafter(floor, 0.0))
        for c in (below, 1e-12, 5e-324):
            with pytest.raises(OutOfValidityError, match=r"below overlap 0\.001 \(got "):
                recursive_strengths(6, c)
        assert recursive_strengths(6, 0.0).schedule.strengths.tolist() == [1.0] * 5

    def test_agrees_with_closed_form_between_floor_and_verify_grid(self):
        # verify's recursion_agreement starts at c = 0.05; below it the
        # drift grows as c shrinks (worst measured: 2.2e-11, n = 200, c = 1e-3)
        overlaps = np.geomspace(online_opt.RECURSION_FLOOR, 0.05, 25, endpoint=False)
        worst = max(
            (
                float(np.max(np.abs(
                    online_opt._recursive_xs(c, global_efficiencies(n, c))
                    - online_opt._closed_form_xs(c, _end_powers(n, c))
                ))),
                n,
                c,
            )
            for n in range(2, 201)
            for c in overlaps.tolist()
        )
        assert worst[0] <= verification.RECURSION_TOL, worst


class TestCoordinateObjective:
    def test_two_positions_have_known_coefficients(self):
        # averaging (1 - c/x) and (1 - c*x) gives 1 - (c/2)(x + 1/x)
        c = 0.3
        schedule = StrengthSchedule(n=2, strengths=(1.1,), overlap=Overlap(c))
        fit = coordinate_objective(2, c, schedule, position=1)
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)
        assert fit.beta == pytest.approx(-c / 2, abs=1e-12)
        assert fit.delta == pytest.approx(-c / 2, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_fit_reproduces_the_success_curve(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(3, 10))
            c = float(rng.uniform(0.05, 0.9))
            hi = min(1.0 / c, 3.0)
            xs = rng.uniform(c, hi, size=n - 1)
            schedule = StrengthSchedule(
                n=n, strengths=tuple(xs), overlap=Overlap(c)
            )
            position = int(rng.integers(1, n))
            fit = coordinate_objective(n, c, schedule, position)
            assert fit.residual <= 1e-12
            for x in rng.uniform(c, hi, size=4):
                moved = list(xs)
                moved[position - 1] = x
                success = evaluate_strategy(
                    StrengthSchedule(n=n, strengths=tuple(moved), overlap=Overlap(c))
                ).average
                assert fit(x) == pytest.approx(success, abs=1e-11)

    def test_long_schedule_matches_direct_evaluation(self):
        rng = np.random.default_rng(23)
        n, c = 500, 0.6
        xs = rng.uniform(c, 1.0 / c, size=n - 1)
        for position in (1, 2, 250, n - 1):
            schedule = StrengthSchedule(n=n, strengths=tuple(xs), overlap=Overlap(c))
            objective = coordinate_objective(n, c, schedule, position)
            assert objective.residual <= 1e-12
            for x in rng.uniform(c, 1.0 / c, size=4):
                moved = xs.copy()
                moved[position - 1] = x
                success = evaluate_strategy(
                    StrengthSchedule(n=n, strengths=tuple(moved), overlap=Overlap(c))
                ).average
                assert abs(objective(x) - success) <= 1e-12

    def test_mismatched_schedule_is_rejected(self):
        schedule = StrengthSchedule(n=3, strengths=(1.0, 1.0), overlap=Overlap(0.2))
        with pytest.raises(ValueError):
            coordinate_objective(4, 0.2, schedule, position=1)
        with pytest.raises(ValueError):
            coordinate_objective(3, 0.3, schedule, position=1)


def _golden_section_max(f, lo, hi, tol=1e-10):
    """Tiny independent maximizer used to cross-check the analytic argmax."""
    inv_phi = GOLDEN
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


class TestOptimizer:
    def test_matches_closed_form_in_validity_range(self):
        for n, c in [(4, 0.1), (4, 0.3), (4, 0.49), (10, 0.4), (7, 0.25)]:
            a = closed_form_strengths(n, c).schedule.strengths
            b = optimize_strengths(n, c).schedule.strengths
            assert np.max(np.abs(a - b)) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 31, 50, 1000, 2000, 5000])
    def test_matches_closed_form_to_the_last_bits(self, n):
        # the optimum stays near 1 + c however small c is, so the tiny
        # overlaps check that only an exactly flat objective (c = 0) falls
        # back to the balanced strength 1
        tiny = (1e-300, 1e-200, 1e-16, 1e-14, 1e-12)
        for c in (*tiny, 1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.49, 0.5):
            a = closed_form_strengths(n, c).schedule.strengths
            b = optimize_strengths(n, c).schedule.strengths
            assert a.tobytes() == b.tobytes()

    def test_first_strength_maximizes_its_coordinate(self):
        # cross-check the analytic one-dimensional maximizer against golden
        # section search on the exact one-strength objective
        for n, c in [(6, 0.55), (9, 0.62), (5, 0.8)]:
            solution = optimize_strengths(n, c)
            schedule = solution.schedule
            fit = coordinate_objective(n, c, schedule, position=1)
            lo, hi = c, 1.0 / c
            numeric = _golden_section_max(fit, lo, hi)
            analytic = schedule.strengths[0]
            assert fit(analytic) >= fit(numeric) - 1e-12

    def test_saturation_structure(self):
        c_s = total_saturation_point()
        for n in (8, 12):
            for c in (0.55, 0.6, 0.65, 0.68, 0.7, 0.8, 0.9):
                xs = optimize_strengths(n, c).schedule.strengths
                assert xs[-1] == pytest.approx(1.0, abs=1e-12)
                assert xs[-2] == pytest.approx(min(1 / (1 - c), 1 / c), abs=1e-9)
                if 0.5 < c < c_s:
                    inner = 1.0 / np.sqrt(c * (2 - c) * (1 - c * c))
                    assert xs[-3] == pytest.approx(min(inner, 1 / c), abs=1e-9)

    def test_total_saturation(self):
        c = 0.75  # beyond the saturation point
        solution = optimize_strengths(10, c)
        xs = solution.schedule.strengths
        assert xs[:-1] == pytest.approx((1 / c,) * 8, abs=1e-9)
        assert xs[-1] == 1.0
        saturated = solution.saturated_positions
        assert saturated.tolist() == list(range(1, 9))
        assert saturated.dtype == np.int64 and not saturated.flags.writeable

    @pytest.mark.parametrize("c", [5e-324, 1e-310, 5.5e-309])
    def test_subnormal_overlap_saturates_nothing(self, c):
        # 1/c overflows to inf: the ceiling and its slack are infinite
        solution = optimize_strengths(6, c)
        assert 1.0 / c == np.inf
        assert solution.saturated_positions.tolist() == []

    def test_shift_property(self):
        # the optimal first strength of the m-position tail problem equals
        # the strength at position n-m+1 of the full problem
        n, c = 9, 0.7
        full = optimize_strengths(n, c).schedule.strengths
        for m in range(2, n + 1):
            tail = optimize_strengths(m, c).schedule.strengths
            assert tail[0] == pytest.approx(full[n - m], abs=1e-9)

    def test_perturbing_any_strength_cannot_help(self):
        n, c = 9, 0.66
        solution = optimize_strengths(n, c)
        xs = np.asarray(solution.schedule.strengths)
        base = solution.success
        lo, hi = c, 1.0 / c
        for j in range(n - 1):
            for delta in (-1e-3, 1e-3):
                moved = xs.copy()
                moved[j] = min(max(moved[j] + delta, lo), hi)
                success = evaluate_strategy(
                    StrengthSchedule(n=n, strengths=tuple(moved), overlap=Overlap(c))
                ).average
                assert success <= base + 1e-12

    def test_degenerate_overlaps(self):
        assert optimize_strengths(5, 1.0).schedule.strengths.tolist() == [1.0] * 4
        assert optimize_strengths(5, 1.0).success == pytest.approx(0.0, abs=1e-15)
        assert optimize_strengths(5, 0.0).schedule.strengths.tolist() == [1.0] * 4
        assert optimize_strengths(5, 0.0).success == 1.0


#: most units in the last place between :func:`optimize_strengths` and the
#: ``(A, B)`` pass it replaced; the largest distance measured is 4, over
#: 3 000 seeded cases with n <= 400 and c in [1/2, 0.99]
ORACLE_ULPS = 4


def _ulps(a: np.ndarray, b: np.ndarray) -> int:
    """Largest distance in units in the last place between two arrays of
    positive floats."""
    return int(np.max(np.abs(a.view(np.int64) - b.view(np.int64))))


def _neighbours(c: float, k: int) -> list[float]:
    """``c`` and the ``k`` floats on either side of it."""
    below, above = [c], [c]
    for _ in range(k):
        below.append(float(np.nextafter(below[-1], 0.0)))
        above.append(float(np.nextafter(above[-1], 1.0)))
    return below[::-1] + above[1:]


class TestBackwardOracle:
    """The one-variable map against the ``(A, B)`` backward pass, which
    maximizes the rational objective position by position instead."""

    @staticmethod
    def _check(n: int, c: float) -> None:
        new = optimize_strengths(n, c)
        old = optimize_strengths_backward(n, c)
        assert _ulps(new.schedule.strengths, old.schedule.strengths) <= ORACLE_ULPS, (n, c)
        assert np.array_equal(new.saturated_positions, old.saturated_positions), (n, c)

    def test_seeded_cases(self):
        rng = np.random.default_rng(14)
        for _ in range(800):
            self._check(int(rng.integers(2, 401)), float(rng.uniform(0.0, 1.0)))

    @pytest.mark.parametrize("n", [2, 3, 4, 31, 301, 20001])
    def test_edge_overlaps(self, n):
        # at the golden ratio the interior fixed point 1/(1+c) equals c, so
        # the float orbit meets the tie s = c again and again
        golden = float(GOLDEN)
        edges = (0.0, 1e-12, 0.5, 0.51, 0.6, golden - 1e-12, golden + 1e-12,
                 total_saturation_point(), 0.75, 0.99, 1.0)
        for c in (*_neighbours(golden, 4), *edges):
            self._check(n, c)


#: widest relative distance, in units of 2**-52, of a strength of the float
#: orbit from the 60-digit one; measured worst 1.35 (n = 31, c ~ 0.61803)
ORBIT_REL = 2


class TestOrbitAccuracy:
    """The float orbit (or its closed form, c <= 1/2) against the same map
    run in 60-digit ``decimal``.  The map is continuous at its branch tie
    ``s = c``, so a branch the two runs choose differently moves a strength
    only by rounding."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 31, 301, 3001])
    def test_strengths_within_two_units_of_the_reference(self, n):
        golden = float(GOLDEN)
        overlaps = [1e-9, 1e-3, 0.1, 0.3, *_neighbours(0.5, 1), 0.6, golden,
                    float(np.nextafter(golden, 1.0)), 0.7, 0.9, 0.99,
                    1 - 1e-6, 1 - 1e-9, 1 - 1e-12]
        overlaps += np.random.default_rng(31).uniform(0.5, 1.0, 10).tolist()
        cstar = critical_overlap(n)
        if cstar is not None:
            overlaps.append(cstar)
        for c in overlaps:
            xs = online_opt._optimal_strengths(n, c).tolist()
            for x, ref in zip(xs, optimal_strengths_reference(n, c), strict=True):
                assert abs(Decimal(x) / ref - 1) <= ORBIT_REL * Decimal(2) ** -52, (n, c)


class TestSettledChains:
    """The forward substitution and the orbit stop once their state repeats
    and fill the rest; the full loops in ``tests/oracles.py`` must agree bit
    for bit, settled or not."""

    NEVER_SETTLES = (34216, 0.139696)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 31, 129, 1001, 34216, 100001])
    def test_recursive_xs_equals_the_loop(self, n):
        for c in [0.0, online_opt.RECURSION_FLOOR, 0.02, 0.139696, 0.25, 0.3, 0.48, 0.5]:
            xs = online_opt._recursive_xs(c, global_efficiencies(n, c))
            assert xs.tobytes() == recursive_xs_loop(n, c).tobytes(), c

    def test_the_vacuous_step_at_three_positions(self):
        xs = online_opt._recursive_xs(0.5, global_efficiencies(3, 0.5))
        assert xs.tobytes() == recursive_xs_loop(3, 0.5).tobytes()

    def test_a_chain_that_never_settles_keeps_its_full_loop(self):
        n, c = self.NEVER_SETTLES
        xs = online_opt._recursive_xs(c, global_efficiencies(n, c))
        assert xs.tobytes() == recursive_xs_loop(n, c).tobytes()
        assert len(np.unique(xs)) > n - 10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 31, 129, 1001, 100001])
    def test_optimal_strengths_equal_the_orbit_loop(self, n):
        golden = float(GOLDEN)
        for c in [0.3, 0.5, 0.5000001, 0.55, 0.6, golden, 0.62, 0.65, 0.7, 0.9, 0.99, 1.0]:
            assert online_opt._optimal_strengths(n, c).tobytes() == optimal_strengths_loop(n, c).tobytes(), c


class TestSaturationPoint:
    def test_pinned_value(self):
        assert total_saturation_point() == pytest.approx(0.6888921825343459, abs=1e-10)

    def test_is_a_root_of_the_cubic(self):
        c = total_saturation_point()
        assert c**3 - 2 * c**2 - 2 * c + 2 == pytest.approx(0.0, abs=1e-11)

    def test_inner_strength_meets_the_ceiling_there(self):
        c = total_saturation_point()
        inner = 1.0 / np.sqrt(c * (2 - c) * (1 - c * c))
        assert inner == pytest.approx(1.0 / c, abs=1e-9)


def _bits(solution) -> tuple[bytes, str]:
    """A solution's strengths and success, bit for bit."""
    return solution.schedule.strengths.tobytes(), solution.success.hex()


class TestSaturatedRegime:
    """From the total saturation point c_s on, the optimizer clips every
    strength but the last: its schedule is sl's."""

    def test_optimizer_is_sl_from_the_saturation_point(self):
        c_s = total_saturation_point()
        cs = [k / 2000 for k in range(int(np.ceil(c_s * 2000)), 2000)]
        assert cs[0] >= c_s and len(cs) == 622
        for n in (3, 4, 5, 31, 301, 3001):
            for c in cs:
                assert _bits(optimize_strengths(n, c)) == _bits(sl_solution(n, c)), (n, c)

    @pytest.mark.parametrize("n", [5, 31, 3001])
    @pytest.mark.parametrize("c", [0.6, 0.62, 0.65])
    def test_optimizer_is_not_sl_below_it(self, n, c):
        # negative control: below c_s (0.6 below the golden ratio, 0.62
        # and 0.65 above it) a few positions near the end stay below the
        # ceiling
        assert c < total_saturation_point()
        optimized = optimize_strengths(n, c).schedule.strengths
        assert optimized.tobytes() != sl_solution(n, c).schedule.strengths.tobytes()


class TestConstantStrengthFamily:
    def test_exact_formula_matches_profile(self):
        for n in (2, 3, 4, 5, 10, 50, 200):
            for c in (0.1, 0.3, 0.5):
                direct = fl_success_exact(n, c)
                profile = fl_solution(n, c).success
                assert direct == pytest.approx(profile, abs=1e-12)

    def test_default_strength_is_one_plus_c(self):
        xs = fl_solution(6, 0.3).schedule.strengths
        assert xs == pytest.approx((1.3, 1.3, 1.3, 1.3, 1.0))

    def test_default_clips_beyond_golden_overlap(self):
        c = 0.7
        xs = fl_solution(6, c).schedule.strengths
        assert xs.tolist() == [1 / c] * 4 + [1.0]
        assert fl_success_exact(6, c) == fl_success_exact(6, c, x=1 / c)
        x = 1 / c
        assert fl_success_asymptotic(c) == (1 - c * c) * (1 - c / x) / (1 + c * x - c * c)
        # fl is the one strength min(1+c, 1/c): only the closed-form
        # cross-check fl_success_exact still takes an explicit x
        with pytest.raises(TypeError):
            fl_solution(6, c, x=1 / c)
        with pytest.raises(TypeError):
            fl_success_asymptotic(c, x=1 / c)

    def test_asymptotic_value_at_the_optimum(self):
        for c in (0.1, 0.3, 0.5, GOLDEN):
            assert fl_success_asymptotic(c) == pytest.approx(
                (1 - c) / (1 + c), abs=1e-14
            )

    def test_exact_approaches_asymptotic(self):
        c = 0.3
        limit = fl_success_asymptotic(c)
        assert abs(fl_success_exact(200, c) - limit) <= 2.0 / 200


class TestSaturatedFamily:
    def test_first_two_positions(self):
        for c in (0.2, 0.5, 0.8):
            profile = sl_solution(8, c).profile.per_position
            assert profile[0] == pytest.approx(1 - c * c, abs=1e-14)
            assert profile[1] == 0.0

    def test_undefined_at_zero_overlap(self):
        with pytest.raises(ValueError):
            sl_solution(5, 0.0)
        with pytest.raises(ValueError):
            sl_success_asymptotic(0.0)

    @pytest.mark.parametrize("c", [1e-310, 5e-324])
    def test_undefined_where_the_ceiling_overflows(self, c):
        # a subnormal overlap whose 1/c is infinite is rejected as c = 0
        # is, not as an infinite strength nobody asked for
        with pytest.raises(ValueError, match=r"ceiling 1/c unbounded") as caught:
            sl_solution(5, c)
        assert "not finite" not in str(caught.value)

    def test_defined_where_the_ceiling_is_finite(self):
        # 1e-308 is below the normal range, but its 1/c is a finite float
        xs = sl_solution(5, 1e-308).schedule.strengths
        assert xs.tolist() == [1.0 / 1e-308] * 3 + [1.0]

    def test_worst_case_gap(self):
        gap, at = sl_worst_case_gap()
        assert gap == pytest.approx(0.022, abs=1e-3)
        assert at == pytest.approx(0.89, abs=1e-2)

    def test_gap_vanishes_at_the_golden_overlap(self):
        c = GOLDEN
        online = (1 - c) / (1 + c)
        assert sl_success_asymptotic(c) == pytest.approx(online, abs=1e-12)


def _offsets(c: float, limit: float) -> list[float]:
    """``n * (p_n - limit)`` for the optimal online success ``p_n`` at
    n = 10^3 and 10^4: equal within round-off when ``limit`` is the
    large-n limit, since ``n * p_n = n * L + K + O(rho^n)``."""
    return [n * (optimize_strengths(n, c).success - limit) for n in (10**3, 10**4)]


class TestLargeChainLaw:
    """The optimizer against the asymptotic table's ``p_online``,
    ``fl_success_asymptotic``: the law ``n * p_n = n * L + K`` holds with
    ``L`` that limit, in every regime and at the golden ratio, where the
    orbit converges slowest; and each settled position adds ``L`` to the
    backward pass's tail sums, on a grid of 999 overlaps."""

    def test_asymptotic_table_prints_the_constant_strength_limit(self):
        table = build_curve(2, 0.01, 0.99, 0.01, asymptotic=True)
        c, _, p_online, p_fl, _ = table.columns.tolist()
        assert p_online == p_fl == [fl_success_asymptotic(cv) for cv in c]

    @pytest.mark.parametrize(
        "c", [0.3, 0.55, 0.6, 0.618, GOLDEN, 0.62, 0.7, 0.9, 0.99]
    )
    def test_offset_is_constant_with_the_table_limit(self, c):
        small, large = _offsets(c, fl_success_asymptotic(c))
        assert small == pytest.approx(large, abs=1e-8)
        if c <= 0.5:
            # from the closed form of global_success, which online attains
            assert large == pytest.approx(2 * c / (1 + c) ** 2, abs=1e-8)

    #: widest gap of a settled increment to the limit: measured worst
    #: 7.22e-15 (c = 0.016), half an ulp of an A in [64, 128)
    SETTLED_TOL = 8e-15
    GRID = [k / 1000 for k in range(1, 1000)]

    @staticmethod
    def _settled_increments(grid) -> list[float]:
        """What each of the first two positions of the optimal schedule of
        n = 120 adds to the backward pass's ``A``, on average.  A strength
        depends only on its distance from the end, and the orbit settles
        into a fixed point or a 2-cycle well within 120 steps (within 77
        on 2 000 overlaps above 1/2, and geometrically at rate c up to
        1/2), so those two add a fixed amount per position."""
        increments = []
        for c in grid:
            sums = backward_sums(c, optimize_strengths(120, c).schedule.strengths)
            increments.append((sums[-1] - sums[-3]) / 2)
        return increments

    def test_each_settled_position_adds_the_table_limit(self):
        limits = [fl_success_asymptotic(c) for c in self.GRID]
        gaps = np.abs(np.subtract(self._settled_increments(self.GRID), limits))
        assert gaps.max() <= self.SETTLED_TOL

    def test_each_settled_position_is_not_the_saturated_limit(self):
        # negative control: below the golden ratio the sl limit is below
        # the true one, by 8.4e-10 at c = 0.618
        grid = [c for c in self.GRID if c < GOLDEN]
        limits = [sl_success_asymptotic(c) for c in grid]
        gaps = np.abs(np.subtract(self._settled_increments(grid), limits))
        assert gaps.min() > self.SETTLED_TOL

    @pytest.mark.parametrize("c", [0.3, 0.55, 0.6, 0.618])
    def test_saturated_limit_fails_below_the_golden_ratio(self, c):
        # negative control: the sl limit is below the true one there, so
        # the offset grows with n
        small, large = _offsets(c, sl_success_asymptotic(c))
        assert small != pytest.approx(large, abs=1e-8)


class TestBestOnline:
    @pytest.mark.parametrize("n", [2, 3, 31, 301])
    @pytest.mark.parametrize(
        "c", [0.0, 0.3, 0.5, np.nextafter(0.5, 1.0), 0.55, GOLDEN, 0.7, 0.99, 1.0]
    )
    def test_is_the_optimized_schedule_under_a_label(self, n, c):
        online = best_online(n, c)
        assert _bits(online) == _bits(optimize_strengths(n, c))
        assert (online.method == "closed-form") == (c <= 0.5)

    def test_uses_closed_form_below_half(self):
        assert best_online(7, 0.4).method == "closed-form"
        assert best_online(7, 0.6).method == "numeric-backward"

    def test_matches_global_bound_below_half(self):
        for n, c in [(6, 0.3), (31, 0.4), (12, 0.5)]:
            assert best_online(n, c).success == pytest.approx(
                global_success(n, c), abs=1e-12
            )

    def test_stays_close_above_half(self):
        n = 31
        value = best_online(n, 0.8).success
        bound = 0.102665  # optimal_global(31, 0.8)
        assert bound - value < 0.03

    def test_family_ordering(self):
        for c in (0.2, 0.55, 0.75, 0.9):
            n = 21
            online = best_online(n, c).success
            fl = fl_solution(n, c).success
            sl = sl_solution(n, c).success
            assert sl <= fl + 1e-9
            assert fl <= online + 1e-9


def _negative_success(xs, c):
    return -float(np.mean(detection_profile(c, xs)))


class TestOptimalityCertificate:
    """Above c = 1/2 no closed form exists; these checks certify the
    backward pass by routes that share none of its algebra."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 10])
    def test_multi_start_search_finds_nothing_better(self, n):
        rng = np.random.default_rng(n)
        for c in np.linspace(0.5, 0.95, 10):
            c = float(c)
            best = optimize_strengths(n, c).success
            bounds = [(c, 1.0 / c)] * (n - 1)
            for _ in range(30):
                start = rng.uniform(c, 1.0 / c, size=n - 1)
                found = minimize(
                    _negative_success, start, args=(c,), method="L-BFGS-B", bounds=bounds
                )
                assert -found.fun <= best + 1e-12

    @settings(deadline=None, max_examples=300)
    @given(n=st.integers(2, 300), c=st.floats(0.0, 0.999, allow_nan=False))
    def test_online_never_beats_the_collective_bound(self, n, c):
        assert best_online(n, c).success <= optimal_global(n, c)[1] + 1e-12
