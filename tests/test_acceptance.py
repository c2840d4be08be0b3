"""Acceptance gate: ten headline checks at their stated tolerances.

Each criterion is one test, so ``pytest -v`` prints one pass/fail line per
criterion.  Measured values are printed for the record (visible with
``-rA`` or on failure).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from qcpd import (
    Overlap,
    StrengthSchedule,
    build_gram,
    closed_form_strengths,
    critical_overlap,
    enumerate_strategy,
    evaluate_strategy,
    fl_solution,
    global_efficiencies,
    global_success,
    optimal_global,
    optimize_strengths,
    run_experiment,
    sl_solution,
    validate_unambiguous,
)
from qcpd.online_opt import best_online, fl_success_exact
from oracles import GOLDEN, sl_worst_case_gap, total_saturation_point

C_HALF_GRID = [round(0.05 * i, 2) for i in range(11)]  # 0, 0.05, .., 0.5


def test_criterion_01_central_equality():
    """Analytic schedule achieves the collective efficiencies exactly."""
    start = time.monotonic()
    worst = 0.0
    for n in range(2, 26):
        for c in C_HALF_GRID:
            solution = closed_form_strengths(n, c)
            target = global_efficiencies(n, c)
            got = np.asarray(solution.profile.per_position)
            worst = max(worst, float(np.max(np.abs(got - target))))
            worst = max(worst, abs(solution.success - global_success(n, c)))
    elapsed = time.monotonic() - start
    print(f"[criterion 1] max residual {worst:.3e} in {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_oracle_equivalence():
    """Brute-force enumeration agrees with the O(n) recursion."""
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n in range(2, 9):
        for _ in range(100):
            c = float(rng.uniform(0.0, 0.95))
            lo = c if c > 0 else 0.05
            hi = min(1.0 / c, 3.0) if c > 0 else 3.0
            xs = tuple(float(v) for v in rng.uniform(lo, hi, size=n - 1))
            schedule = StrengthSchedule(n=n, strengths=xs, overlap=Overlap(c))
            fast = np.asarray(evaluate_strategy(schedule).per_position)
            slow = np.asarray(enumerate_strategy(schedule).per_position)
            worst = max(worst, float(np.max(np.abs(fast - slow))))
    elapsed = time.monotonic() - start
    print(f"[criterion 2] max residual {worst:.3e} over 700 schedules in {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 60.0


def test_criterion_03_four_position_worked_example():
    """Optimizer reproduces the analytic four-position strengths."""
    worst = 0.0
    for c in (0.1, 0.2, 0.3, 0.4, 0.49):
        got = np.asarray(optimize_strengths(4, c).schedule.strengths)
        want = np.array([1 / (1 - c + c * c), 1 / (1 - c), 1.0])
        worst = max(worst, float(np.max(np.abs(got - want))))
    print(f"[criterion 3] max strength deviation {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_04_thresholds():
    """Critical overlap approaches the golden ratio; saturation point at 0.69."""
    worst = 0.0
    for n in (30, 31, 36, 45, 61, 101):
        worst = max(worst, abs(critical_overlap(n) - GOLDEN))
    c_s = total_saturation_point()
    print(f"[criterion 4] worst golden-ratio gap {worst:.2e}, saturation point {c_s:.6f}")
    assert worst <= 1e-4
    assert abs(c_s - 0.69) <= 0.005


def test_criterion_05_saturation_structure():
    """Tail strengths of the optimizer follow the clipped analytic forms."""
    c_s = total_saturation_point()
    worst = 0.0
    for n in (6, 9, 13):
        for c in (0.1, 0.3, 0.45, 0.55, 0.6, 0.65, 0.68, 0.75, 0.85):
            xs = optimize_strengths(n, c).schedule.strengths
            assert xs[-1] == pytest.approx(1.0, abs=1e-12)
            worst = max(worst, abs(xs[-2] - min(1 / (1 - c), 1 / c)))
            if 0.5 < c < c_s:
                inner = 1.0 / math.sqrt(c * (2 - c) * (1 - c * c))
                worst = max(worst, abs(xs[-3] - min(inner, 1 / c)))
    print(f"[criterion 5] max tail-strength deviation {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_06_success_curves_at_31():
    """Online matches the bound up to half overlap; stays within 0.002 after."""
    n = 31
    worst_eq = 0.0
    for c in C_HALF_GRID:
        p_global = optimal_global(n, c)[1]
        p_online = best_online(n, c).success
        worst_eq = max(worst_eq, abs(p_online - p_global))
    worst_gap = 0.0
    for c in [round(0.51 + 0.01 * i, 2) for i in range(10)]:
        p_global = optimal_global(n, c)[1]
        p_fl = fl_solution(n, c).success
        worst_gap = max(worst_gap, p_global - p_fl)
    columns = {"global": [], "online": [], "fl": [], "sl": []}
    for c in [round(0.05 * i, 2) for i in range(20)]:
        columns["global"].append(optimal_global(n, c)[1] if c else 1.0)
        columns["online"].append(best_online(n, c).success if c else 1.0)
        columns["fl"].append(fl_solution(n, c).success if c else 1.0)
        columns["sl"].append(sl_solution(n, c).success if c else 1.0)
    for name, vals in columns.items():
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), name
    print(f"[criterion 6] equality residual {worst_eq:.3e}, post-threshold gap {worst_gap:.5f}")
    assert worst_eq <= 1e-10
    assert worst_gap <= 0.002


def test_criterion_07_saturated_family_worst_gap():
    """Largest asymptotic shortfall of the saturated chain."""
    gap, at = sl_worst_case_gap()
    print(f"[criterion 7] gap {gap:.6f} at overlap {at:.4f}")
    assert abs(gap - 0.022) <= 0.001
    assert abs(at - 0.89) <= 0.01


def test_criterion_08_gram_feasibility_boundary():
    """Efficiency vectors are feasible below the threshold, not above."""
    checked = 0
    for n in range(5, 32, 2):
        cstar = critical_overlap(n)
        for c in np.linspace(0.05, cstar - 0.011, 4):
            report = validate_unambiguous(
                build_gram(n, float(c)), global_efficiencies(n, float(c))
            )
            assert report.feasible, (n, c)
            checked += 1
        for c in np.linspace(cstar + 0.011, 0.99, 4):
            report = validate_unambiguous(
                build_gram(n, float(c)), global_efficiencies(n, float(c))
            )
            assert not report.gamma_range_ok, (n, c)
            checked += 1
    print(f"[criterion 8] {checked} boundary cases checked")


def test_criterion_09_monte_carlo():
    """A million seeded trials match the exact value with zero wrong calls."""
    start = time.monotonic()
    n, c, trials = 6, 0.4, 10**6
    schedule = closed_form_strengths(n, c).schedule
    report = run_experiment(schedule, trials, seed=42)
    exact = global_success(n, c)
    se = math.sqrt(exact * (1 - exact) / trials)
    z = (report.empirical_success - exact) / se
    elapsed = time.monotonic() - start
    print(
        f"[criterion 9] empirical {report.empirical_success:.6f} vs exact "
        f"{exact:.6f} (z={z:+.2f}), {report.mismatched_detections} wrong, "
        f"{elapsed:.2f}s"
    )
    assert abs(z) <= 4.0
    assert report.mismatched_detections == 0
    assert elapsed < 30.0


def test_criterion_10_constant_strength_formula():
    """Closed-form success of the constant-strength family matches the DP."""
    worst = 0.0
    for n in (5, 10, 50, 200):
        for c in (0.1, 0.3, 0.5):
            direct = fl_success_exact(n, c)
            profile = fl_solution(n, c).success
            worst = max(worst, abs(direct - profile))
    print(f"[criterion 10] max formula-vs-recursion gap {worst:.3e}")
    assert worst <= 1e-10
