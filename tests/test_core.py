"""Input validation, the forward profile recursion, and the enumeration oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from qcpd import (
    DetectionProfile,
    InvalidMeasurementError,
    Overlap,
    StrengthSchedule,
    check_strength,
    enumerate_strategy,
    evaluate_strategy,
)
from conftest import schedules


class TestValidation:
    def test_overlap_range(self):
        Overlap(0.0)
        Overlap(1.0)
        with pytest.raises(ValueError):
            Overlap(-0.1)
        with pytest.raises(ValueError):
            Overlap(1.1)

    def test_strength_interval(self):
        check_strength(0.5, 0.5)
        check_strength(0.5, 2.0)
        with pytest.raises(InvalidMeasurementError):
            check_strength(0.5, 0.49)
        with pytest.raises(InvalidMeasurementError):
            check_strength(0.5, 2.01)
        with pytest.raises(InvalidMeasurementError):
            check_strength(0.0, 0.0)
        check_strength(0.0, 100.0)  # no ceiling at zero overlap

    def test_schedule_names_offending_position(self):
        with pytest.raises(InvalidMeasurementError, match="position 2"):
            StrengthSchedule(n=4, strengths=(1.0, 9.0, 1.0), overlap=Overlap(0.5))

    def test_schedule_length_must_fit(self):
        with pytest.raises(ValueError):
            StrengthSchedule(n=4, strengths=(1.0, 1.0), overlap=Overlap(0.2))
        with pytest.raises(ValueError):
            StrengthSchedule(n=1, strengths=(), overlap=Overlap(0.2))

    def test_profile_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            DetectionProfile.from_values([1.5, 0.5])
        with pytest.raises(ValueError):
            DetectionProfile(n=2, per_position=(0.5, 0.5), average=0.9)


def _hand_profile_n4(c: float, xs: tuple[float, float, float]) -> list[float]:
    x1, x2, x3 = xs
    pi1 = c * x1
    d1 = 1 - c / x1
    d2 = (1 - pi1) * (1 - c / x2)
    pi2 = (1 - pi1) * c * x2 + pi1 * c * c
    d3 = (1 - pi2) * (1 - c / x3)
    pi3 = (1 - pi2) * c * x3 + pi2 * c * c
    d4 = 1 - pi3
    return [d1, d2, d3, d4]


class TestEvaluateStrategy:
    def test_matches_hand_expansion_for_four_positions(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = rng.uniform(0.05, 0.9)
            xs = tuple(rng.uniform(c, min(1 / c, 3.0), size=3))
            schedule = StrengthSchedule(n=4, strengths=xs, overlap=Overlap(c))
            got = evaluate_strategy(schedule).per_position
            want = _hand_profile_n4(c, xs)
            assert got == pytest.approx(want, abs=1e-14)

    def test_constant_strength_matches_closed_form(self):
        # at fixed x the inconclusive probability after k measurements has
        # the closed form pi_k = c*x * (1 - q^k) / (1 + c*x - c^2), with
        # q = c^2 - c*x; entry k < n is (1 - pi_{k-1}) * (1 - c/x) and the
        # last entry is 1 - pi_{n-1}
        c, x, n = 0.35, 1.4, 101
        schedule = StrengthSchedule(n=n, strengths=(x,) * (n - 1), overlap=Overlap(c))
        got = evaluate_strategy(schedule).per_position
        q = c * c - c * x
        alive = [1 - c * x * (1 - q**k) / (1 + c * x - c * c) for k in range(n)]
        want = [a * (1 - c / x) for a in alive[:-1]] + [alive[-1]]
        assert got == pytest.approx(want, abs=1e-14)

    def test_zero_overlap_detects_everywhere(self):
        schedule = StrengthSchedule(n=6, strengths=(1.0,) * 5, overlap=Overlap(0.0))
        profile = evaluate_strategy(schedule)
        assert profile.per_position == (1.0,) * 6
        assert profile.average == 1.0

    def test_average_is_the_mean(self):
        schedule = StrengthSchedule(n=5, strengths=(1.1, 1.2, 1.3, 1.0), overlap=Overlap(0.4))
        profile = evaluate_strategy(schedule)
        assert profile.average == pytest.approx(
            sum(profile.per_position) / 5, abs=1e-15
        )

    @settings(deadline=None, max_examples=60)
    @given(schedule=schedules(max_n=8))
    def test_agrees_with_enumeration_oracle(self, schedule):
        fast = evaluate_strategy(schedule).per_position
        slow = enumerate_strategy(schedule).per_position
        assert fast == pytest.approx(slow, abs=1e-12)

    def test_enumeration_refuses_long_chains(self):
        schedule = StrengthSchedule(n=13, strengths=(1.0,) * 12, overlap=Overlap(0.3))
        with pytest.raises(ValueError):
            enumerate_strategy(schedule)
