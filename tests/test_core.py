"""Input validation, the forward profile recursion, and the enumeration oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from qcpd import (
    InvalidMeasurementError,
    Overlap,
    StrengthSchedule,
    check_strength,
    enumerate_strategy,
    evaluate_strategy,
    fl_solution,
    global_efficiencies,
    optimize_strengths,
    recursive_strengths,
)
from qcpd import kernels
from qcpd.cli import main
from qcpd.online_opt import best_online
from qcpd.core import (
    ENUMERATION_CAP,
    REL_SLACK,
    DetectionProfile,
    _check_probabilities,
    _stack_profiles,
)
from conftest import schedules
from oracles import enumerate_strategy_nested


class TestValidation:
    def test_overlap_range(self):
        Overlap(0.0)
        Overlap(1.0)
        with pytest.raises(ValueError):
            Overlap(-0.1)
        with pytest.raises(ValueError):
            Overlap(1.1)

    def test_negative_zero_overlap_is_zero(self):
        # -0.0 compares equal to 0.0 but keeps its sign, so 1/c would be -inf
        assert str(Overlap(-0.0).c) == "0.0"
        check_strength(-0.0, 1.0)
        check_strength(np.array([[-0.0], [0.5]]), np.array([[1.0, 3.0], [0.5, 2.0]]))
        schedule = StrengthSchedule(n=3, strengths=(1.0, 1.0), overlap=Overlap(-0.0))
        assert evaluate_strategy(schedule).per_position.tolist() == [1.0] * 3
        for build in (best_online, fl_solution, recursive_strengths, optimize_strengths):
            got, want = build(5, -0.0), build(5, 0.0)
            assert str(got.schedule.overlap.c) == "0.0"
            assert got.schedule.strengths.tolist() == want.schedule.strengths.tolist()
            assert got.profile.per_position.tolist() == want.profile.per_position.tolist()

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

    def test_stacked_schedules_use_their_own_overlap(self):
        cs = np.array([[0.5], [0.25], [0.0]])
        xs = np.array([[0.5, 2.0], [0.25, 4.0], [9.0, 1e-3]])
        check_strength(cs, xs)
        xs[1, 1] = 4.5
        with pytest.raises(
            InvalidMeasurementError,
            match=r"position 2 = 4\.5 outside the admissible interval \[0\.25, 4\.0\]",
        ):
            check_strength(cs, xs)
        xs[1, 1], xs[2, 0] = 4.0, 0.0
        with pytest.raises(InvalidMeasurementError, match="position 1 = 0.0 must be positive"):
            check_strength(cs, xs)

    def test_stacked_profiles_name_the_position(self):
        _check_probabilities(np.array([[0.2, 0.8], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="entry 2 = 1.5 is not a probability"):
            _check_probabilities(np.array([[0.2, 0.8], [0.1, 1.5]]))

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
            DetectionProfile([1.5, 0.5])


class TestArrayModel:
    def test_stored_vectors_are_read_only(self):
        schedule = StrengthSchedule(n=4, strengths=[1.0, 1.2, 1.0], overlap=Overlap(0.3))
        profile = evaluate_strategy(schedule)
        vec = global_efficiencies(4, 0.3)
        for array in (schedule.strengths, profile.per_position, vec):
            assert array.dtype == np.float64 and array.ndim == 1
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_construction_copies_the_source(self):
        source = np.array([1.0, 1.2, 1.0])
        schedule = StrengthSchedule(n=4, strengths=source, overlap=Overlap(0.3))
        source[1] = 9.0
        assert schedule.strengths.tolist() == [1.0, 1.2, 1.0]

    def test_schedule_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            StrengthSchedule(n=3, strengths=[[1.0, 1.0]], overlap=Overlap(0.3))

    @pytest.mark.parametrize(
        "c, bad, message",
        [
            (0.0, float("nan"), "is not finite"),
            (0.0, float("inf"), "is not finite"),
            (0.0, float("-inf"), "is not finite"),
            (0.0, 0.0, "must be positive"),
            (0.0, -1.0, "must be positive"),
            (0.5, float("nan"), "is not finite"),
            (0.5, 2.0 * (1.0 + 3 * REL_SLACK), "outside the admissible interval"),
            (0.5, 0.5 * (1.0 - 3 * REL_SLACK), "outside the admissible interval"),
        ],
    )
    def test_inadmissible_strength_names_the_first_position(self, c, bad, message):
        xs = [1.0, 1.0, bad, 1.0, bad]
        with pytest.raises(InvalidMeasurementError, match=f"position 3 = .*{message}"):
            StrengthSchedule(n=6, strengths=xs, overlap=Overlap(c))
        with pytest.raises(InvalidMeasurementError, match=f"^strength = .*{message}"):
            check_strength(c, bad)

    def test_strengths_at_the_slack_edges_pass(self):
        c = 0.5
        edges = [c * (1.0 - REL_SLACK), (1.0 / c) * (1.0 + REL_SLACK)]
        StrengthSchedule(n=3, strengths=edges, overlap=Overlap(c))

    def test_nan_in_a_custom_schedule_file_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "schedule.txt"
        bad.write_text("1.0 nan 1.0\n")
        code = main([
            "simulate", "--c", "0.4", "--strategy", "custom",
            "--schedule", str(bad), "--trials", "10", "--seed", "1",
        ])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "strength at position 2 = nan is not finite" in captured.err


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
        assert profile.per_position.tolist() == [1.0] * 6
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

    @pytest.mark.parametrize("rows", [3, kernels._STACK_ROWS + 5])
    def test_a_stack_is_each_row_evaluated_alone(self, rows, monkeypatch):
        # bit for bit, on either walk of the kernel, with each row's mean
        # over the stack its average; then the checks a schedule and a
        # profile make, on the stack
        rng = np.random.default_rng(rows)
        cs = rng.uniform(0.05, 0.95, rows)
        xs = rng.uniform(cs[:, None], 1.0 / cs[:, None], (rows, 9))
        stacked = _stack_profiles(cs, xs)
        for c, x, row, mean in zip(cs.tolist(), xs, stacked, stacked.mean(axis=1).tolist()):
            profile = evaluate_strategy(StrengthSchedule(n=10, strengths=x, overlap=Overlap(c)))
            assert row.tobytes() == profile.per_position.tobytes()
            assert mean == profile.average
        xs[-1, 4] = 1.0 / cs[-1] + 0.1
        with pytest.raises(InvalidMeasurementError, match="position 5 = "):
            _stack_profiles(cs, xs)
        xs[-1, 4] = cs[-1]
        monkeypatch.setattr(kernels, "detection_profile", lambda c, xs: np.full((rows, 10), 1.5))
        with pytest.raises(ValueError, match="entry 1 = 1.5 is not a probability"):
            _stack_profiles(cs, xs)

    def test_enumeration_refuses_long_chains(self):
        schedule = StrengthSchedule(n=13, strengths=(1.0,) * 12, overlap=Overlap(0.3))
        with pytest.raises(ValueError):
            enumerate_strategy(schedule)


def _enumeration_cases(n: int, rng: np.random.Generator):
    """Zero overlap, overlap 1, a first summand of -0.0, strengths exactly
    at c and 1/c, and random admissible schedules, all of length ``n``."""
    yield Overlap(0.0), rng.uniform(0.05, 3.0, size=n - 1)
    yield Overlap(1.0), np.ones(n - 1)
    if n > 2:
        # x_1 = 1/c, so the all-default path has probability 0, and x_2 sits
        # below c inside REL_SLACK, so 1 - c/x_2 < 0: entry 2's one summand
        # is -0.0, which a fold from 0.0 turns into +0.0
        yield Overlap(0.5), np.array([2.0, 0.5 * (1.0 - 1e-13)] + [1.0] * (n - 3))
    for _ in range(4):
        c = float(rng.uniform(0.01, 0.99))
        yield Overlap(c), rng.choice([c, 1.0 / c], size=n - 1)
    for _ in range(20):
        c = float(rng.uniform(0.0, 0.99))
        yield Overlap(c), rng.uniform(max(c, 0.05), min(1.0 / c, 3.0) if c else 3.0, size=n - 1)


@pytest.mark.parametrize("n", range(2, ENUMERATION_CAP + 1))
def test_enumeration_is_bit_identical_to_the_nested_loop(n):
    rng = np.random.default_rng(64331 + n)
    for overlap, xs in _enumeration_cases(n, rng):
        schedule = StrengthSchedule(n=n, strengths=xs, overlap=overlap)
        shared = enumerate_strategy(schedule).per_position
        nested = enumerate_strategy_nested(schedule).per_position
        assert shared.tobytes() == nested.tobytes(), (overlap, xs)
