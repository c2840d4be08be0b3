"""Input validation, the forward profile recursion, and the enumeration oracle."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
    sl_solution,
)
from qcpd import kernels
from qcpd.cli import main
from qcpd.online_opt import best_online
from qcpd.core import (
    ENUMERATION_CAP,
    EPSILON,
    REL_SLACK,
    DetectionProfile,
    _check_probabilities,
    _stack_profiles,
)
import oracles
from conftest import schedules
from oracles import (
    backward_sums,
    check_probabilities_reference,
    check_strength_reference,
    enumerate_strategy_nested,
)


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


#: overlaps at which a bound of ``check_strength`` is degenerate: a signed
#: zero, a subnormal whose 1/c overflows, a tiny normal one, 1/2, 1, NaN
_EDGE_OVERLAPS = [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, math.nan]


def _outcome(check, *args):
    """``None`` when ``check(*args)`` accepts, else the type and message
    of the error it raises."""
    try:
        check(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _strength_edges(c: float) -> list[float]:
    """Strengths every check must treat alike at overlap ``c``: the
    slacked floor ``c*(1 - REL_SLACK)`` and ceiling ``(1/c)*(1 + REL_SLACK)``
    with their neighbours one ulp either side, and NaN, the infinities,
    both zeros, a negative, a subnormal and 1."""
    c += 0.0
    floor = c * (1.0 - REL_SLACK)
    top = (1.0 / c if c else math.inf) * (1.0 + REL_SLACK)
    near = [math.nextafter(b, d) for b in (floor, top) for d in (-math.inf, math.inf)]
    return [floor, top, *near, math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1.0]


#: profile entries every check must treat alike: the bounds -EPSILON and
#: 1 + EPSILON with their neighbours, NaN, the infinities and inner values
_PROBABILITY_EDGES = [
    b for bound in (-EPSILON, 1.0 + EPSILON)
    for b in (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf))
] + [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 1.0]


@st.composite
def _strength_cases(draw):
    """An overlap, scalar (a Python float or ``np.float64``) or a column
    of one per row, and 0-d, 1-D or 2-D strengths drawn from the edges of
    those overlaps and from any float."""
    overlaps = st.one_of(st.sampled_from(_EDGE_OVERLAPS), st.floats(0.0, 1.0), st.floats())
    shape = draw(st.sampled_from([(), (1,), (7,), (3, 4)]))
    if len(shape) == 2 and draw(st.booleans()):
        c = np.array([[draw(overlaps)] for _ in range(shape[0])])
        pool = [x for cv in c[:, 0].tolist() for x in _strength_edges(cv)]
    else:
        c = draw(overlaps)
        c = np.float64(c) if draw(st.booleans()) else c
        pool = _strength_edges(float(c))
    elements = st.one_of(st.sampled_from(pool), st.floats())
    xs = draw(arrays(np.float64, shape, elements=elements))
    return c, (xs.item() if not shape and draw(st.booleans()) else xs)


def _edge_sweep():
    """Every edge strength, alone and after an admissible one, at every
    edge overlap and at 0.3 and 0.7."""
    for c in [*_EDGE_OVERLAPS, 0.3, 0.7]:
        for x in _strength_edges(c):
            yield c, x
            yield c, np.array([c if 0.0 < c <= 1.0 else 1.0, x])


class TestLeanValidators:
    """``check_strength`` and ``_check_probabilities`` take a few numpy
    calls on their accept path; they accept exactly what the masks over
    every entry of ``oracles`` accept, and raise the same messages."""

    @settings(deadline=None, max_examples=500)
    @given(case=_strength_cases())
    @example(case=(5e-324, math.inf))  # infinite ceiling: x = inf fails
    @example(case=(1e-300, math.nextafter(1e300 * (1.0 + REL_SLACK), math.inf)))
    @example(case=(-0.0, np.array([[0.0, 1.0], [1.0, 2.0]])))
    @example(case=(math.nan, np.zeros(0)))
    def test_strengths_as_the_reference(self, case):
        c, xs = case
        assert _outcome(check_strength, c, xs) == _outcome(check_strength_reference, c, xs)

    def test_every_edge_strength_as_the_reference(self):
        for c, xs in _edge_sweep():
            assert _outcome(check_strength, c, xs) == _outcome(check_strength_reference, c, xs), (c, xs)

    @pytest.mark.parametrize("ulps", [-1, 1])
    def test_a_floor_moved_by_one_ulp_disagrees(self, ulps):
        # the negative control: the sweep above tells a floor one ulp
        # lower or higher apart
        moved = [
            (c, xs) for c, xs in _edge_sweep()
            if _outcome(check_strength, c, xs) != _outcome(check_strength_reference, c, xs, ulps)
        ]
        assert moved

    def test_an_overflowing_slack_rejects_an_infinite_strength(self):
        # from 1/c finite up to about (1 + REL_SLACK) times the smallest
        # such c, 1/c is finite but the ceiling it is compared as, 1/c with
        # the slack, overflows: an infinite strength must fail there too,
        # on both paths, with no overflow warning
        tiny = 5e-324
        first = int(1.0 / sys.float_info.max / tiny) - 2
        overlaps = [k * tiny for k in range(first, first + 1200)]
        overflowing = [
            c for c in overlaps if math.isfinite(1.0 / c) and not math.isfinite(1.0 / c * (1.0 + REL_SLACK))
        ]
        assert 1000 <= len(overflowing) < 1200 and overflowing[0] > overlaps[0]
        for c in overflowing:
            for cs, xs in ((c, math.inf), (np.float64(c), np.array([1.0, math.inf])), (np.array([[c]]), np.array([[math.inf]]))):
                with pytest.raises(InvalidMeasurementError, match="= inf is not finite$"):
                    check_strength(cs, xs)
                assert _outcome(check_strength, cs, xs) == _outcome(check_strength_reference, cs, xs)
            check_strength(c, 1.0 / c)
            check_strength(np.array([[c]]), np.array([[1.0 / c]]))

    @settings(deadline=None, max_examples=500)
    @given(
        p=arrays(
            np.float64,
            st.sampled_from([(0,), (1,), (6,), (3, 4)]),
            elements=st.one_of(st.sampled_from(_PROBABILITY_EDGES), st.floats()),
        )
    )
    def test_probabilities_as_the_reference(self, p):
        assert _outcome(_check_probabilities, p) == _outcome(check_probabilities_reference, p)

    @pytest.mark.parametrize("ulps", [0, -1, 1])
    def test_every_edge_probability_as_the_reference(self, ulps):
        # with the bound 1 + EPSILON moved by one ulp, the negative control,
        # the reference must disagree on some edge
        cases = [np.array([x]) for x in _PROBABILITY_EDGES]
        cases += [np.array([[0.5, 0.5], [x, 0.5]]) for x in _PROBABILITY_EDGES]
        moved = [
            p for p in cases
            if _outcome(_check_probabilities, p) != _outcome(check_probabilities_reference, p, ulps)
        ]
        assert bool(moved) == bool(ulps)


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
        # bit for bit np.mean, on either side of numpy's pairwise blocks;
        # and a stack's row means as the curve table takes them
        rng = np.random.default_rng(5)
        for size in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 4097):
            p = rng.random(size)
            assert DetectionProfile(p).average.hex() == float(np.mean(p)).hex()
            stack = rng.random((5, size))
            assert (np.add.reduce(stack, axis=1) / size).tobytes() == stack.mean(axis=1).tobytes()

    @settings(deadline=None, max_examples=60)
    @given(schedule=schedules(max_n=8))
    def test_agrees_with_enumeration_oracle(self, schedule):
        fast = evaluate_strategy(schedule).per_position
        slow = enumerate_strategy(schedule).per_position
        assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("rows", [3, 25])
    def test_a_stack_is_each_row_evaluated_alone(self, rows, monkeypatch):
        # bit for bit, with each row's mean over the stack its average;
        # then the checks a schedule and a profile make, on the stack
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
        monkeypatch.setattr(kernels, "detection_profile", lambda c, xs: np.full(10, 1.5))
        with pytest.raises(ValueError, match="entry 1 = 1.5 is not a probability"):
            _stack_profiles(cs, xs)

    def test_enumeration_refuses_long_chains(self):
        schedule = StrengthSchedule(n=13, strengths=(1.0,) * 12, overlap=Overlap(0.3))
        with pytest.raises(ValueError):
            enumerate_strategy(schedule)


#: widest relative gap of a backward evaluation to the forward mean, in
#: units of ``n * 2**-52``: measured worst 0.81 on the random schedules of
#: ``_backward_cases`` and 1.36 on the optimal, fl and sl ones (2.6e-14 at
#: n = 1001, c = 0.9)
BACKWARD_REL = 1.5


def _backward_cases():
    """``(c, xs)``: 3 000 random schedules of n = 2..59 from one block of
    the counter generator, c in [0.01, 0.99) and strengths log-uniform in
    [c, 1/c]; then the optimal, fl and sl schedules of n up to 1001 at
    c = k/100."""
    for row in kernels._uniforms(14, 0, 3_000, 60):
        n, c = 2 + int(row[0] * 58), 0.01 + 0.98 * row[1]
        log_c = math.log(c)
        yield c, np.clip(np.exp(log_c - 2.0 * log_c * row[2 : n + 1]), c, 1.0 / c)
    for build in (optimize_strengths, fl_solution, sl_solution):
        for n in (2, 3, 4, 5, 31, 301, 1001):
            for k in range(1, 100):
                yield k / 100, build(n, k / 100).schedule.strengths


def _backward_gaps() -> list[float]:
    """Each case's relative gap of ``A_1/n`` to the forward mean, in units
    of ``n * 2**-52``."""
    gaps = []
    for c, xs in _backward_cases():
        n = len(xs) + 1
        mean = evaluate_strategy(StrengthSchedule(n=n, strengths=xs, overlap=Overlap(c))).average
        gaps.append(abs(backward_sums(c, xs)[-1] / n - mean) / (mean * n * 2.0**-52))
    return gaps


class TestBackwardEvaluation:
    """The backward pass over the tail sums ``(A, B)``, ``A_1/n``, against
    the mean of the forward profile: a second route to every success."""

    def test_matches_the_forward_mean(self):
        assert max(_backward_gaps()) <= BACKWARD_REL

    def test_a_flipped_sign_is_caught(self, monkeypatch):
        # negative control: the c*B*y term of t with its sign flipped
        def flipped(cv, y, a, b):
            t = 1.0 - cv / y - cv * b * y
            return a + t, b * cv * cv - t

        monkeypatch.setattr(oracles, "_push_head", flipped)
        assert min(_backward_gaps()) > BACKWARD_REL


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
