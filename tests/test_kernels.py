"""Kernel checks: the splitmix64 mixers, detection-profile values, and
bit-exact agreement of the Monte Carlo kernel with the scalar
``simulate_trial`` walk, including across chunk boundaries, for any chunk
size, and at the edges of the admissible strengths; and with the forward
kernel in ``tests/oracles.py`` at sizes the scalar walk cannot reach."""

from __future__ import annotations

import tracemalloc
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import settled_schedules
from oracles import GOLDEN, detection_profile_loop, detection_profile_reference, simulate_counts_forward

from qcpd import (
    Overlap,
    StrengthSchedule,
    fl_solution,
    kernels,
    online_opt,
    sl_solution,
)
from qcpd.core import REL_SLACK, DetectionProfile
from qcpd.kernels import active_backend
from qcpd.montecarlo import _uniform, simulate_trial
from qcpd.online_opt import best_online


def _random_case(rng, n_max=40):
    n = int(rng.integers(2, n_max))
    c = float(rng.uniform(0.0, 0.98))
    lo = c if c > 0 else 0.05
    hi = min(1.0 / c, 3.0) if c > 0 else 3.0
    xs = rng.uniform(lo, hi, size=n - 1)
    return c, xs


def _pooled_verdicts(schedule, seed, lo, hi):
    """Detections per position and wrong verdicts of the scalar walk over
    trial indices ``lo..hi-1``."""
    pooled = np.zeros(schedule.n, dtype=np.int64)
    wrong = 0
    for t in range(lo, hi):
        result = simulate_trial(schedule, seed, trial_index=t)
        if result.detected_position is not None:
            pooled[result.detected_position - 1] += 1
            wrong += result.detected_position != result.true_change_point
    return pooled, wrong


@st.composite
def _edge_schedules(draw):
    """Schedules whose strengths are often exactly c or 1/c, or just past
    them by the admissibility slack, where ``1 - c*x`` is 1 - c**2, a hair
    above it, or rounds to 0 or a tiny negative value.  n = 2 has no draw
    before the verdict."""
    n = draw(st.one_of(st.just(2), st.integers(2, 12)))
    c = draw(st.floats(0.0, 0.99, allow_subnormal=False))
    if c == 0.0:
        strength = st.floats(0.05, 3.0)
    else:
        strength = st.one_of(
            st.just(c),
            st.just(1.0 / c),
            st.just(c * (1.0 - REL_SLACK)),
            st.just((1.0 / c) * (1.0 + REL_SLACK)),
            st.floats(c, 1.0 / c),
        )
    xs = tuple(draw(strength) for _ in range(n - 1))
    return StrengthSchedule(n=n, strengths=xs, overlap=Overlap(c))


def lockstep():
    """Walk every stack in lockstep, however narrow: the tests of that walk
    hold narrow stacks too."""
    return mock.patch.object(kernels, "_STACK_ROWS", 1)


class TestMixer:
    def test_scalar_and_array_mixers_agree(self):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 2**64, size=256, dtype=np.uint64)
        array_out = kernels._mix64(raw.copy())
        for value, mixed in zip(raw.tolist(), array_out.tolist()):
            assert kernels.mix64_int(value) == mixed

    def test_seed_root_rejects_seeds_outside_the_generator_range(self):
        # a seed outside [0, 2**64) would alias the one it equals mod 2**64
        for seed in (0, 1, 2**64 - 1):
            assert 0 <= kernels.seed_root(seed) < 2**64
        assert kernels.seed_root(0) != kernels.seed_root(1)
        for seed in (-1, 2**64, 5 + 2**64):
            with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
                kernels.seed_root(seed)


class TestUniforms:
    """``kernels._uniforms`` against the scalar ``montecarlo._uniform``,
    bit for bit: the vector route ``verify`` draws from and the one
    ``simulate_trial`` walks on share one key tree."""

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**64 - 1] + np.random.default_rng(34).integers(0, 2**64, 3, dtype=np.uint64).tolist()
    )
    @pytest.mark.parametrize("first", [0, 7, 2**32 - 2, 2**40 + 3])
    def test_each_draw_is_the_scalar_one(self, seed, first):
        rows, cols = 4, 13
        block = kernels._uniforms(seed, first, rows, cols)
        assert block.shape == (rows, cols) and block.dtype == np.float64
        root = kernels.seed_root(seed)
        for t in range(rows):
            stream = kernels.mix64_int(root + (first + t) * kernels._GAMMA_INT)
            expected = [_uniform(stream, j) for j in range(cols)]
            assert block[t].tobytes() == np.array(expected).tobytes(), (seed, first + t)


class TestProfileBackends:
    def test_profile_values_are_probabilities(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            c, xs = _random_case(rng)
            prof = kernels.detection_profile(c, xs)
            assert np.all(prof >= -1e-15) and np.all(prof <= 1.0 + 1e-15)


class TestStackedProfile:
    """A stack of schedules against the one-schedule kernel, with ``==``."""

    def test_rows_equal_the_one_schedule_kernel(self):
        rng = np.random.default_rng(19)
        special = [0.5, GOLDEN, 1.0]
        for width in range(1, 65):
            n = int(rng.integers(2, 400))
            cs = 1.0 - rng.uniform(0.0, 1.0, width)  # in (0, 1]
            cs[: len(special)] = special[:width]
            xs = rng.uniform(cs[:, None], 1.0 / cs[:, None], (width, n - 1))
            with lockstep():
                stacked = kernels.detection_profile(cs, xs)
            rows = [kernels.detection_profile(c, x) for c, x in zip(cs.tolist(), xs)]
            assert stacked.tolist() == [row.tolist() for row in rows]
            # a row's mean is that of its profile only over a C-contiguous
            # stack: numpy sums pairwise only along the contiguous axis
            averages = [DetectionProfile(row).average for row in rows]
            assert stacked.mean(axis=1).tolist() == averages

    @pytest.mark.parametrize("n", [2, 3, 301, 4097])
    def test_both_shapes_equal_the_position_loop(self, n):
        # the longest rows are each longer than 2 048 strengths
        rng = np.random.default_rng(n)
        cs = rng.uniform(0.05, 0.95, 3)
        xs = rng.uniform(cs[:, None], 1.0 / cs[:, None], (3, n - 1))
        loop = [detection_profile_loop(c, x).tolist() for c, x in zip(cs.tolist(), xs)]
        assert [kernels.detection_profile(c, x).tolist() for c, x in zip(cs.tolist(), xs)] == loop
        assert kernels.detection_profile(cs, xs).tolist() == loop
        with lockstep():
            assert kernels.detection_profile(cs, xs).tolist() == loop

    @staticmethod
    def _peak_per_stack_byte(n, rows):
        rng = np.random.default_rng(n)
        cs = rng.uniform(0.05, 0.95, rows)
        xs = rng.uniform(cs[:, None], 1.0 / cs[:, None], (rows, n - 1))
        kernels.detection_profile(cs, xs)  # one-time allocations
        tracemalloc.start()
        try:
            kernels.detection_profile(cs, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / xs.nbytes

    @pytest.mark.parametrize("n", [31, 301, 4097])
    def test_peak_memory_of_a_stack_at_the_table_block(self, n):
        # a stack of the table's largest block holds its profiles and one
        # array of change factors besides the caller's strengths; measured
        # 2.5-2.6 times the strengths' bytes with numpy 2.4.  At n = 4097
        # the block's 8 rows go row by row, 2.1 times.  A further copy of
        # the whole stack (a transposed one, say) goes past 3.
        ratio = self._peak_per_stack_byte(n, online_opt._TABLE_BLOCK // (n - 1))
        assert ratio <= 3, f"peak {ratio:.2f} times the stack"

    @pytest.mark.parametrize("n, rows", [(31, 17_476), (121, 8_738)])
    def test_peak_memory_of_a_wide_stack(self, n, rows):
        # 4.2 and 8.4 MB stacks: besides the profiles and the change
        # factors, the writes through the strided view prof[:, :-1] hold
        # only numpy's ufunc buffers, about 132 KB at any width; measured
        # 2.17 and 2.05 times the strengths' bytes with numpy 2.4.  A
        # temporary of half the stack would pass 2.5.
        ratio = self._peak_per_stack_byte(n, rows)
        assert ratio <= 2.25, f"peak {ratio:.2f} times the stack"

    @pytest.mark.parametrize("shape", [(), (2, 3, 4)])
    def test_other_dimensions_are_rejected(self, shape):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            kernels.detection_profile(0.5, np.ones(shape))

    @pytest.mark.parametrize("c", [0.5, [0.5, 0.5], [[0.5], [0.5], [0.5]]])
    def test_overlaps_must_match_the_stack(self, c):
        with pytest.raises(ValueError, match="a stack of 3 schedules needs 3 overlaps"):
            kernels.detection_profile(c, np.ones((3, 4)))


class TestSettledProfile:
    """Schedules with long runs of equal strengths, where the one-schedule
    walk stops at a settled state and fills the rest of the run, against the
    position loop, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(settled_schedules())
    def test_one_schedule_equals_the_position_loop(self, case):
        c, xs = case
        assert kernels.detection_profile(c, xs).tobytes() == detection_profile_loop(c, xs).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(settled_schedules(), min_size=1, max_size=4))
    def test_stacks_of_its_rows_equal_the_position_loop(self, cases):
        width = min(len(xs) for _, xs in cases)
        cs = np.array([c for c, _ in cases])
        xs = np.array([x[:width] for _, x in cases])
        loop = np.array([detection_profile_loop(c, x) for c, x in zip(cs.tolist(), xs)])
        with lockstep():
            assert kernels.detection_profile(cs, xs).tobytes() == loop.tobytes()
        for c, x, row in zip(cs.tolist(), xs, loop):
            assert kernels.detection_profile(c, x).tobytes() == row.tobytes()

    @pytest.mark.parametrize("rows", [kernels._STACK_ROWS + d for d in (-1, 0, 1)])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_the_stack_width_picks_the_walk(self, rows, data):
        # settled rows, each padded with its last strength to one width of
        # at least _SETTLE_RUN (n >= 129): a stack of fewer than _STACK_ROWS
        # rows goes row by row, with no lockstep step, and a wider one
        # goes in lockstep
        cases = data.draw(st.lists(settled_schedules(), min_size=rows, max_size=rows))
        width = max(kernels._SETTLE_RUN, *(len(x) for _, x in cases))
        cs = np.array([c for c, _ in cases])
        xs = np.array([np.append(x, np.full(width - len(x), x[-1])) for _, x in cases])
        loop = np.array([detection_profile_loop(c, x) for c, x in zip(cs.tolist(), xs)])
        # the lockstep walk starts with np.multiply, which _one_profile never calls
        with mock.patch.object(kernels, "_one_profile", wraps=kernels._one_profile) as one, \
                mock.patch.object(kernels.np, "multiply", wraps=np.multiply) as step:
            assert kernels.detection_profile(cs, xs).tobytes() == loop.tobytes()
        narrow = rows < kernels._STACK_ROWS
        assert (one.call_count, step.called) == ((rows, False) if narrow else (0, True))

    @pytest.mark.parametrize("tail", [0, 1, 2, 3])
    @pytest.mark.parametrize("c", [0.0, 0.02, 0.3, 0.5, 0.9, 0.99, 1.0])
    def test_constant_schedules_settle_on_either_parity(self, c, tail):
        # fl- and sl-like schedules: one run, filled from its settled state
        # with an even or odd remainder, and a balanced last strength
        for x in {1.0, min(1.0 + c, 1.0 / c) if c else 1.0, 1.0 / c if c else 2.0}:
            xs = np.append(np.full(3 * kernels._SETTLE_RUN + tail, x), 1.0)
            assert kernels.detection_profile(c, xs).tobytes() == detection_profile_loop(c, xs).tobytes()


class TestProfileAccuracy:
    """Both call shapes of the profile kernel against the 50-digit
    ``decimal`` recursion, on the optimal schedule (the closed form up to
    c = 1/2), fl and sl, from c = 0.05 up to 1 - 1e-6.

    Measured worst, over every entry and both shapes: 20.3 * 2**-52
    absolute (sl, n = 301, c = 0.05, entry 298), and a relative error of
    162.9 * 2**-52 / (1 - c) (n = 5, c = 1 - 1e-6, entry 3): ``1 - c/x``
    cancels as c -> 1.  The relative bound covers entries of at least
    1e-13; the 102 smaller ones are rounding residues of ``1 - c*x`` at
    strengths saturated at 1/c (at most 5.6e-17), held by the absolute
    bound alone.
    """

    CS = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.55, GOLDEN,
          0.7, 0.8, 0.9, 0.99, 0.999, 1 - 1e-4, 1 - 1e-5, 1 - 1e-6]
    ABS = 21 * 2.0**-52
    REL_TIMES_GAP = 164 * 2.0**-52

    @pytest.mark.parametrize("n", [2, 5, 31, 301])
    def test_rows_within_the_bounds_of_the_decimal_reference(self, n):
        floor, abs_bound, rel_bound = Decimal("1e-13"), Decimal(self.ABS), Decimal(self.REL_TIMES_GAP)
        for build in (best_online, fl_solution, sl_solution):
            xs = np.array([build(n, c).schedule.strengths for c in self.CS])
            with lockstep():
                stacked = kernels.detection_profile(np.array(self.CS), xs)
            for c, row, stacked_row in zip(self.CS, xs, stacked):
                ref = detection_profile_reference(c, row)
                for got in (kernels.detection_profile(c, row), stacked_row):
                    for j, (value, exact) in enumerate(zip(got.tolist(), ref), start=1):
                        err = abs(Decimal(value) - exact)
                        where = (build.__name__, c, j)
                        assert err <= abs_bound, where
                        if abs(exact) >= floor:
                            assert err / abs(exact) * Decimal(1 - c) <= rel_bound, where


class TestSimulationBackends:
    @pytest.mark.parametrize(
        "boundary",
        [1] + [m * kernels._CHUNK + d for m in (1, 2) for d in (-1, 0, 1)],
    )
    def test_chunk_boundary_matches_scalar_walk(self, boundary):
        # the trials in [T - w, T + w) straddle the first or second chunk
        # edge in the kernel; their counts, as the difference of two runs,
        # must equal the scalar walk's verdicts pooled over the same trials
        w = 64
        lo, hi = max(boundary - w, 0), boundary + w
        rng = np.random.default_rng(boundary)
        c, xs = _random_case(rng, n_max=12)
        seed = 9
        hi_counts, hi_wrong = kernels.simulate_counts(c, xs, hi, seed)
        lo_counts, lo_wrong = kernels.simulate_counts(c, xs, lo, seed)
        assert hi_wrong == lo_wrong == 0
        schedule = StrengthSchedule(
            n=len(xs) + 1, strengths=tuple(xs), overlap=Overlap(c)
        )
        pooled, wrong = _pooled_verdicts(schedule, seed, lo, hi)
        assert wrong == 0
        assert np.array_equal(hi_counts - lo_counts, pooled)

    @settings(deadline=None, max_examples=200)
    @given(
        schedule=_edge_schedules(),
        trials=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_scalar_walk(self, schedule, trials, seed):
        counts, wrong = kernels.simulate_counts(
            schedule.overlap.c, schedule.strengths, trials, seed
        )
        pooled, pooled_wrong = _pooled_verdicts(schedule, seed, 0, trials)
        assert np.array_equal(counts, pooled)
        assert wrong == pooled_wrong == 0

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_counts_do_not_depend_on_chunk_size(self, chunk, monkeypatch):
        rng = np.random.default_rng(chunk)
        c, xs = _random_case(rng, n_max=12)
        expected, expected_wrong = kernels.simulate_counts(c, xs, 3000, seed=11)
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
        counts, wrong = kernels.simulate_counts(c, xs, 3000, seed=11)
        assert np.array_equal(counts, expected)
        assert wrong == expected_wrong

    def test_seed_changes_counts(self):
        xs = np.array([1.2, 1.1, 1.3])
        a, _ = kernels.simulate_counts(0.4, xs, 20_000, seed=1)
        b, _ = kernels.simulate_counts(0.4, xs, 20_000, seed=2)
        assert not np.array_equal(a, b)


_ORACLE_OVERLAPS = (0.0, 1e-3, 0.3, 0.5, GOLDEN, 0.95, 1.0)
_STRATEGIES = {"online": best_online, "fl": fl_solution, "sl": sl_solution}


def _assert_forward_counts(c, xs, trials, seed):
    counts, wrong = kernels.simulate_counts(c, xs, trials, seed)
    expected, expected_wrong = simulate_counts_forward(c, xs, trials, seed)
    assert counts.dtype == expected.dtype
    assert counts.tobytes() == expected.tobytes()
    assert wrong == expected_wrong == 0


class TestForwardOracle:
    """The backward walk against the forward kernel, byte for byte."""

    @pytest.mark.parametrize(
        "strategy, c",
        [
            (strategy, c)
            for strategy in _STRATEGIES
            for c in _ORACLE_OVERLAPS
            # the saturated strategy's ceiling 1/c is unbounded at c = 0
            if (strategy, c) != ("sl", 0.0)
        ],
    )
    def test_strategies_at_scale(self, strategy, c):
        # a long chain across one chunk edge, and many trials across three
        for seed, (n, trials) in enumerate(((2000, kernels._CHUNK + 1000), (50, 100_000))):
            xs = _STRATEGIES[strategy](n, c).schedule.strengths
            _assert_forward_counts(c, xs, trials, seed)

    @pytest.mark.parametrize("case", range(8))
    def test_random_schedules(self, case):
        rng = np.random.default_rng(7000 + case)
        n = int(rng.integers(2, 2001))
        c = float(rng.uniform(0.0, 1.0))
        hi = min(1.0 / c, 50.0) if c > 0.0 else 50.0
        xs = rng.uniform(max(c, 1e-3), hi, size=n - 1)
        trials = int(rng.integers(1, min(100_000, 20_000_000 // n) + 1))
        # the generator takes seeds in [0, 2**64)
        _assert_forward_counts(c, xs, trials, int(rng.integers(-(2**63), 2**63)) % 2**64)

    @pytest.mark.parametrize("c", [0.3, 0.6, 0.9, 1.0])
    def test_raw_strengths_below_the_overlap(self, c):
        # x = c/2 is inadmissible, and the kernel takes it unvalidated: then
        # 1 - c*x > 1 - c**2 and a draw between the two thresholds keeps the
        # bit, with chance c**2/2, a map admissible strengths reach only
        # inside REL_SLACK
        xs = np.full(299, c / 2.0)
        _assert_forward_counts(c, xs, 50_000, 17)


class TestIntegerThreshold:
    def test_matches_the_float_comparison(self):
        # u = m * 2**-53 for the 53-bit integer m; "u < t" must be "m < thr"
        # for every m near the threshold, where an off-by-one would show.
        # The kernel's t = 1 - c*x are multiples of 2**-53, where ceil and
        # floor agree; cubed uniforms are not, so they tell the two apart.
        rng = np.random.default_rng(21)
        edges = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, -2.0**-53]
        c = rng.uniform(0.0, 0.99, 300)
        x = rng.uniform(c, 1.0 / c)
        ts = np.concatenate([edges, rng.random(300) ** 3, 1.0 - c * x, 1.0 - c * c])
        for t, thr in zip(ts.tolist(), kernels._int_threshold(ts).tolist()):
            assert 0 <= thr <= 2**53
            for m in range(max(thr - 2, 0), min(thr + 2, 2**53 - 1) + 1):
                assert (m * 2.0**-53 < t) == (m < thr), (t, m, thr)


def test_active_backend_is_numpy():
    # the one backend; the benchmark runner records it with each run
    assert active_backend() == "numpy"
