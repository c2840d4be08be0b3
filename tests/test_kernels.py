"""Kernel checks: the splitmix64 mixers, detection-profile values, and
bit-exact agreement of the Monte Carlo kernel with the scalar
``simulate_trial`` walk, including across chunk boundaries."""

from __future__ import annotations

import numpy as np
import pytest

from qcpd import Overlap, StrengthSchedule, active_backend, kernels, simulate_trial


def _random_case(rng, n_max=40):
    n = int(rng.integers(2, n_max))
    c = float(rng.uniform(0.0, 0.98))
    lo = c if c > 0 else 0.05
    hi = min(1.0 / c, 3.0) if c > 0 else 3.0
    xs = rng.uniform(lo, hi, size=n - 1)
    return c, xs


class TestMixer:
    def test_scalar_and_array_mixers_agree(self):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 2**64, size=256, dtype=np.uint64)
        array_out = kernels._mix64(raw.copy())
        for value, mixed in zip(raw.tolist(), array_out.tolist()):
            assert kernels.mix64_int(value) == mixed

    def test_seed_root_accepts_any_integer(self):
        # seeds wrap modulo 2^64, so negative and huge seeds are fine
        assert 0 <= kernels.seed_root(-1) < 2**64
        assert kernels.seed_root(5) == kernels.seed_root(5 + 2**64)
        assert kernels.seed_root(0) != kernels.seed_root(1)


class TestProfileBackends:
    def test_profile_values_are_probabilities(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            c, xs = _random_case(rng)
            prof = kernels.detection_profile(c, xs)
            assert np.all(prof >= -1e-15) and np.all(prof <= 1.0 + 1e-15)


class TestSimulationBackends:
    @pytest.mark.parametrize(
        "boundary", [1, kernels._CHUNK - 1, kernels._CHUNK, kernels._CHUNK + 1]
    )
    def test_chunk_boundary_matches_scalar_walk(self, boundary):
        # the trials in [T - w, T + w) straddle a chunk edge in the kernel;
        # their counts, as the difference of two runs, must equal the
        # scalar walk's verdicts pooled over the same trial indices
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
        pooled = np.zeros(schedule.n, dtype=np.int64)
        for t in range(lo, hi):
            result = simulate_trial(schedule, seed, trial_index=t)
            if result.detected_position is not None:
                assert result.detected_position == result.true_change_point
                pooled[result.detected_position - 1] += 1
        assert np.array_equal(hi_counts - lo_counts, pooled)

    def test_seed_changes_counts(self):
        xs = np.array([1.2, 1.1, 1.3])
        a, _ = kernels.simulate_counts(0.4, xs, 20_000, seed=1)
        b, _ = kernels.simulate_counts(0.4, xs, 20_000, seed=2)
        assert not np.array_equal(a, b)


def test_active_backend_is_numpy():
    # reported as "backend" by `qcpd simulate`
    assert active_backend() == "numpy"
