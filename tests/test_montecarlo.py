"""Seeded simulation: determinism, statistics, and the zero-error property."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from qcpd import (
    Overlap,
    StrengthSchedule,
    best_online,
    evaluate_strategy,
    run_experiment,
    simulate_trial,
)
from qcpd.montecarlo import SimulationReport, TrialResult


def _schedule(n, c, xs=None):
    if xs is None:
        xs = (1.0,) * (n - 1) if c == 0.0 else best_online(n, c).schedule.strengths
    return StrengthSchedule(n=n, strengths=tuple(xs), overlap=Overlap(c))


class TestTypes:
    def test_trial_result_validation(self):
        TrialResult(true_change_point=3, detected_position=None)
        TrialResult(true_change_point=3, detected_position=3)
        with pytest.raises(ValueError):
            TrialResult(true_change_point=0, detected_position=None)
        with pytest.raises(ValueError):
            TrialResult(true_change_point=2, detected_position=0)

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            SimulationReport(
                n=2, c=0.5, trials=5, seed=0,
                detections_per_position=(4, 3),  # sums past trials
                empirical_success=1.0, stderr=0.0, mismatched_detections=0,
            )
        with pytest.raises(ValueError):
            SimulationReport(
                n=2, c=0.5, trials=5, seed=0,
                detections_per_position=(1, 1),
                empirical_success=0.9,  # does not equal 2/5
                stderr=0.0, mismatched_detections=0,
            )
        with pytest.raises(ValueError):
            SimulationReport(
                n=3, c=0.5, trials=5, seed=0,
                detections_per_position=(1, 1),  # wrong length
                empirical_success=0.4, stderr=0.0, mismatched_detections=0,
            )

    def test_report_round_trips_to_dict(self):
        report = run_experiment(_schedule(4, 0.4), 2_000, seed=5)
        payload = report.to_dict()
        assert payload["n"] == 4 and payload["trials"] == 2_000
        assert sum(payload["detections_per_position"]) <= 2_000
        assert payload["mismatched_detections"] == 0


class TestDeterminism:
    def test_same_seed_same_report(self):
        schedule = _schedule(6, 0.4)
        assert run_experiment(schedule, 10_000, 7) == run_experiment(
            schedule, 10_000, 7
        )

    def test_trial_reference_matches_batched_counts(self):
        # the scalar walk and the batched kernel consume the same stream
        for n, c, trials, seed in [(2, 0.5, 1200, 0), (6, 0.4, 1500, 42), (9, 0.85, 1000, 12345)]:
            schedule = _schedule(n, c)
            report = run_experiment(schedule, trials, seed)
            pooled = [0] * n
            for t in range(trials):
                result = simulate_trial(schedule, seed, trial_index=t)
                if result.detected_position is not None:
                    pooled[result.detected_position - 1] += 1
            assert tuple(pooled) == report.detections_per_position

    def test_trial_index_selects_independent_substreams(self):
        schedule = _schedule(5, 0.3)
        results = {simulate_trial(schedule, 1, t).true_change_point for t in range(64)}
        assert len(results) > 1  # different trials see different draws

    def test_trials_validation(self):
        schedule = _schedule(3, 0.2)
        with pytest.raises(ValueError):
            run_experiment(schedule, 0, seed=1)
        with pytest.raises(ValueError):
            simulate_trial(schedule, seed=1, trial_index=-1)
        single = run_experiment(schedule, 1, seed=1)
        assert single.trials == 1
        assert sum(single.detections_per_position) <= 1


class TestZeroError:
    def test_no_wrong_identification_in_ten_million_pooled_trials(self):
        # hard certificate across a mix of lengths, overlaps, and schedules
        rng = np.random.default_rng(2024)
        pooled = 0
        configs = 0
        while pooled < 10_000_000:
            n = int(rng.integers(2, 12))
            c = float(rng.uniform(0.0, 0.99))
            lo = c if c > 0 else 0.05
            hi = min(1.0 / c, 3.0) if c > 0 else 3.0
            xs = tuple(float(v) for v in rng.uniform(lo, hi, size=n - 1))
            schedule = _schedule(n, c, xs)
            trials = 500_000
            report = run_experiment(schedule, trials, seed=int(rng.integers(2**32)))
            assert report.mismatched_detections == 0, (n, c, xs)
            pooled += trials
            configs += 1
        assert configs >= 20

    def test_detected_position_is_always_the_true_one(self):
        schedule = _schedule(7, 0.6)
        for t in range(3_000):
            result = simulate_trial(schedule, 99, t)
            if result.detected_position is not None:
                assert result.detected_position == result.true_change_point

    def test_zero_overlap_always_identifies(self):
        schedule = _schedule(5, 0.0)
        report = run_experiment(schedule, 20_000, seed=3)
        assert report.empirical_success == 1.0
        for t in range(300):
            result = simulate_trial(schedule, 3, t)
            assert result.detected_position == result.true_change_point

    def test_floor_strengths_silence_the_change_detector(self):
        # with every scheduled strength at the floor c, a change outcome is
        # impossible; only the end-of-chain verdict can fire
        c = 0.6
        schedule = _schedule(5, c, (c,) * 4)
        report = run_experiment(schedule, 50_000, seed=5)
        assert report.detections_per_position[:-1] == (0, 0, 0, 0)
        assert report.detections_per_position[-1] > 0


class TestStatistics:
    def test_matches_exact_profile_at_one_million_trials(self):
        schedule = _schedule(6, 0.4)
        report = run_experiment(schedule, 10**6, seed=42)
        profile = evaluate_strategy(schedule)
        z = (report.empirical_success - profile.average) / report.stderr
        assert abs(z) <= 3.0
        for k in range(1, 7):
            exact = profile.per_position[k - 1] / 6
            se = math.sqrt(exact * (1 - exact) / report.trials)
            emp = report.detections_per_position[k - 1] / report.trials
            assert abs(emp - exact) <= 4 * se

    def test_chi_square_against_exact_distribution(self):
        schedule = _schedule(6, 0.4)
        trials = 10**6
        report = run_experiment(schedule, trials, seed=11)
        profile = evaluate_strategy(schedule)
        probs = [p / 6 for p in profile.per_position]
        probs.append(1.0 - sum(probs))  # inconclusive bucket
        observed = list(report.detections_per_position)
        observed.append(trials - sum(observed))
        expected = [p * trials for p in probs]
        result = stats.chisquare(observed, expected)
        assert result.pvalue >= 0.001

    def test_stderr_is_binomial(self):
        report = run_experiment(_schedule(4, 0.3), 50_000, seed=2)
        p = report.empirical_success
        assert report.stderr == pytest.approx(
            math.sqrt(p * (1 - p) / 50_000), abs=1e-15
        )

    def test_per_position_rates_estimate_the_profile(self):
        schedule = _schedule(5, 0.35)
        report = run_experiment(schedule, 200_000, seed=8)
        counts = np.asarray(report.detections_per_position, dtype=np.float64)
        rates = counts * (report.n / report.trials)
        exact = np.asarray(evaluate_strategy(schedule).per_position)
        assert np.max(np.abs(rates - exact)) < 0.02
