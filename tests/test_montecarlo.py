"""Seeded simulation: determinism, statistics, and the zero-error property."""

from __future__ import annotations

import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from scipy import stats

from qcpd import (
    Overlap,
    StrengthSchedule,
    evaluate_strategy,
    run_experiment,
)
from qcpd.montecarlo import SimulationReport, TrialResult, simulate_trial
from qcpd.online_opt import best_online, fl_solution, sl_solution


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
                mismatched_detections=0,
            )
        with pytest.raises(ValueError):
            SimulationReport(
                n=3, c=0.5, trials=5, seed=0,
                detections_per_position=(1, 1),  # wrong length
                mismatched_detections=0,
            )

    @pytest.mark.parametrize(
        "trials, counts, mismatched, message",
        [
            (5, (-1, 2), 0, "counts must be non-negative"),
            (0, (0, 0), 0, "trials must be >= 1"),
            (5, (1, 1), -1, "mismatched_detections must be non-negative"),
        ],
    )
    def test_bad_counts_are_rejected(self, trials, counts, mismatched, message):
        with pytest.raises(ValueError, match=message):
            SimulationReport(
                n=2, c=0.5, trials=trials, seed=0,
                detections_per_position=counts, mismatched_detections=mismatched,
            )

    def test_the_summary_is_derived_from_the_counts(self):
        report = SimulationReport(
            n=2, c=0.5, trials=5, seed=0,
            detections_per_position=(1, 1), mismatched_detections=0,
        )
        assert (report.empirical_success, report.stderr) == (0.4, math.sqrt(0.4 * 0.6 / 5))
        with pytest.raises(TypeError):
            SimulationReport(
                n=2, c=0.5, trials=5, seed=0, detections_per_position=(1, 1),
                empirical_success=0.4, mismatched_detections=0,
            )

    @pytest.mark.parametrize(
        "strategy, n, success, stderr",
        [
            # run_experiment's values before the summary was derived, at
            # c = 0.4, 3000 trials and seed 100*i + n for the i-th strategy
            ("online", 2, 0.6106666666666667, 0.008902300992606516),
            ("online", 31, 0.44366666666666665, 0.009070585345969604),
            ("online", 256, 0.445, 0.00907331251528349),
            ("fl", 2, 0.601, 0.008940525711612265),
            ("fl", 31, 0.43366666666666664, 0.009048017994546078),
            ("fl", 256, 0.421, 0.009014044597182776),
            ("sl", 2, 0.6036666666666667, 0.008930345686146425),
            ("sl", 31, 0.4083333333333333, 0.008973985034944476),
            ("sl", 256, 0.373, 0.00882932613510227),
        ],
    )
    def test_the_derived_summary_is_bit_identical(self, strategy, n, success, stderr):
        i, build = {"online": (0, best_online), "fl": (1, fl_solution), "sl": (2, sl_solution)}[strategy]
        report = run_experiment(build(n, 0.4).schedule, 3000, seed=100 * i + n)
        assert (report.empirical_success, report.stderr) == (success, stderr)

    @pytest.mark.parametrize("counts", [(1.5, 0), ("3", 0), (1.0, 0), (2**70, 0)])
    def test_non_integer_counts_are_rejected(self, counts):
        # numpy would truncate 1.5 to 1 and parse "3" as 3
        with pytest.raises(ValueError, match="expected int64 values"):
            SimulationReport(
                n=2, c=0.5, trials=5, seed=0,
                detections_per_position=counts, mismatched_detections=0,
            )

    def test_counts_are_a_read_only_int64_copy(self):
        counts = np.array([1, 2, 0])
        report = SimulationReport(
            n=3, c=0.5, trials=5, seed=0, detections_per_position=counts,
            mismatched_detections=0,
        )
        counts[0] = 5
        held = report.detections_per_position
        assert held.dtype == np.int64 and held.tolist() == [1, 2, 0]
        with pytest.raises(ValueError):
            held[0] = 0

    def test_report_as_dict(self):
        report = run_experiment(_schedule(4, 0.4), 2_000, seed=5)
        payload = asdict(report)
        assert list(payload) == [field.name for field in fields(report)]
        # the derived fields keep their place, so the JSON keys keep their order
        assert list(payload) == [
            "n", "c", "trials", "seed", "detections_per_position",
            "empirical_success", "stderr", "mismatched_detections",
        ]
        assert payload["n"] == 4 and payload["trials"] == 2_000
        assert payload["detections_per_position"].dtype == np.int64
        assert sum(payload["detections_per_position"]) <= 2_000
        assert payload["mismatched_detections"] == 0


def _same_report(a, b) -> bool:
    """Field-by-field equality; the counts are compared as arrays."""
    a, b = asdict(a), asdict(b)
    counts = a.pop("detections_per_position"), b.pop("detections_per_position")
    return np.array_equal(*counts) and a == b


class TestDeterminism:
    def test_same_seed_same_report(self):
        schedule = _schedule(6, 0.4)
        assert _same_report(
            run_experiment(schedule, 10_000, 7), run_experiment(schedule, 10_000, 7)
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
            assert pooled == report.detections_per_position.tolist()

    def test_trial_index_selects_independent_substreams(self):
        schedule = _schedule(5, 0.3)
        results = {simulate_trial(schedule, 1, t).true_change_point for t in range(64)}
        assert len(results) > 1  # different trials see different draws

    @pytest.mark.parametrize("seed", [-1, 0, 2**64 - 1, 2**64])
    def test_seeds_outside_the_generator_range_are_rejected(self, seed):
        # -1 and 2**64 would alias 2**64 - 1 and 0 if reduced mod 2**64
        schedule = fl_solution(8, 0.3).schedule
        if not 0 <= seed < 2**64:
            message = rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"
            with pytest.raises(ValueError, match=message):
                run_experiment(schedule, 200, seed)
            with pytest.raises(ValueError, match=message):
                simulate_trial(schedule, seed)
            return
        report = run_experiment(schedule, 200, seed)
        assert report.seed == seed
        pooled = [0] * 8
        for t in range(200):
            detected = simulate_trial(schedule, seed, trial_index=t).detected_position
            if detected is not None:
                pooled[detected - 1] += 1
        assert pooled == report.detections_per_position.tolist()

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
        assert report.detections_per_position[:-1].tolist() == [0, 0, 0, 0]
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
