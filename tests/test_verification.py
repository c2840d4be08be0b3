"""The fold of per-stack residuals, the stacked suites against their
one-case-at-a-time oracle and its pair fold, and negative controls: each
consistency suite fails when one of its inputs is perturbed by a small
factor."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qcpd import kernels, verification
from oracles import _suite, run_all_per_case


def _assert_caught(result):
    assert result.passed is False
    assert result.max_residual > result.threshold


def _scale_profiles(monkeypatch):
    profile = kernels.detection_profile

    def scaled(c, xs):
        return profile(c, xs) * (1.0 - 1e-6)

    monkeypatch.setattr(kernels, "detection_profile", scaled)


def _scale_enumerations(monkeypatch):
    enumerate_paths = verification._path_profiles

    def scaled(cs, xs):
        return enumerate_paths(cs, xs) * (1.0 - 1e-6)

    monkeypatch.setattr(verification, "_path_profiles", scaled)


def _scale_recursive_schedules(monkeypatch):
    recursive = verification._recursive_xs

    def scaled(c, gammas):
        # the suite compares bare strengths, so only the residual can
        # catch the scaling
        return recursive(c, gammas) / 1.001

    monkeypatch.setattr(verification, "_recursive_xs", scaled)


def _scale_efficiencies(monkeypatch):
    efficiencies = verification._tent_efficiencies

    def scaled(cs, powers):
        # the optimal vector sits on the feasibility boundary, so any
        # increase leaves the positive semidefinite cone
        return efficiencies(cs, powers) * 1.001

    monkeypatch.setattr(verification, "_tent_efficiencies", scaled)


def _negative_efficiency(monkeypatch):
    efficiencies = verification._tent_efficiencies

    def lowered(cs, powers):
        # lowering an efficiency only raises the diagonal of G - diag(gamma),
        # so the eigenvalue check still passes and only the range check fails
        vec = efficiencies(cs, powers).copy()
        vec[..., vec.shape[-1] // 2] = -1e-6
        return vec

    monkeypatch.setattr(verification, "_tent_efficiencies", lowered)


def test_oracle_equivalence_catches_a_scaled_profile(monkeypatch):
    _scale_profiles(monkeypatch)
    _assert_caught(verification.oracle_equivalence(n_max=4))


def test_oracle_equivalence_catches_a_scaled_enumeration(monkeypatch):
    _scale_enumerations(monkeypatch)
    _assert_caught(verification.oracle_equivalence(n_max=12))


def test_recursion_agreement_catches_a_scaled_schedule(monkeypatch):
    _scale_recursive_schedules(monkeypatch)
    _assert_caught(verification.recursion_agreement(verification._canonical_solutions()))


def test_recursion_agreement_fails_where_no_strength_reaches_the_targets(monkeypatch):
    efficiencies = verification._tent_efficiencies

    def certain(cs, powers):
        # a first target of 1 leaves the first strength 1 - 1 to divide by
        vec = efficiencies(cs, powers)
        if vec.shape[-1] == 3:
            vec[:, 0] = 1.0
        return vec

    monkeypatch.setattr(verification, "_tent_efficiencies", certain)
    result = verification.recursion_agreement(verification._canonical_solutions())
    _assert_caught(result)
    # zero overlap takes the balanced limit, so the first unsolved case is c = 0.05
    assert (result.max_residual, result.cases) == (1.0, 264)
    assert result.worst_case == {"n": 3, "c": 0.05, "position": None}


def test_gram_feasibility_catches_scaled_efficiencies(monkeypatch):
    _scale_efficiencies(monkeypatch)
    _assert_caught(verification.gram_feasibility())


def test_gram_feasibility_catches_a_range_only_fault(monkeypatch):
    _negative_efficiency(monkeypatch)
    result = verification.gram_feasibility()
    _assert_caught(result)
    # a range failure reads 1.0, and the suite stops at the first case
    assert result.max_residual == 1.0
    assert result.cases == 1
    assert result.worst_case == {"n": 5, "c": 0.05, "position": None}


NEGATIVE_CONTROLS = {
    "scaled_profiles": _scale_profiles,
    "scaled_enumerations": _scale_enumerations,
    "scaled_recursive_schedules": _scale_recursive_schedules,
    "scaled_efficiencies": _scale_efficiencies,
    "negative_efficiency": _negative_efficiency,
}


@pytest.mark.parametrize(
    "control, inject_fault",
    [(None, False), (None, True), *((name, False) for name in NEGATIVE_CONTROLS)],
)
def test_passed_means_residual_within_threshold(control, inject_fault, monkeypatch):
    # clean, under the CLI's self-test fault, and under each control above
    if control is not None:
        NEGATIVE_CONTROLS[control](monkeypatch)
    results = verification.run_all(n_max=4, inject_fault=inject_fault)
    assert len(results) == 4
    for result in results:
        assert result.passed == (result.max_residual <= result.threshold), result


def test_run_all_walks_one_stack_per_chain_length_per_call(monkeypatch):
    profile = kernels.detection_profile
    calls = []

    def counted(c, xs):
        calls.append(np.shape(xs))
        return profile(c, xs)

    monkeypatch.setattr(kernels, "detection_profile", counted)
    # 25 random schedules for each n = 2..12, then the 11 canonical
    # overlaps for each n = 2..25: one kernel call per row, 275 + 264 = 539
    rows = [(n - 1,) for n in range(2, 13) for _ in range(25)]
    rows += [(n - 1,) for n in range(2, 26) for _ in range(11)]
    for _ in range(2):
        # a second call recomputes every stack: nothing outlives a call
        calls.clear()
        verification.run_all(n_max=12)
        assert calls == rows


def test_peak_memory_of_run_all_at_the_enumeration_cap():
    # the enumeration's two path buffers of 25 x 1025 floats and numpy's
    # ufunc buffers: measured 0.63 MB with numpy 2.4, where the one-case
    # loops of tests/oracles.py peaked at 0.21 MB
    verification.run_all(n_max=12)
    tracemalloc.start()
    try:
        verification.run_all(n_max=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize(
    "n_max, seed, inject_fault",
    [(n, seed, False) for n in range(2, 13) for seed in (0, 7, 64331)]
    + [(12, seed, True) for seed in (0, 7, 64331)],
)
def test_stacked_suites_equal_the_per_case_loops(n_max, seed, inject_fault):
    # SuiteResult compares its floats with ==: every residual, case count
    # and worst case must be exactly those of the one-case-at-a-time loops
    stacked = verification.run_all(n_max, seed, inject_fault)
    assert stacked == run_all_per_case(n_max, seed, inject_fault)
    assert all(r.passed for r in stacked) is not inject_fault


@pytest.mark.parametrize("seed", [0, 7, 64331, 2**64 - 1])
def test_a_chain_lengths_cases_do_not_depend_on_n_max(seed, monkeypatch):
    # case i of chain length n draws from stream (n - 2)*25 + i, whatever
    # the longest chain of the run
    enumerate_paths = verification._path_profiles
    drawn = []

    def recorded(cs, xs):
        drawn.append((cs.tobytes(), xs.tobytes()))
        return enumerate_paths(cs, xs)

    monkeypatch.setattr(verification, "_path_profiles", recorded)
    verification.oracle_equivalence(9, seed)
    verification.oracle_equivalence(12, seed)
    assert len(drawn) == 8 + 11
    assert drawn[8:16] == drawn[:8]


class TestSuiteHarness:
    """The pair fold of ``run_all_per_case``, one ``(residual, case)`` pair
    per case."""

    def test_every_pair_counts_and_the_earlier_tie_is_kept(self):
        pairs = [(0.0, "a"), (2.0, "b"), (1.0, "c"), (2.0, "d")]
        result = _suite("demo", 2.0, iter(pairs))
        assert (result.name, result.cases) == ("demo", 4)
        assert (result.max_residual, result.worst_case) == (2.0, "b")
        assert result.passed is True

    def test_a_residual_above_the_threshold_fails(self):
        result = _suite("demo", 1.0, [(1.5, "a")])
        assert (result.passed, result.max_residual, result.worst_case) == (False, 1.5, "a")

    def test_no_pairs_pass_with_no_worst_case(self):
        result = _suite("demo", 1e-9, [])
        assert (result.passed, result.max_residual, result.cases) == (True, 0.0, 0)
        assert result.worst_case is None


def _cases(n, residuals, positions=None):
    residuals = np.array(residuals, dtype=np.float64)
    cs = np.linspace(0.1, 0.2, residuals.size)
    if positions is None:
        positions = np.arange(1, residuals.size + 1)
    return verification._Cases(n, cs, residuals, np.array(positions, dtype=np.int64))


class TestFold:
    """The fold of one residual array per stack: every row a case, the
    first largest residual reported, a case dict for it alone."""

    def test_the_first_of_tied_rows_in_a_stack_is_kept(self):
        stack = _cases(4, [0.5, 2.0, 1.0, 2.0])
        result = verification._fold("demo", 2.0, [stack])
        assert (result.name, result.cases, result.max_residual) == ("demo", 4, 2.0)
        assert result.worst_case == {"n": 4, "c": float(stack.cs[1]), "position": 2}
        assert result.passed is True

    def test_a_tie_in_a_later_stack_keeps_the_earlier_case(self):
        first, tied = _cases(3, [1.0, 3.0]), _cases(5, [3.0, 0.0, 3.0])
        result = verification._fold("demo", 1.0, [first, tied])
        assert (result.cases, result.max_residual, result.passed) == (5, 3.0, False)
        assert result.worst_case == {"n": 3, "c": float(first.cs[1]), "position": 2}

    def test_a_larger_residual_in_a_later_stack_replaces_the_worst(self):
        later = _cases(6, [0.0, 4.0], positions=[3, 0])
        result = verification._fold("demo", 1.0, [_cases(3, [3.0]), later])
        # position 0 is a residual of no single entry
        assert result.worst_case == {"n": 6, "c": float(later.cs[1]), "position": None}

    def test_an_empty_stack_counts_no_case(self):
        empty = _cases(7, [])
        result = verification._fold("demo", 1e-9, [empty, _cases(2, [0.0, 0.0]), empty])
        assert (result.passed, result.max_residual, result.cases) == (True, 0.0, 2)
        assert result.worst_case is None
        assert verification._fold("demo", 1e-9, []).cases == 0

    def test_the_pair_fold_agrees_on_random_stacks(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            # few distinct values, so ties within and across stacks are common
            stacks = [
                _cases(n, rng.integers(0, 4, size=rng.integers(0, 5)) / 2.0)
                for n in range(2, 2 + int(rng.integers(0, 5)))
            ]
            pairs = [
                (float(r), verification._case(s.n, float(c), int(p)))
                for s in stacks
                for r, c, p in zip(s.residuals, s.cs, s.positions)
            ]
            expected = _suite("demo", 0.5, pairs)
            assert verification._fold("demo", 0.5, stacks) == expected

    def test_run_all_builds_a_case_dict_for_the_reported_cases_only(self, monkeypatch):
        built = []
        case = verification._case

        def counted(n, c, position):
            built.append((n, c, position))
            return case(n, c, position)

        monkeypatch.setattr(verification, "_case", counted)
        results = verification.run_all(n_max=12)
        assert built == [tuple(r.worst_case.values()) for r in results]


@pytest.mark.parametrize("row, cases", [(2, 13), (9, 20)])
def test_gram_feasibility_stops_at_the_first_failing_case(row, cases, monkeypatch):
    efficiencies = verification._tent_efficiencies

    def faulted(cs, powers):
        vec = efficiencies(cs, powers)
        if vec.shape[-1] == 7:
            # below the threshold, out of the cone; above it, into the range
            vec[row] = vec[row] * 1.001 if row < 5 else 0.5
        return vec

    monkeypatch.setattr(verification, "_tent_efficiencies", faulted)
    result = verification.gram_feasibility()
    _assert_caught(result)
    # all ten cases of n = 5, then those of n = 7 up to the faulted row
    assert result.cases == cases
    threshold = verification.critical_overlap(7)
    cs = np.concatenate(
        (np.linspace(0.05, threshold - 0.011, 5), np.linspace(threshold + 0.011, 0.99, 5))
    )
    assert result.worst_case == {"n": 7, "c": float(cs[row]), "position": None}


def test_gram_feasibility_solves_only_the_rows_below_the_threshold(monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    # global_bound looks the solver up as np.linalg.eigvalsh at each call
    monkeypatch.setattr(verification.np.linalg, "eigvalsh", counted)
    assert verification.gram_feasibility().passed
    # the rows above the threshold fail on range alone, with no eigenvalue
    assert shapes == [(5, n, n) for n in range(5, 32, 2)]
