"""Negative controls: each consistency suite fails when one of its inputs
is perturbed by a small factor."""

from __future__ import annotations

import dataclasses

from qcpd import verification
from qcpd.core import DetectionProfile, StrengthSchedule


def _assert_caught(result):
    assert result.passed is False
    assert result.max_residual > result.threshold


def test_oracle_equivalence_catches_a_scaled_profile(monkeypatch):
    evaluate = verification.evaluate_strategy

    def scaled(schedule):
        return DetectionProfile(evaluate(schedule).per_position * (1.0 - 1e-6))

    monkeypatch.setattr(verification, "evaluate_strategy", scaled)
    _assert_caught(verification.oracle_equivalence(n_max=4))


def test_recursion_agreement_catches_a_scaled_schedule(monkeypatch):
    recursive = verification.recursive_strengths

    def scaled(n, c):
        solution = recursive(n, c)
        # every optimal strength is >= 1 > c, so the scaled schedule stays
        # admissible and only the residual can catch it
        xs = solution.schedule.strengths / 1.001
        schedule = StrengthSchedule(n=n, strengths=xs, overlap=solution.schedule.overlap)
        return dataclasses.replace(solution, schedule=schedule)

    monkeypatch.setattr(verification, "recursive_strengths", scaled)
    _assert_caught(verification.recursion_agreement())


def test_gram_feasibility_catches_scaled_efficiencies(monkeypatch):
    efficiencies = verification.global_efficiencies

    def scaled(n, c):
        # the optimal vector sits on the feasibility boundary, so any
        # increase leaves the positive semidefinite cone
        return efficiencies(n, c) * 1.001

    monkeypatch.setattr(verification, "global_efficiencies", scaled)
    _assert_caught(verification.gram_feasibility())
