"""Seeded Monte Carlo simulation of the sequential change-point protocol.

Each trial draws a change position uniformly from ``1..n``, then walks the
chain measuring one particle per position under the adaptive rule (the
scheduled strength after a conclusive default outcome, strength ``c`` after
an inconclusive one) and records which position, if any, the protocol names.
Because the measurements are unambiguous, a named position is always the
true one.  Both walks, the batched kernel and :func:`simulate_trial`, only
ever name the change point they drew, so ``mismatched_detections`` is 0 by
construction: it checks the bookkeeping, not the physics.

Randomness is counter-based: trial ``t`` owns a substream keyed on
``(seed, t)`` and position ``j`` within the trial consumes counter ``j``.
Reports are therefore bit-identical for a fixed ``(seed, trials, schedule)``
no matter how trials are chunked, ordered, or parallelised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .core import StrengthSchedule
from .kernels import _GAMMA_INT, _INV53, mix64_int, seed_root


def _uniform(stream: int, counter: int) -> float:
    """Uniform in [0, 1) from the given substream at the given counter."""
    return float(mix64_int(stream + counter * _GAMMA_INT) >> 11) * _INV53


@dataclass(frozen=True, slots=True)
class TrialResult:
    """Outcome of a single simulated run of the protocol.

    ``detected_position is None`` means the run ended inconclusively;
    otherwise the protocol named that position as the change point.
    """

    true_change_point: int
    detected_position: int | None

    def __post_init__(self) -> None:
        if self.true_change_point < 1:
            raise ValueError("true_change_point must be a 1-based position")
        if self.detected_position is not None and self.detected_position < 1:
            raise ValueError("detected_position must be a 1-based position")


@dataclass(frozen=True, slots=True)
class SimulationReport:
    """Aggregate counts from a batch of independent trials."""

    n: int
    c: float
    trials: int
    seed: int
    detections_per_position: tuple[int, ...]
    empirical_success: float
    stderr: float
    mismatched_detections: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.detections_per_position) != self.n:
            raise ValueError("need one count per position")
        if any(v < 0 for v in self.detections_per_position):
            raise ValueError("counts must be non-negative")
        total = sum(self.detections_per_position)
        if total > self.trials:
            raise ValueError("counts sum exceeds the number of trials")
        if self.empirical_success != total / self.trials:
            raise ValueError("empirical_success does not match the counts")
        if self.mismatched_detections < 0:
            raise ValueError("mismatched_detections must be non-negative")

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "n": self.n,
            "c": self.c,
            "trials": self.trials,
            "seed": self.seed,
            "detections_per_position": list(self.detections_per_position),
            "empirical_success": self.empirical_success,
            "stderr": self.stderr,
            "mismatched_detections": self.mismatched_detections,
        }


def simulate_trial(
    schedule: StrengthSchedule, seed: int, trial_index: int = 0
) -> TrialResult:
    """Run one trial of the protocol and report the verdict.

    This is the scalar reference walk: counter 0 of the trial's substream
    draws the change position, counter ``j`` drives the measurement at
    position ``j``.  It consumes exactly the same random stream as the
    batched kernels, so pooling its results over ``trial_index = 0..T-1``
    reproduces :func:`run_experiment` count for count.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    c = schedule.overlap.c
    xs = schedule.strengths.tolist()
    n = schedule.n
    stream = mix64_int(seed_root(seed) + trial_index * _GAMMA_INT)

    u = _uniform(stream, 0)
    k = int(u * n)
    if k > n - 1:
        k = n - 1
    k += 1

    prev_zero = True
    verdict: int | None = None
    for j in range(1, min(k, n)):
        u = _uniform(stream, j)
        x = xs[j - 1] if prev_zero else c
        prev_zero = u < 1.0 - c * x
    if k < n:
        # Position k holds the first changed particle.  A conclusive
        # change-outcome right after a conclusive 0 names the position;
        # an inconclusive outcome here pins the strength to c for the
        # rest of the chain, after which no verdict is possible.
        u = _uniform(stream, k)
        x = xs[k - 1] if prev_zero else c
        if prev_zero and x * (1.0 - u) > c:
            verdict = k
    elif prev_zero:
        # A conclusive 0 at position n-1 certifies the change at n.
        verdict = n
    return TrialResult(true_change_point=k, detected_position=verdict)


def run_experiment(
    schedule: StrengthSchedule, trials: int, seed: int
) -> SimulationReport:
    """Aggregate ``trials`` independent trials into a report.

    The per-trial substreams are keyed by ``(seed, trial index)``, so the
    result is deterministic and independent of execution order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts, wrong = kernels.simulate_counts(
        schedule.overlap.c, schedule.strengths, int(trials), int(seed)
    )
    total = int(counts.sum())
    success = total / trials
    return SimulationReport(
        n=schedule.n,
        c=schedule.overlap.c,
        trials=int(trials),
        seed=int(seed),
        detections_per_position=tuple(int(v) for v in counts),
        empirical_success=success,
        stderr=math.sqrt(success * (1.0 - success) / trials),
        mismatched_detections=int(wrong),
    )
