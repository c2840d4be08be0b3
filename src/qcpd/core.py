"""Measurement model for a particle stream with one change point.

A source emits ``n`` particles.  Up to some unknown position ``k`` (uniform
on 1..n) each particle is in the default state; from ``k`` on, each is in a
changed state whose inner product with the default state is the overlap
``c`` in [0, 1].  Each particle is measured once, in order, with an
unambiguous local measurement of strength ``x`` in [c, 1/c]:

* default particle:  conclusive-default with probability ``1 - c*x``,
  inconclusive otherwise;
* changed particle:  conclusive-change with probability ``1 - c/x``,
  inconclusive otherwise;
* cross outcomes never occur, so conclusive answers are always correct.

After any inconclusive outcome the *next* strength is pinned to ``c`` (that
choice keeps later conclusive-change outcomes impossible rather than merely
unlikely); the scheduled strength applies only after a conclusive-default
outcome.  Position 1 behaves as if preceded by a conclusive-default one.

The change point is named by the first conclusive-change outcome when it
occurs at position 1 or right after a conclusive-default outcome (positions
j-1, j bracket the change), or by a conclusive-default outcome at position
n-1 (the last particle is never measured; the change can only be at n).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidMeasurementError

#: default absolute tolerance for exact-identity comparisons
EPSILON = 1e-12

#: relative slack applied to admissibility bounds so that values computed
#: as exactly c or 1/c in floating point are not rejected by round-off
REL_SLACK = 1e-12

#: largest stream length enumerate_strategy accepts (2**(n-2) paths per
#: hypothesis grows fast; the cap keeps the oracle honest and cheap)
ENUMERATION_CAP = 12


def check_strength(c: float, x: float, position: int | None = None) -> None:
    """Raise :class:`InvalidMeasurementError` unless ``c <= x <= 1/c``
    (``x > 0`` when ``c == 0``), with relative round-off slack."""
    where = f"strength at position {position}" if position is not None else "strength"
    if not math.isfinite(x):
        raise InvalidMeasurementError(f"{where} = {x!r} is not finite")
    if c == 0.0:
        if x <= 0.0:
            raise InvalidMeasurementError(
                f"{where} = {x!r} must be positive when the overlap is 0"
            )
        return
    lo = c * (1.0 - REL_SLACK)
    hi = (1.0 / c) * (1.0 + REL_SLACK)
    if x < lo or x > hi:
        raise InvalidMeasurementError(
            f"{where} = {x!r} outside the admissible interval [{c!r}, {1.0 / c!r}]"
        )


@dataclass(frozen=True, slots=True)
class Overlap:
    """Inner product between the default and changed states, in [0, 1]."""

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        if not math.isfinite(self.c) or not 0.0 <= self.c <= 1.0:
            raise ValueError(f"overlap must lie in [0, 1], got {self.c!r}")


def _overlap(c: Overlap | float) -> float:
    """Validated overlap value of an :class:`Overlap` or a plain number."""
    return c.c if isinstance(c, Overlap) else Overlap(float(c)).c


def _check_n(n: int, minimum: int = 2) -> int:
    n = int(n)
    if n < minimum:
        raise ValueError(f"stream length must be at least {minimum}, got {n}")
    return n


@dataclass(frozen=True, slots=True)
class StrengthSchedule:
    """Strengths used at positions 1..n-1 after conclusive-default runs.

    The strength-``c``-after-inconclusive behaviour is a rule of the model,
    not part of the stored schedule.  The last particle is never measured,
    hence ``n - 1`` entries for a stream of length ``n``.
    """

    n: int
    strengths: tuple[float, ...]
    overlap: Overlap

    def __post_init__(self):
        object.__setattr__(self, "strengths", tuple(float(x) for x in self.strengths))
        _check_n(self.n)
        if len(self.strengths) != self.n - 1:
            raise ValueError(
                f"expected {self.n - 1} strengths for n={self.n}, got {len(self.strengths)}"
            )
        c = self.overlap.c
        for j, x in enumerate(self.strengths, start=1):
            check_strength(c, x, position=j)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.strengths, dtype=np.float64)


@dataclass(frozen=True, slots=True)
class DetectionProfile:
    """Per-hypothesis success probabilities of a strategy and their mean
    (the overall success probability under the uniform prior)."""

    n: int
    per_position: tuple[float, ...]
    average: float

    def __post_init__(self):
        if len(self.per_position) != self.n:
            raise ValueError(
                f"expected {self.n} entries, got {len(self.per_position)}"
            )
        for k, p in enumerate(self.per_position, start=1):
            if not math.isfinite(p) or p < -EPSILON or p > 1.0 + EPSILON:
                raise ValueError(f"entry {k} = {p!r} is not a probability")
        if abs(self.average - _mean(self.per_position)) > EPSILON:
            raise ValueError("average does not match the mean of per_position")

    @classmethod
    def from_values(cls, values) -> "DetectionProfile":
        vals = tuple(float(v) for v in values)
        return cls(n=len(vals), per_position=vals, average=_mean(vals))


def _mean(values) -> float:
    return float(np.mean(np.asarray(values, dtype=np.float64)))


def evaluate_strategy(schedule: StrengthSchedule) -> DetectionProfile:
    """Detection profile of a schedule in O(n) via the forward recursion.

    Entry ``k`` is the probability of naming position ``k`` when the change
    is at ``k``: a conclusive-change outcome at position 1, a
    conclusive-default/conclusive-change pair at ``k-1, k``, or — for
    ``k = n`` — a conclusive-default outcome at position ``n-1``.
    """
    values = kernels.detection_profile(schedule.overlap.c, schedule.as_array())
    return DetectionProfile.from_values(values)


def enumerate_strategy(
    schedule: StrengthSchedule, cap: int = ENUMERATION_CAP
) -> DetectionProfile:
    """Detection profile by explicit enumeration of outcome paths.

    Walks every conclusive-default/inconclusive string the positions before
    the change can produce and sums the path probabilities ending in the
    naming pattern.  Exponential in ``n`` — refuses streams longer than
    ``cap``.  Exists as an independent cross-check of the recursion.
    """
    if schedule.n > cap:
        raise ValueError(
            f"enumeration is exponential; n={schedule.n} exceeds the cap of {cap}"
        )
    c = schedule.overlap.c
    xs = schedule.strengths
    n = schedule.n
    values = []
    for k in range(1, n + 1):
        if k == 1:
            values.append(1.0 - c / xs[0])
            continue
        prefix_len = k - 2 if k < n else n - 2
        total = 0.0
        for outcomes in itertools.product((True, False), repeat=prefix_len):
            # True = conclusive-default, False = inconclusive
            p = 1.0
            prev_zero = True
            for j, conclusive in enumerate(outcomes, start=1):
                x = xs[j - 1] if prev_zero else c
                p *= (1.0 - c * x) if conclusive else c * x
                prev_zero = conclusive
            # conclusive-default at the position before the change (k < n)
            # or at position n-1 (k == n)
            x = xs[prefix_len] if prev_zero else c
            p *= 1.0 - c * x
            if k < n:
                # conclusive-change right after a conclusive-default outcome
                p *= 1.0 - c / xs[k - 1]
            total += p
        values.append(total)
    return DetectionProfile.from_values(values)
