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

The package's errors are the three ``ValueError`` subclasses below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

#: default absolute tolerance for exact-identity comparisons
EPSILON = 1e-12

#: relative slack applied to admissibility bounds so that values computed
#: as exactly c or 1/c in floating point are not rejected by round-off
REL_SLACK = 1e-12

#: largest stream length enumerate_strategy accepts: it builds 2**(n-1)
#: path probabilities once, sharing prefixes, and folds each hypothesis
#: total in product order; the cap keeps the oracle honest and cheap
ENUMERATION_CAP = 12


class InvalidMeasurementError(ValueError):
    """A measurement strength lies outside the admissible interval [c, 1/c]."""


class OutOfValidityError(ValueError):
    """A closed form or recursion was asked for outside its validity range."""


def check_strength(c, x) -> None:
    """Raise :class:`InvalidMeasurementError` unless ``c <= x <= 1/c``
    (``x > 0`` when ``c == 0``), with relative round-off slack.

    ``x`` is a scalar, a 1-D array of strengths, or a 2-D array holding one
    schedule per row; ``c`` is one overlap or, for a 2-D ``x``, a column of
    per-row overlaps.  For an array the error names the first offending
    1-based position.
    """
    xs = np.asarray(x, dtype=np.float64)
    if isinstance(c, float):
        # one overlap, bounded in Python floats, which round as numpy's do;
        # the slackened ceiling is +inf at c = ±0.0 and at a subnormal c
        # whose 1/c, or 1/c with the slack, overflows
        cs = float(c)
        ceiling = (1.0 / cs if cs else math.inf) * (1.0 + REL_SLACK)
        finite = math.isfinite(ceiling)
        # NaN propagates to the smallest and the largest and fails below
        low = np.minimum.reduce(xs, None, initial=math.inf)
        high = np.maximum.reduce(xs, None, initial=-math.inf)
        if (
            low >= cs * (1.0 - REL_SLACK)
            and high <= ceiling
            and (finite or (low > 0.0 and high < math.inf))
        ):
            return
    else:
        # + 0.0 turns an overlap of -0.0 into 0.0, whose ceiling is +inf
        cs = np.asarray(c, dtype=np.float64) + 0.0
        with np.errstate(divide="ignore", over="ignore"):
            # inf at c == 0, where only x > 0 binds, and at subnormal c
            # whose 1/c, or 1/c with the slack, overflows
            ceiling = 1.0 / cs * (1.0 + REL_SLACK)
        finite = np.isfinite(ceiling).all()
    # NaN fails both comparisons
    ok = (xs >= cs * (1.0 - REL_SLACK)) & (xs <= ceiling)
    if not finite:
        # an infinite ceiling passes x = inf, and the floor 0 passes x = 0
        ok &= (xs > 0.0) & np.isfinite(xs)
    if ok.all():
        return
    i = int(np.argmin(ok))
    value = xs.flat[i].item()
    cv = np.broadcast_to(cs, xs.shape).flat[i].item()
    where = f"strength at position {i % xs.shape[-1] + 1}" if xs.ndim else "strength"
    if not math.isfinite(value):
        problem = "is not finite"
    elif cv == 0.0:
        problem = "must be positive when the overlap is 0"
    else:
        problem = f"outside the admissible interval [{cv!r}, {1.0 / cv!r}]"
    raise InvalidMeasurementError(f"{where} = {value!r} {problem}")


def _check_probabilities(p: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry of ``p`` is a probability
    within :data:`EPSILON`; for a 2-D ``p`` (one profile per row) the error
    names the 1-based position within the row."""
    # NaN propagates to the smallest and the largest and fails both tests
    low = np.minimum.reduce(p, None, initial=math.inf)
    if low >= -EPSILON and np.maximum.reduce(p, None, initial=-math.inf) <= 1.0 + EPSILON:
        return
    # NaN fails both comparisons, and each infinity one of them
    k = int(np.argmin((p >= -EPSILON) & (p <= 1.0 + EPSILON)))
    raise ValueError(f"entry {k % p.shape[-1] + 1} = {p.flat[k].item()!r} is not a probability")


@dataclass(frozen=True, slots=True)
class Overlap:
    """Inner product between the default and changed states, in [0, 1]."""

    c: float

    def __post_init__(self):
        # + 0.0 turns -0.0 into 0.0, so every later sign and 1/c is that of 0
        object.__setattr__(self, "c", float(self.c) + 0.0)
        if not math.isfinite(self.c) or not 0.0 <= self.c <= 1.0:
            raise ValueError(f"overlap must lie in [0, 1], got {self.c!r}")


def _overlap(c: Overlap | float) -> float:
    """Validated overlap value of an :class:`Overlap` or a plain number."""
    return c.c if isinstance(c, Overlap) else Overlap(float(c)).c


def _check_n(n: int) -> int:
    n = int(n)
    if n < 2:
        raise ValueError(f"stream length must be at least 2, got {n}")
    return n


def _frozen_vector(values, dtype=np.float64) -> np.ndarray:
    """A read-only 1-D ``dtype`` copy of ``values``, which must be of that
    kind: numpy would truncate ``1.5`` to the int ``1`` and parse ``"3"``."""
    vec = np.array(values)
    if vec.dtype != dtype:
        if not np.can_cast(vec.dtype, dtype, casting="same_kind"):
            raise ValueError(f"expected {np.dtype(dtype)} values, got {vec.dtype}")
        vec = vec.astype(dtype)
    if vec.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got {vec.ndim} dimensions")
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True, slots=True, eq=False)
class StrengthSchedule:
    """Strengths used at positions 1..n-1 after conclusive-default runs.

    The strength-``c``-after-inconclusive behaviour is a rule of the model,
    not part of the stored schedule.  The last particle is never measured,
    hence ``n - 1`` entries for a stream of length ``n``.  ``strengths`` is
    a read-only float64 copy of the given values.
    """

    n: int
    strengths: np.ndarray
    overlap: Overlap

    def __post_init__(self):
        object.__setattr__(self, "strengths", _frozen_vector(self.strengths))
        _check_n(self.n)
        if len(self.strengths) != self.n - 1:
            raise ValueError(
                f"expected {self.n - 1} strengths for n={self.n}, got {len(self.strengths)}"
            )
        check_strength(self.overlap.c, self.strengths)


@dataclass(frozen=True, slots=True, eq=False)
class DetectionProfile:
    """Per-hypothesis success probabilities of a strategy, as a read-only
    float64 array; their mean is the overall success probability under the
    uniform prior."""

    per_position: np.ndarray

    def __post_init__(self):
        p = _frozen_vector(self.per_position)
        _check_probabilities(p)
        object.__setattr__(self, "per_position", p)

    @property
    def average(self) -> float:
        # np.mean's sum and division, without its Python wrapper
        return float(np.add.reduce(self.per_position) / len(self.per_position))


def evaluate_strategy(schedule: StrengthSchedule) -> DetectionProfile:
    """Detection profile of a schedule in O(n) via the forward recursion.

    Entry ``k`` is the probability of naming position ``k`` when the change
    is at ``k``: a conclusive-change outcome at position 1, a
    conclusive-default/conclusive-change pair at ``k-1, k``, or — for
    ``k = n`` — a conclusive-default outcome at position ``n-1``.
    """
    c = schedule.overlap.c
    return DetectionProfile(kernels.detection_profile(c, schedule.strengths))


def _stack_profiles(cs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Profiles of the ``(R, n-1)`` stack ``xs``, one schedule per row at
    the overlap in the same row of the ``(R,)`` column ``cs``: the stacked
    twin of ``evaluate_strategy(StrengthSchedule(...))``, with its
    admissibility and probability checks each made once on the stack, and
    one kernel walk per row into the ``(R, n)`` result.  Row by row
    bit-identical to it, and each row's mean over the C-contiguous result
    to its ``average``.  Raises ``ValueError`` unless ``cs`` holds one
    overlap per row."""
    if cs.shape != xs.shape[:1]:
        raise ValueError(f"a stack of {len(xs)} schedules needs {len(xs)} overlaps, got shape {cs.shape}")
    check_strength(cs[:, None], xs)
    profiles = np.empty((len(xs), xs.shape[1] + 1))
    for row, c, x in zip(profiles, cs.tolist(), xs):
        row[:] = kernels.detection_profile(c, x)
    _check_probabilities(profiles)
    return profiles


def enumerate_strategy(schedule: StrengthSchedule) -> DetectionProfile:
    """Detection profile by explicit enumeration of outcome paths.

    Walks every conclusive-default/inconclusive string the positions before
    the change can produce and sums the path probabilities ending in the
    naming pattern: the one-row call of :func:`_path_profiles`.
    Exponential in ``n`` — refuses streams longer than
    :data:`ENUMERATION_CAP`.  Exists as an independent cross-check of the
    recursion.
    """
    cs = np.array([schedule.overlap.c])
    return DetectionProfile(_path_profiles(cs, schedule.strengths[None, :])[0])


def _path_profiles(cs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Detection profiles of a stack of schedules by path enumeration: the
    ``(R, n-1)`` strengths ``xs``, one schedule per row at the overlap in
    the same row of the ``(R,)`` column ``cs``, give an ``(R, n)`` array.

    Paths share prefixes: level ``j`` holds the probabilities of all
    ``2**j`` strings of positions ``1..j`` in
    ``itertools.product((True, False), repeat=j)`` order (True is a
    conclusive default), each child the parent times one outcome factor, so
    the ``2**(n-1)`` path probabilities are built once, level by level, in
    two buffers that take turns.  Even entries end in a conclusive default
    (level 0's empty string counts as one) and measure the next position at
    its strength ``x``, with factors ``(1 - c*x, c*x)``; odd entries
    measure it at ``c``, with ``(1 - c^2, c^2)``.  A hypothesis term is
    ``(p * default) * change``, and its total the sequential left fold
    ``0.0 + t_1 + t_2 + ...`` of ``np.add.accumulate`` (``cumsum``), written
    over the spent level after a column holding the leading ``0.0``, which
    turns a lone term of ``-0.0`` into ``+0.0``; so every row equals a
    one-string-at-a-time ``+=`` loop bit for bit.
    """
    rows, n = xs.shape[0], xs.shape[1] + 1
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration is exponential; n={n} exceeds the cap of {ENUMERATION_CAP}"
        )
    c = cs[:, None]
    cx = c * xs
    # the conclusive-change factor at positions 1..n-1
    change = np.divide(c, xs)
    np.subtract(1.0, change, out=change)
    # (conclusive-default, inconclusive) factors at strength c, the one
    # pinned after an inconclusive outcome
    cc = c * c
    after_inconclusive = (1.0 - cc, cc)
    width = 1 << (n - 2)
    # a level's paths sit in columns 1..; column 0 of both buffers stays
    # 0.0, the fold's leading term
    paths, spare = np.zeros((rows, width + 1)), np.zeros((rows, width + 1))
    paths[:, 1] = 1.0
    out = np.empty((rows, n))
    out[:, 0] = change[:, 0]
    w = 1
    for j in range(1, n):
        default = 1.0 - cx[:, j - 1 : j]
        ends_default = paths[:, 1 : w + 1 : 2]
        ends_inconclusive = paths[:, 2 : w + 1 : 2]
        if j < n - 1:
            # change at j + 1: a conclusive default at j, then a
            # conclusive-change outcome at j + 1
            children = spare[:, 1 : 2 * w + 1]
            np.multiply(ends_default, default, out=children[:, 0::4])
            np.multiply(ends_default, cx[:, j - 1 : j], out=children[:, 1::4])
            np.multiply(ends_inconclusive, after_inconclusive[0], out=children[:, 2::4])
            np.multiply(ends_inconclusive, after_inconclusive[1], out=children[:, 3::4])
            # the spent level's buffer takes the terms
            fold = paths[:, : w + 1]
            np.multiply(children[:, 0::2], change[:, j : j + 1], out=fold[:, 1:])
            paths, spare = spare, paths
        else:
            # change at n: a conclusive default at position n - 1
            fold = spare[:, : w + 1]
            np.multiply(ends_default, default, out=fold[:, 1::2])
            np.multiply(ends_inconclusive, after_inconclusive[0], out=fold[:, 2::2])
        np.add.accumulate(fold, axis=1, out=fold)
        out[:, j] = fold[:, w]
        w *= 2
    return out
