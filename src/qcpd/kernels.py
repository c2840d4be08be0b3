"""Numeric hot paths: detection-profile recursion and Monte Carlo trials.

Both kernels are plain numpy.  The Monte Carlo kernel draws every uniform
from a counter-based generator keyed by ``(seed, trial, position)``, so
the vectorised kernel consumes exactly the same numbers as the scalar
reference walk :func:`qcpd.montecarlo.simulate_trial`, in any order and
for any chunking; pooled, the two agree count for count.

The generator is the splitmix64 finalizer applied twice:
``u(seed, t, j) = finalize(finalize(root + t*GAMMA) + j*GAMMA)`` with
``root = finalize(seed + GAMMA)``, mapped to [0, 1) via the top 53 bits.
"""
from __future__ import annotations

import numpy as np

_GAMMA_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

GAMMA = np.uint64(_GAMMA_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)
_INV53 = 2.0**-53


def mix64_int(z: int) -> int:
    """splitmix64 finalizer on plain Python ints (used for seeding and by
    the pure-Python reference walk; bit-identical to the array version)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK64
    return z ^ (z >> 31)


def _mix64(z):
    """splitmix64 finalizer on uint64 numpy arrays (wraparound is silent
    for arrays; scalars must go through :func:`mix64_int` instead)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def seed_root(seed: int) -> int:
    """Derive the per-experiment root of the counter tree from a seed."""
    return mix64_int(int(seed) + _GAMMA_INT)


# ---------------------------------------------------------------------------
# kernel 1: detection profile (forward recursion over outcome probabilities)
# ---------------------------------------------------------------------------

def detection_profile(c: float, xs: np.ndarray) -> np.ndarray:
    """Per-position detection probabilities of the schedule ``xs``.

    ``xs[j-1]`` is the strength used at position j after a conclusive-0
    run; after an inconclusive outcome the next strength is pinned to c.
    """
    c = float(c)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    n = xs.shape[0] + 1
    prof = np.empty(n, dtype=np.float64)
    prof[0] = 1.0 - c / xs[0]
    p0 = 1.0
    pi = 0.0
    for k in range(2, n + 1):
        x_prev = xs[k - 2]
        pi = p0 * (c * x_prev) + pi * (c * c)
        p0 = 1.0 - pi
        if k < n:
            prof[k - 1] = p0 * (1.0 - c / xs[k - 1])
        else:
            prof[k - 1] = p0
    return prof


# ---------------------------------------------------------------------------
# kernel 2: Monte Carlo trials
# ---------------------------------------------------------------------------
#
# Per trial t: counter 0 draws the change position k (uniform on 1..n);
# counter j in 1..n-1 drives the measurement at position j.  The walk
# follows the adaptive rule (scheduled strength after a conclusive 0,
# strength c after an inconclusive outcome).  Verdicts: a conclusive
# change-outcome at position 1, or immediately after a conclusive 0,
# names that position; a conclusive 0 at position n-1 names position n;
# anything else is inconclusive.  Only the first change-outcome matters:
# after an inconclusive result on a changed particle the strength is
# pinned to c, which can never again produce a conclusive outcome.

_CHUNK = 1 << 16


def simulate_counts(
    c: float, xs: np.ndarray, trials: int, seed: int
) -> tuple[np.ndarray, int]:
    """Detections per position and the count of wrong verdicts over
    ``trials`` trials, processed in chunks with all positions masked."""
    c = float(c)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    n = xs.shape[0] + 1
    root = np.uint64(seed_root(seed))
    # counter offsets j*GAMMA, built as an array op: scalar uint64 products
    # would warn on the intended modular wrap-around
    offsets = np.arange(n, dtype=np.uint64) * GAMMA
    counts = np.zeros(n, dtype=np.int64)
    wrong = 0
    for lo in range(0, trials, _CHUNK):
        hi = min(lo + _CHUNK, trials)
        t = np.arange(lo, hi, dtype=np.uint64)
        zt = _mix64(root + t * GAMMA)
        u = (_mix64(zt) >> np.uint64(11)).astype(np.float64) * _INV53
        k = (u * n).astype(np.int64)
        np.minimum(k, n - 1, out=k)
        k += 1
        prev_zero = np.ones(hi - lo, dtype=np.bool_)
        det = np.zeros(hi - lo, dtype=np.int64)
        for j in range(1, n):
            u = (_mix64(zt + offsets[j]) >> np.uint64(11)).astype(np.float64) * _INV53
            x = np.where(prev_zero, xs[j - 1], c)
            hit = (k == j) & prev_zero & (x * (1.0 - u) > c)
            det[hit] = j
            prev_zero = (j < k) & (u < 1.0 - c * x)
        det[(k == n) & prev_zero] = n
        counts += np.bincount(det, minlength=n + 1)[1:]
        wrong += int(np.count_nonzero((det > 0) & (det != k)))
    return counts, wrong


def active_backend() -> str:
    """Name of the kernel implementation (always ``"numpy"``)."""
    return "numpy"
