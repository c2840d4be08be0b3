"""Numeric hot paths: detection-profile recursion and Monte Carlo trials.

Both kernels are plain numpy.  The Monte Carlo kernel draws every uniform
from a counter-based generator keyed by ``(seed, trial, position)``, so
the vectorised kernel consumes exactly the same numbers as the scalar
reference walk :func:`qcpd.montecarlo.simulate_trial`, in any order and
for any chunking; pooled, the two agree count for count.

The generator is the splitmix64 finalizer applied twice:
``u(seed, t, j) = finalize(finalize(root + t*GAMMA) + j*GAMMA)`` with
``root = finalize(seed + GAMMA)``, mapped to [0, 1) via the top 53 bits.

A trial's verdict is settled at its change position k, so the Monte Carlo
kernel walks only live trials: each chunk is sorted by k, descending, and
step j works on the prefix of trials with k >= j.  The per-step test
``u < 1 - c*x`` runs on the 53-bit integers behind ``u`` against exact
integer thresholds, so no step converts the live prefix to floats.
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
    # Python floats: the same IEEE arithmetic as numpy scalars, but cheaper
    prof = []
    p0 = 1.0
    pi = 0.0
    for x in np.asarray(xs, dtype=np.float64).tolist():
        prof.append(p0 * (1.0 - c / x))
        pi = p0 * (c * x) + pi * (c * c)
        p0 = 1.0 - pi
    prof.append(p0)
    return np.array(prof)


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
#
# So a trial is live only up to its own k.  Each chunk is reordered by k,
# descending, and ge[j] counts the trials with k >= j: step j hashes the
# live prefix [:ge[j]], tests verdicts on its k == j segment
# [ge[j+1]:ge[j]] and carries the one bit of memory, prev_zero, on
# [:ge[j+1]].  The walk stops where the prefix empties.
#
# The step "u < 1 - c*x" compares the 53-bit integer m = z >> 11 behind
# u = m * 2**-53 with an integer threshold (see _int_threshold) for each
# position, so it needs no float conversion yet decides exactly as the
# float test.  The verdict test x*(1 - u) > c stays in floats.
#
# The chunk size does not change any count (every uniform is keyed by
# trial and position); 2**15 keeps the sort's index and reordered copies
# below the peak memory of the unsorted 2**16 chunks.

_CHUNK = 1 << 15


def _int_threshold(t) -> np.ndarray:
    """Integer thresholds: for every integer ``0 <= m < 2**53``,
    ``m * 2**-53 < t`` holds exactly when ``m < _int_threshold(t)``.

    ``t * 2**53`` is exact, and ``m < t*2**53`` is ``m < ceil(t*2**53)``
    for integer ``m``; clamping to ``[0, 2**53]`` keeps negative ``t``
    (``1 - c*x`` rounded below 0) and ``t = 1`` exact as well.
    """
    scaled = np.ceil(np.asarray(t, dtype=np.float64) * 2.0**53)
    return np.clip(scaled, 0.0, 2.0**53).astype(np.uint64)


def simulate_counts(
    c: float, xs: np.ndarray, trials: int, seed: int
) -> tuple[np.ndarray, int]:
    """Detections per position and the count of wrong verdicts over
    ``trials`` trials, processed in chunks that walk only live trials."""
    c = float(c)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    n = xs.shape[0] + 1
    root = np.uint64(seed_root(seed))
    # counter offsets j*GAMMA, built as an array op: scalar uint64 products
    # would warn on the intended modular wrap-around
    offsets = np.arange(n, dtype=np.uint64) * GAMMA
    # stay threshold after an inconclusive outcome (x = c), and how far the
    # scheduled strength xs[j-1] after a conclusive 0 lowers it; uint64
    # arithmetic is modular, so thr_pinned - thr_drop is exact for any xs
    thr_pinned = _int_threshold(1.0 - c * c)
    thr_drop = thr_pinned - _int_threshold(1.0 - c * xs)
    r30, r27, r31, r11 = (np.uint64(s) for s in (30, 27, 31, 11))
    size = min(trials, _CHUNK)
    z = np.empty(size, dtype=np.uint64)
    tmp = np.empty(size, dtype=np.uint64)
    counts = np.zeros(n, dtype=np.int64)
    wrong = 0
    for lo in range(0, trials, _CHUNK):
        hi = min(lo + _CHUNK, trials)
        t = np.arange(lo, hi, dtype=np.uint64)
        zt = _mix64(root + t * GAMMA)
        u = (_mix64(zt) >> r11).astype(np.float64) * _INV53
        k = (u * n).astype(np.int64)
        np.minimum(k, n - 1, out=k)
        k += 1
        # a stable sort on the smallest dtype that holds n - k is a radix
        # sort for n < 2**16
        order = np.argsort((n - k).astype(np.min_scalar_type(n)), kind="stable")
        zt, k = zt[order], k[order]
        del t, u, order  # the draw temporaries are not live during the walk
        # ge[j] = number of trials with k >= j, for j in 0..n+1
        ge = np.bincount(k, minlength=n + 2)[::-1].cumsum()[::-1].tolist()
        prev_zero = np.ones(hi - lo, dtype=np.bool_)
        det = np.zeros(hi - lo, dtype=np.int64)
        for j in range(1, n):
            live, carry = ge[j], ge[j + 1]
            if live == 0:
                break
            m, scratch = z[:live], tmp[:live]
            np.add(zt[:live], offsets[j], out=m)
            np.right_shift(m, r30, out=scratch)
            m ^= scratch
            m *= _MIX1
            np.right_shift(m, r27, out=scratch)
            m ^= scratch
            m *= _MIX2
            np.right_shift(m, r31, out=scratch)
            m ^= scratch
            m >>= r11
            # verdicts of the trials whose change point is j
            u = m[carry:].astype(np.float64) * _INV53
            hit = prev_zero[carry:live] & (xs[j - 1] * (1.0 - u) > c)
            det[carry:live][hit] = j
            # the rest stay live: u < 1 - c*x, with x set by prev_zero
            pz, thr = prev_zero[:carry], scratch[:carry]
            np.multiply(pz, thr_drop[j - 1], out=thr)
            np.subtract(thr_pinned, thr, out=thr)
            np.less(m[:carry], thr, out=pz)
        det[: ge[n]][prev_zero[: ge[n]]] = n
        counts += np.bincount(det, minlength=n + 1)[1:]
        wrong += int(np.count_nonzero((det > 0) & (det != k)))
    return counts, wrong


def active_backend() -> str:
    """Name of the kernel implementation (always ``"numpy"``)."""
    return "numpy"
