"""Numeric hot paths: detection-profile recursion and Monte Carlo trials.

Both kernels are plain numpy.  The profile kernel walks one schedule,
as the protocol measures one particle at a time, on Python floats,
writing each entry through a memoryview of its result and filling each
long run of equal strengths in bulk once its state cycles, so a chain
costs O(unsettled positions) in Python and no memory beyond its result.

The Monte Carlo kernel draws every uniform
from a counter-based generator keyed by ``(seed, trial, position)``, so
the vectorised kernel consumes exactly the same numbers as the scalar
reference walk :func:`qcpd.montecarlo.simulate_trial`, in any order and
for any chunking; pooled, the two agree count for count.

The generator is the splitmix64 finalizer applied twice:
``u(seed, t, j) = finalize(finalize(root + t*GAMMA) + j*GAMMA)`` with
``root = finalize(seed + GAMMA)``, mapped to [0, 1) via the top 53 bits.
Seeds lie in [0, 2**64), so distinct seeds key distinct trees.  Every
random number qcpd draws comes from this tree: ``verify``'s random
schedules too, through :func:`_uniforms`.

The Monte Carlo kernel walks each trial backward from its change point k.
A verdict needs the draw at k and the protocol's one bit of memory
entering k: whether the outcome at k-1 was a conclusive 0.  Each draw at
an unchanged position acts on that bit as one of four maps (set to 1, set
to 0, flip, keep), so the bit is the value of the last set map before k,
flipped once for every flip map after it.  The kernel draws at k first,
walks back only the trials whose verdict test passes, and stops each one
at its first set map: about ``1/(1 - c*(x - c))`` draws per trial instead
of the ``(n-1)/2`` of a forward walk.  The saturated strategy at small c
is the exception: its draws flip the bit with chance ``1 - c^2``, so its
walks run nearly back to position 1, with more work per draw than a
forward walk.  The maps only regroup the forward rule's comparisons, every
uniform keeps its ``(seed, trial, position)`` key, and each step compares
the 53-bit integers behind ``u`` with exact integer thresholds, which
decide exactly as the float tests do; so the counts are the forward
walk's, bit for bit.
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
_R30, _R27, _R31, _R11 = (np.uint64(r) for r in (30, 27, 31, 11))


def mix64_int(z: int) -> int:
    """splitmix64 finalizer on plain Python ints (used for seeding and by
    the pure-Python reference walk; bit-identical to the array version)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK64
    return z ^ (z >> 31)


def _mix64(z, out=None, scratch=None):
    """splitmix64 finalizer on uint64 numpy arrays, written to ``out`` (which
    may be ``z``; a new array if None), with ``scratch`` as a work array of
    the same shape.  Wraparound is silent for arrays; scalars must go through
    :func:`mix64_int` instead."""
    if out is None:
        out = np.empty_like(z)
    if scratch is None:
        scratch = np.empty_like(z)
    np.right_shift(z, _R30, out=scratch)
    np.bitwise_xor(z, scratch, out=out)
    out *= _MIX1
    np.right_shift(out, _R27, out=scratch)
    out ^= scratch
    out *= _MIX2
    np.right_shift(out, _R31, out=scratch)
    out ^= scratch
    return out


def seed_root(seed: int) -> int:
    """Derive the per-experiment root of the counter tree from a seed in
    [0, 2**64); raises ``ValueError`` for any other seed, which would
    alias one in range."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return mix64_int(seed + _GAMMA_INT)


def _stream_keys(root: np.uint64, lo: int, hi: int, scratch=None) -> np.ndarray:
    """The keys ``finalize(root + t*GAMMA)`` of streams ``t = lo..hi-1``,
    with ``scratch`` as for :func:`_mix64`."""
    keys = np.arange(lo, hi, dtype=np.uint64)
    keys *= GAMMA
    keys += root
    return _mix64(keys, keys, scratch)


def _uniforms(seed: int, first: int, rows: int, cols: int) -> np.ndarray:
    """The ``(rows, cols)`` uniforms of streams ``first..first+rows-1`` at
    counters ``0..cols-1``, each bit for bit the scalar
    ``montecarlo._uniform`` of its stream and counter."""
    keys = _stream_keys(np.uint64(seed_root(seed)), first, first + rows)
    draws = keys[:, None] + np.arange(cols, dtype=np.uint64) * GAMMA
    _mix64(draws, draws)
    draws >>= _R11
    return draws * _INV53


# ---------------------------------------------------------------------------
# kernel 1: detection profile (forward recursion over outcome probabilities)
# ---------------------------------------------------------------------------

#: shortest run of equal strengths that the walk settles early
_SETTLE_RUN = 128


def detection_profile(c: float, xs) -> np.ndarray:
    """Per-position detection probabilities of the schedule ``xs``.

    ``xs[j-1]`` is the strength used at position j after a conclusive-0
    run; after an inconclusive outcome the next strength is pinned to c.
    Entry j is ``p0_j * (1 - c/x_j)`` and the last entry ``p0_n``, where
    ``p0 = 1 - pi`` and ``pi' = p0*(c*x) + pi*c^2`` from ``pi = 0``.
    Raises ``ValueError`` for strengths that are not 1-D.

    Each entry is computed in a walk on Python floats (numpy's IEEE
    arithmetic, cheaper per step) and written once through a memoryview of
    the result.  In a run of at least :data:`_SETTLE_RUN` equal strengths
    each step is one pure map of ``pi``: once ``pi`` repeats a value it
    took in the run, the rest of the run repeats the entries since then,
    filled by phase from the result itself, and ``pi`` leaves it by the
    phase of that cycle.  Each step checks ``pi`` against its value two
    steps back, which closes the 2-cycles of the slowest runs at once, and
    against an anchor refreshed at doubling intervals, which closes a cycle
    of any length.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"strengths must be 1-D, got {xs.ndim} dimensions")
    c = float(c)
    cc, p0, pi, n = c * c, 1.0, 0.0, len(xs)
    runs = [(n, n)]  # (start, end) of each long run, and the end of the chain
    if n >= _SETTLE_RUN and (xs[_SETTLE_RUN - 1 :] == xs[: n + 1 - _SETTLE_RUN]).any():
        edges = np.concatenate(([0], np.flatnonzero(xs[1:] != xs[:-1]) + 1, [n]))
        long = np.flatnonzero(np.diff(edges) >= _SETTLE_RUN)
        runs[:0] = zip(edges[long].tolist(), edges[long + 1].tolist())
    prof = np.empty(n + 1)
    out, strengths, done = memoryview(prof), memoryview(xs), 0
    for start, end in runs:
        for j, x in enumerate(strengths[done:start], done):
            out[j] = p0 * (1.0 - c / x)
            pi = p0 * (c * x) + pi * cc
            p0 = 1.0 - pi
        x = strengths[start] if start < n else 1.0
        cx, change = c * x, 1.0 - c / x
        j, width, back, prev, done = start, 2, None, None, end
        while j < end:
            anchor, mark = pi, j
            for j in range(j, min(j + width, end)):
                out[j] = p0 * change
                back, prev = prev, pi
                pi = p0 * cx + pi * cc
                p0 = 1.0 - pi
                if pi == back or pi == anchor:
                    break
            else:
                j, width = j + 1, 2 * width
                continue
            # pi entering j + 1 is that entering `first`: fill by phase
            first = j - 1 if pi == back else mark
            period = j + 1 - first
            for i in range(period):
                prof[j + 1 + i : end : period] = out[first + i]
            for _ in range((end - j - 1) % period):
                pi = p0 * cx + pi * cc
                p0 = 1.0 - pi
            break
    out[n] = p0
    return prof


# ---------------------------------------------------------------------------
# kernel 2: Monte Carlo trials
# ---------------------------------------------------------------------------
#
# Per trial t: counter 0 draws the change position k (uniform on 1..n);
# counter j in 1..n-1 drives the measurement at position j.  The protocol
# follows the adaptive rule (scheduled strength after a conclusive 0,
# strength c after an inconclusive outcome).  Verdicts: a conclusive
# change-outcome at position k < n names k if it follows a conclusive 0
# (or k = 1); a conclusive 0 at position n-1 names n; anything else is
# inconclusive.  No position other than k is ever named.
#
# So a verdict needs the draw at k (for k < n) and one bit of memory, b_k:
# "the outcome at k-1 was a conclusive 0", with b_1 = 1.  The integer draw
# m at an unchanged position j acts on that bit as a map.  With
# a = m < thr(1 - c*x_j), the next bit if the bit is 1, and
# b = m < thr(1 - c^2), the next bit if it is 0:
#
#   (a, b) = (1, 1) sets the bit to 1,    (0, 0) sets it to 0,
#            (0, 1) flips it,             (1, 0) keeps it.
#
# "Keep" needs x_j < c, which an admissible schedule reaches only inside
# REL_SLACK.  Position 1 always acts as a set map, "set to a", because the
# bit entering it is 1.  A step resolves a trial with chance 1 - c*(x_j - c).
# The chunk size does not change any count.

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


def _draw_back(w, j, thr_sched, thr_pinned, m, s, a, b) -> None:
    """Step every walker back one position and draw there: ``w`` moves to
    the counter value of position ``j``; ``a`` and ``b`` get the next bit
    after a bit of 1 and of 0.  ``m`` and ``s`` are work arrays."""
    w -= GAMMA
    _mix64(w, m, s)
    m >>= _R11
    # every walker is at a position in 1..n-1, so "clip" changes no index;
    # it only skips the bounds check
    np.take(thr_sched, j, out=s, mode="clip")
    np.less(m, s, out=a)
    np.less(m, thr_pinned, out=b)


def _bits_at_change(
    w: np.ndarray,
    j: np.ndarray,
    thr_sched: np.ndarray,
    thr_pinned: np.uint64,
    s_buf: np.ndarray,
) -> np.ndarray:
    """The memory bit entering each walker's change point.

    ``w`` holds each walker's counter value ``zt + k*GAMMA`` at its change
    point k, and ``j = k - 1 >= 1``.  ``thr_sched[j]`` is position j's
    threshold after a conclusive 0 and ``thr_pinned`` the one after an
    inconclusive outcome; ``s_buf`` is a uint64 work array at least as
    long as ``w``.  Each step draws every held walker at its own
    position.  A set map resolves a walker to the map's value XOR the
    parity of the flips after it.

    The first step resolves most walkers unless flips are likely.  The
    rest are sorted by position, so the walkers that reach position 1 form
    a prefix, which resolves there and is cut off; others that resolve are
    masked out and dropped once they fill a quarter of the arrays.
    """
    size = w.size
    m_buf, s_buf = np.empty(size, dtype=np.uint64), s_buf[:size]
    a_buf, b_buf, d_buf = (np.empty(size, dtype=np.bool_) for _ in range(3))
    # the first step: a set map, or position 1, which sees a bit of 1,
    # leaves the bit a
    _draw_back(w, j, thr_sched, thr_pinned, m_buf, s_buf, a_buf, b_buf)
    bits = a_buf.copy()
    going = np.flatnonzero((a_buf != b_buf) & (j > 1))
    # a stable sort on a narrow dtype is a radix sort for n < 2**16
    walker = going[np.argsort(j[going].astype(np.min_scalar_type(len(thr_sched))), kind="stable")]
    del going
    # reorder in place: take copies through a buffer when out overlaps its
    # input, one array at a time
    w = np.take(w, walker, out=w[: walker.size])
    j = np.take(j, walker, out=j[: walker.size])
    j -= 1
    parity = b_buf[walker]
    res = np.empty(walker.size, dtype=np.bool_)
    live = np.ones(walker.size, dtype=np.bool_)
    left = walker.size
    while left:
        held = w.size
        m, s = m_buf[:held], s_buf[:held]
        a, b, done = a_buf[:held], b_buf[:held], d_buf[:held]
        _draw_back(w, j, thr_sched, thr_pinned, m, s, a, b)
        np.equal(a, b, out=done)
        # the walkers at position 1
        cut = int(np.searchsorted(j, 1, side="right"))
        done[:cut] = True
        done &= live
        resolved = np.count_nonzero(done)
        if resolved:
            a ^= parity
            np.copyto(res, a, where=done)
            live ^= done
            left -= resolved
        parity ^= b
        j -= 1
        if cut:
            bits[walker[:cut]] = res[:cut]
            w, j, parity, walker, res, live = (
                v[cut:] for v in (w, j, parity, walker, res, live)
            )
        if 4 * left <= 3 * (held - cut):
            # a resolved walker's last write is its own bit
            bits[walker] = res
            keep = np.flatnonzero(live)
            # w and j are views of the caller's arrays: refill them in place
            w, j = (np.take(v, keep, out=v[:left]) for v in (w, j))
            parity, walker, res = parity[keep], walker[keep], res[keep]
            live = np.ones(left, dtype=np.bool_)
    return bits


def simulate_counts(
    c: float, xs: np.ndarray, trials: int, seed: int
) -> tuple[np.ndarray, int]:
    """Detections per position and the count of wrong verdicts over
    ``trials`` trials, in chunks whose trials each walk back from their
    change point.  The walk names only the change point, so the count of
    wrong verdicts is 0 by construction."""
    c = float(c)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    n = xs.shape[0] + 1
    root = np.uint64(seed_root(seed))
    # the strength at change point k, at index k - 1; at k = n the infinite
    # strength passes the verdict test, so the bit alone decides
    verdict_x = np.append(xs, np.inf)
    # position j's threshold after a conclusive 0, at index j
    thr_sched = np.append(np.uint64(0), _int_threshold(1.0 - c * xs))
    thr_pinned = _int_threshold(1.0 - c * c)[()]
    s_buf = np.empty(min(trials, _CHUNK), dtype=np.uint64)
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, trials, _CHUNK):
        hi = min(lo + _CHUNK, trials)
        s = s_buf[: hi - lo]
        zt = _stream_keys(root, lo, hi, s)
        m = _mix64(zt, None, s)
        m >>= _R11
        u = m.astype(np.float64) * _INV53
        k = (u * n).astype(np.int64)
        np.minimum(k, n - 1, out=k)
        k += 1
        # the counter value at the change point, its draw and verdict test
        np.multiply(k.view(np.uint64), GAMMA, out=m)
        m += zt
        _mix64(m, zt, s)
        zt >>= _R11
        np.multiply(zt, _INV53, out=u)
        np.subtract(1.0, u, out=u)
        u *= verdict_x[k - 1]
        hit = u > c
        del zt, u
        walk = np.flatnonzero(hit & (k > 1))
        w, j = m[walk], k[walk] - 1
        del m
        hit[walk] = _bits_at_change(w, j, thr_sched, thr_pinned, s)
        del w, j
        k *= hit
        counts += np.bincount(k, minlength=n + 1)[1:]
    return counts, 0


def active_backend() -> str:
    """Always ``"numpy"``; ``perfbench/runner.py`` reads ``qcpd.active_backend()``."""
    return "numpy"
