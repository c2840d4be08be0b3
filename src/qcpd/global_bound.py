"""Optimal collective-measurement benchmark for change-point naming.

When all ``n`` particles can be measured together, the best zero-error
strategy assigns each hypothesis ``k`` (change at position ``k``) a
detection efficiency with a closed form in the overlap ``c``:

* while its entry at position 2 is non-negative, the plain vector
  ``gamma_n(k) = sum_j (-c)^|k-j|``, summing a geometric tent around ``k``;
* where that entry (and, by symmetry, entry ``n-1``) would be negative,
  the optimum zeroes both and redistributes the rest (the "primed" vector).

Feasibility of an efficiency vector is the positivity of the leftover
measurement operator, which for linearly independent pure states reduces
to ``G - diag(gammas)`` being positive semidefinite, where ``G`` is the
Gram matrix ``G[k][l] = c^|k-l|`` of the hypothesis states.

The closed forms, these vectors and the online strengths
``(1+c)/(1-(-c)^(n-j))``, take only the ``K`` powers of ``-c`` at each
end of the chain that can still move them (:func:`_end_powers`) and are
their constant between, so a chain costs O(K) ``pow`` calls.  Every power
of ``-c`` comes from libm's ``pow``, the routine behind Python's ``**``
and ``np.float_power``; numpy's own ``power`` takes a slower loop for a
negative base.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Overlap, _check_n, _overlap

#: minimum-eigenvalue tolerance: optimal vectors sit exactly on the
#: feasibility boundary, so a strictly-zero test would be meaningless
PSD_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class ValidityReport:
    """Outcome of the zero-error feasibility check for one vector."""

    feasible: bool
    min_eigenvalue: float
    gamma_range_ok: bool


def build_gram(n: int, c: Overlap | float) -> np.ndarray:
    """Gram matrix ``G[k][l] = c^|k-l|`` (1-based hypothesis indices), as a
    read-only ``(n, n)`` float64 array."""
    gram = _gram_powers(_check_n(n), _overlap(c))
    gram.setflags(write=False)
    return gram


def _gram_powers(n: int, cv):
    """``c^|k-l|`` over the ``(n, n)`` index grid for one overlap ``cv``,
    or one matrix per row of an ``(R, 1, 1)`` column of overlaps."""
    idx = np.arange(n)
    return np.power(cv, np.abs(idx[:, None] - idx[None, :]), dtype=np.float64)


def global_efficiencies(n: int, c: Overlap | float) -> np.ndarray:
    """Optimal collective efficiencies below the critical overlap, as a
    read-only float64 array.

    Closed form of the geometric tent sum:
    ``gamma_n(k) = (1 - c - (-c)^k - (-c)^{n-k+1}) / (1 + c)``.
    """
    n, cv = _check_n(n), _overlap(c)
    gammas = _tent_efficiencies(cv, _end_powers(n, cv))
    gammas.setflags(write=False)
    return gammas


def _end_widths(n: int, cs: np.ndarray) -> np.ndarray:
    """Per overlap of ``cs``, the ``K`` of :func:`_end_powers`: the first
    exponent past ``log(floor) / log(c)``, for the floor
    ``min(1 - c, 1/16) * 2**-56``, a quarter of half an ulp of ``1 - c``,
    or ``(n + 1) // 2``, which keeps every power, where that is smaller.
    Rounding, of that crossing and of the powers, moves the first
    ``(-c) ** e`` below the floor at most one from ``K``, so every power
    past ``K`` is below it."""
    floor = np.minimum(1.0 - cs, 0.0625) * 2.0**-56
    with np.errstate(divide="ignore"):  # c = 0, and c = 1, whose -inf keeps every power
        crossing = np.abs(np.log(floor) / np.log(cs))
    return np.minimum(np.floor(crossing) + 1.0, (n + 1) // 2).astype(np.int64)


def _end_powers(n: int, cs) -> tuple[int, np.ndarray]:
    """``(n, powers)``: the powers of ``-c`` that can still move a closed
    form of a chain of ``n``, at an overlap ``cs`` or along an ``(R, 1)``
    column, in one masked ``np.float_power`` call: libm's ``pow``, bit for
    bit Python's ``(-c) ** e``.  ``powers[0, r, i]`` is
    ``(-c)^(1+i)`` and ``powers[1, r, i]`` is ``(-c)^(n-i)`` for ``i`` below
    row ``r``'s ``K`` (:func:`_end_widths`), else 0.0; ``W``, the last
    axis, is the largest ``K``.  The powers between round away in
    ``1 ± (·)`` and ``1 - c - (·)``; the top ones stay, as ``1 - c - c^2``
    and the like can cancel.  Where ``K = (n + 1) // 2`` the two ends cover
    every exponent, the middle one twice for odd ``n``."""
    col = np.ravel(cs)
    width = _end_widths(n, col)[:, None]
    at = np.arange(width.max(initial=1))
    powers = np.zeros((2, len(col), len(at)))
    np.float_power(-col[:, None], np.abs(np.add.outer((1, -n), at))[:, None], out=powers, where=at < width)
    return n, powers


def _tent_efficiencies(cs, ends: tuple[int, np.ndarray]) -> np.ndarray:
    """The closed form of :func:`global_efficiencies` from
    ``ends = _end_powers(n, cs)``, for one overlap ``cs``, or one vector per
    row of an ``(R, 1)`` column of overlaps: the constant
    ``(1 - c)/(1 + c)`` between the end positions."""
    n, powers = ends
    out = np.empty(np.shape(cs)[:-1] + (n,))
    top, low, high = powers.shape[2], 1.0 - cs, 1.0 + cs
    out[..., top : n - top] = low / high
    # positions k and n + 1 - k both read the powers at k and n + 1 - k
    both = (low - powers - powers[::-1]) / high
    out[..., :top], out[..., n - top :] = both[0], both[1, :, ::-1]
    return out


def global_success(n: int, c: Overlap | float) -> float:
    """Mean of :func:`global_efficiencies` in closed form:
    ``(1-c)/(1+c) + (2c/n) * (1-(-c)^n) / (1+c)^2``."""
    return _global_success(_check_n(n), _overlap(c))


def _global_success(n: int, cv: float) -> float:
    """:func:`global_success` for a checked ``n`` and overlap ``cv``."""
    return (1.0 - cv) / (1.0 + cv) + (2.0 * cv / n) * (1.0 - (-cv) ** n) / (
        1.0 + cv
    ) ** 2


def _primed_efficiencies(n: int, cv: float) -> np.ndarray:
    """Optimal efficiencies above the critical overlap, as a read-only
    float64 array, for ``n >= 3`` and an overlap ``cv`` where
    :func:`_scaled_gamma_two` is negative.

    Subtracts from the plain vector the unique tent-shaped correction that
    zeroes positions 2 and n-1, which the plain form would drive negative,
    and stores both as exact zeros; at n = 3 they coincide: ``(1-c^2, 0, 1-c^2)``.
    The denominator ``1 + (-c)^(n-3)`` vanishes only at c = 1 with n even,
    where :func:`_scaled_gamma_two` is exactly 0 and the plain form applies.
    The correction ``(-c)^|k-2| + (-c)^|n-k-1|`` keeps only the exponents
    of the plain vector's end powers, so it is 0.0 more than two positions
    past either end window, where it rounds away.
    """
    gamma2 = _scaled_gamma_two(n, cv) / (1.0 + cv)
    ends = _end_powers(n, cv)
    gammas, width = _tent_efficiencies(cv, ends), ends[1].shape[2]
    k = np.concatenate((np.arange(1, min(width + 2, n) + 1), np.arange(max(n - 1 - width, 1), n + 1)))
    e = np.abs([k - 2, n - 1 - k])
    # the end powers' exponents, 0.0 for every exponent between the ends
    terms = np.float_power(-cv, e, out=np.zeros(e.shape), where=(e <= width) | (e > n - width))
    gammas[k - 1] -= gamma2 * (terms[0] + terms[1]) / (1.0 + (-cv) ** (n - 3))
    gammas[[1, n - 2]] = 0.0
    gammas.setflags(write=False)
    return gammas


def _primed_success(n: int, cv: float) -> float:
    """Mean of :func:`_primed_efficiencies` in closed form, for the same
    arguments."""
    gamma2 = _scaled_gamma_two(n, cv) / (1.0 + cv)
    return _global_success(n, cv) - (2.0 / n) * gamma2**2 / (1.0 + (-cv) ** (n - 3))


def _scaled_gamma_two(n: int, cv: float) -> float:
    """``(1 + c)`` times entry 2 of :func:`global_efficiencies` as a scalar
    float, whose sign picks the regime: negative where the corrected form
    applies.  Divided by ``1 + c`` it is the one position-2 efficiency the
    corrected form subtracts; it may differ from the vector's entry 2 in
    the last bit.  Even n give exactly 0 at c = 1."""
    return 1.0 - cv - cv * cv - (-cv) ** (n - 1)


def critical_overlap(n: int) -> float | None:
    """Overlap at which the plain efficiency at position 2 crosses zero:
    the root of :func:`_scaled_gamma_two`, whose sign picks the regime.

    Root in (0, 1) of ``f(c) = 1 - c - c^2 - (-c)^{n-1}`` by 40 bisection
    steps of [0, 1]: a midpoint where ``f > 0`` becomes the lower end, one
    where ``f < 0`` the upper end, one where ``f == 0`` is the root, and
    after the last step the bracket's midpoint is.  ``f`` is positive on
    (0, 1/2] and, past its one sign change, stays non-positive up to
    4095/4096, so every bracket holds the root; each is dyadic, so the
    result is exact to 2**-41.  ``f(1)`` is never evaluated: even n have
    ``f(1) == 0`` exactly, which is not an interior root.

    Returns ``None`` when ``f(4095/4096) > 0``, that is when ``f`` has no
    root strictly inside (0, 1) and the plain form applies for every
    overlap: n = 2, where ``f = 1 - c^2``, and n = 4, where it factors as
    ``(1-c)^2 (1+c)``.  The root is exactly 1/2 for n = 3
    (``f = (1-2c)(1+c)``) and approaches ``(sqrt(5)-1)/2`` as n grows.
    """
    n = _check_n(n)
    if _scaled_gamma_two(n, 4095 / 4096) > 0.0:
        return None
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        fmid = _scaled_gamma_two(n, mid)
        if fmid == 0.0:
            return mid
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimal_global(n: int, c: Overlap | float) -> tuple[np.ndarray, float]:
    """Optimal collective efficiencies and success for any overlap.

    Uses the corrected form where the plain efficiency at position 2 would
    be negative and the plain form elsewhere: throughout for n = 2 and
    n = 4, and at c = 1 for even n, whose all-zero vector says identical
    states admit no conclusive outcome.  The two forms agree at the
    crossing: the correction is proportional to the vanishing efficiency.
    """
    n = _check_n(n)
    cv = _overlap(c)
    if _scaled_gamma_two(n, cv) < 0.0:
        return _primed_efficiencies(n, cv), _primed_success(n, cv)
    return global_efficiencies(n, cv), _global_success(n, cv)


def _optimal_success(n: int, cv: float) -> float:
    """Success of :func:`optimal_global` without building a vector."""
    return _primed_success(n, cv) if _scaled_gamma_two(n, cv) < 0.0 else _global_success(n, cv)


def validate_unambiguous(gram: np.ndarray, gammas: np.ndarray) -> ValidityReport:
    """Zero-error feasibility of the efficiency array ``gammas`` against the
    ``(n, n)`` Gram array.

    The leftover-operator positivity condition reduces to
    ``G - diag(gammas)`` being positive semidefinite; the minimum
    eigenvalue comes from a symmetric eigensolver.  ``feasible`` also
    requires every efficiency to be a probability within :data:`PSD_TOL`.
    The one-matrix call of :func:`_unambiguous_spectra`.
    """
    min_eigs, range_ok = _unambiguous_spectra(
        np.asarray(gram)[None], np.asarray(gammas)[None]
    )
    min_eig, ok = float(min_eigs[0]), bool(range_ok[0])
    return ValidityReport(
        feasible=min_eig >= -PSD_TOL and ok, min_eigenvalue=min_eig, gamma_range_ok=ok
    )


def _unambiguous_spectra(
    grams: np.ndarray, gammas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum eigenvalue of ``G - diag(gammas)`` and whether every
    efficiency is a probability within :data:`PSD_TOL`, per row of a stack:
    ``(R, n, n)`` Gram arrays against ``(R, n)`` efficiencies, with one
    batched symmetric eigensolve.  Raises ``ValueError`` unless the shapes
    match and every Gram array is symmetric (the eigensolver reads one
    triangle only).
    """
    if gammas.ndim != 2 or grams.shape != gammas.shape + gammas.shape[-1:]:
        raise ValueError(
            f"dimension mismatch: Gram stack has shape {grams.shape}, "
            f"efficiencies have shape {gammas.shape}"
        )
    if not np.array_equal(grams, grams.swapaxes(1, 2)):
        raise ValueError("Gram matrix must be symmetric")
    shifted = grams.copy()
    diagonal = np.arange(gammas.shape[1])
    shifted[:, diagonal, diagonal] -= gammas
    return np.linalg.eigvalsh(shifted)[:, 0], _in_range(gammas)


def _in_range(gammas: np.ndarray) -> np.ndarray:
    """Whether every efficiency in each row of ``gammas`` is a probability
    within :data:`PSD_TOL`."""
    return ((gammas >= -PSD_TOL) & (gammas <= 1.0 + PSD_TOL)).all(axis=-1)
