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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Overlap, _check_n, _frozen_vector, _overlap

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
    return _frozen_vector(_tent_efficiencies(_check_n(n), _overlap(c)))


def _tent_efficiencies(n: int, cv):
    """The closed form of :func:`global_efficiencies` for one overlap
    ``cv``, or one vector per row of an ``(R, 1)`` column of overlaps."""
    powers = _tent_powers(n, cv)
    return (1.0 - cv - powers[..., 1:] - powers[..., :0:-1]) / (1.0 + cv)


def _tent_powers(n: int, cs) -> np.ndarray:
    """``np.power(-c, e)`` for ``e = 0..n`` at an overlap ``cs`` or along an
    ``(R, 1)`` column; past 64 exponents, 0.0 strictly between ``K`` and
    ``n + 1 - K``, ``K`` the first exponent whose power is below
    ``min(1 - c, 1/16) * 2**-56``, a quarter of half an ulp of ``1 - c``, in
    every row.  The powers cut round away in ``1 ± (·)`` and ``1 - c - (·)``,
    so this costs O(K) ``pow`` calls; the top ones stay, as ``1 - c - c^2``
    and the like can cancel."""
    top = 32
    while True:
        top = min(2 * top, n)
        head = np.power(-cs, np.arange(top + 1))
        if top == n:
            return head
        below = np.abs(head) < np.minimum(1.0 - cs, 0.0625) * 2.0**-56
        if below[..., -1].all():
            break
    cut = int(below.argmax(axis=-1).max(initial=0))
    head[..., cut + 1 : n + 1 - cut] = 0.0
    rest = max(n + 1 - cut, top + 1)  # the first exponent past the head's
    middle = np.zeros(head.shape[:-1] + (rest - top - 1,))
    return np.concatenate([head, middle, np.power(-cs, np.arange(rest, n + 1))], axis=-1)


def global_success(n: int, c: Overlap | float) -> float:
    """Mean of :func:`global_efficiencies` in closed form:
    ``(1-c)/(1+c) + (2c/n) * (1-(-c)^n) / (1+c)^2``."""
    n = _check_n(n)
    cv = _overlap(c)
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
    """
    gamma2 = _scaled_gamma_two(n, cv) / (1.0 + cv)
    k = np.arange(1, n + 1)
    gammas = _tent_efficiencies(n, cv) - (
        gamma2
        * (np.power(-cv, np.abs(k - 2)) + np.power(-cv, np.abs(n - k - 1)))
        / (1.0 + (-cv) ** (n - 3))
    )
    gammas[[1, n - 2]] = 0.0
    return _frozen_vector(gammas)


def _primed_success(n: int, cv: float) -> float:
    """Mean of :func:`_primed_efficiencies` in closed form, for the same
    arguments."""
    gamma2 = _scaled_gamma_two(n, cv) / (1.0 + cv)
    return global_success(n, cv) - (2.0 / n) * gamma2**2 / (1.0 + (-cv) ** (n - 3))


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
    return global_efficiencies(n, cv), global_success(n, cv)


def _optimal_success(n: int, cv: float) -> float:
    """Success of :func:`optimal_global` without building a vector."""
    return _primed_success(n, cv) if _scaled_gamma_two(n, cv) < 0.0 else global_success(n, cv)


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
