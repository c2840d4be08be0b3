"""Optimal collective-measurement benchmark for change-point naming.

When all ``n`` particles can be measured together, the best zero-error
strategy assigns each hypothesis ``k`` (change at position ``k``) a
detection efficiency with a closed form in the overlap ``c``:

* below a critical overlap, ``gamma_n(k) = sum_j (-c)^|k-j|``, summing a
  geometric tent around ``k``;
* above it, that vector would turn negative at positions 2 and ``n-1``, and
  the optimum instead zeroes those two entries and redistributes the rest
  (the "primed" vector).

Feasibility of an efficiency vector is the positivity of the leftover
measurement operator, which for linearly independent pure states reduces
to ``G - diag(gammas)`` being positive semidefinite, where ``G`` is the
Gram matrix ``G[k][l] = c^|k-l|`` of the hypothesis states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Overlap, SingularityError, _check_n, _frozen_vector, _overlap

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
    n = _check_n(n)
    cv = _overlap(c)
    idx = np.arange(n)
    gram = np.power(cv, np.abs(idx[:, None] - idx[None, :]), dtype=np.float64)
    gram.setflags(write=False)
    return gram


def global_efficiencies(n: int, c: Overlap | float) -> np.ndarray:
    """Optimal collective efficiencies below the critical overlap, as a
    read-only float64 array.

    Closed form of the geometric tent sum:
    ``gamma_n(k) = (1 - c - (-c)^k - (-c)^{n-k+1}) / (1 + c)``.
    """
    n = _check_n(n)
    cv = _overlap(c)
    k = np.arange(1, n + 1)
    values = (1.0 - cv - np.power(-cv, k) - np.power(-cv, n - k + 1)) / (1.0 + cv)
    return _frozen_vector(values)


def global_success(n: int, c: Overlap | float) -> float:
    """Mean of :func:`global_efficiencies` in closed form:
    ``(1-c)/(1+c) + (2c/n) * (1-(-c)^n) / (1+c)^2``."""
    n = _check_n(n)
    cv = _overlap(c)
    return (1.0 - cv) / (1.0 + cv) + (2.0 * cv / n) * (1.0 - (-cv) ** n) / (
        1.0 + cv
    ) ** 2


def _primed_denominator(n: int, cv: float) -> float:
    den = 1.0 + (-cv) ** (n - 3)
    if den == 0.0:
        raise SingularityError(
            f"the corrected efficiencies are singular at n={n}, c={cv} "
            "(vanishing denominator 1 + (-c)^(n-3))"
        )
    return den


def primed_efficiencies(n: int, c: Overlap | float) -> np.ndarray:
    """Optimal efficiencies above the critical overlap, as a read-only
    float64 array.

    Subtracts from the plain vector the unique tent-shaped correction that
    zeroes positions 2 and n-1 (which the plain form would drive negative);
    at n = 3 the two positions coincide and the result is ``(1-c^2, 0, 1-c^2)``.
    """
    n = _check_n(n, 3)
    cv = _overlap(c)
    den = _primed_denominator(n, cv)
    plain = global_efficiencies(n, cv)
    gamma2 = plain[1]
    k = np.arange(1, n + 1)
    correction = (
        gamma2
        * (np.power(-cv, np.abs(k - 2)) + np.power(-cv, np.abs(n - k - 1)))
        / den
    )
    return _frozen_vector(plain - correction)


def primed_success(n: int, c: Overlap | float) -> float:
    """Mean of :func:`primed_efficiencies` in closed form."""
    n = _check_n(n, 3)
    cv = _overlap(c)
    den = _primed_denominator(n, cv)
    return global_success(n, cv) - (2.0 / n) * _gamma_two(n, cv) ** 2 / den


def _gamma_two(n: int, cv: float) -> float:
    """Entry 2 of :func:`global_efficiencies`, bit for bit, without the
    vector: the same order of operations, with both powers from one
    ``np.power`` over an array (scalar powers differ in the last bit in
    about 0.1% of cases)."""
    p = np.power(-cv, np.array([2, n - 1]))
    return float((1.0 - cv - p[0] - p[1]) / (1.0 + cv))


def critical_overlap(n: int) -> float | None:
    """Overlap at which the plain efficiency at position 2 crosses zero.

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

    def f(cv: float) -> float:
        return 1.0 - cv - cv * cv - (-cv) ** (n - 1)

    if f(4095 / 4096) > 0.0:
        return None
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimal_global(n: int, c: Overlap | float) -> tuple[np.ndarray, float]:
    """Optimal collective efficiencies and success for any overlap.

    Uses the plain closed form up to the critical overlap and the corrected
    one beyond it; the two branches agree at the crossing because the
    correction is proportional to the vanishing position-2 efficiency.
    Without a critical overlap (n = 2 and n = 4) the plain form is used
    throughout.
    """
    n = _check_n(n)
    cv = _overlap(c)
    threshold = critical_overlap(n)
    vector = primed_efficiencies if _is_primed(cv, threshold) else global_efficiencies
    return vector(n, cv), _optimal_success(n, cv, threshold)


def _is_primed(cv: float, threshold: float | None) -> bool:
    """Whether the corrected form applies at ``cv``, given
    ``critical_overlap(n)``: strictly above a threshold that exists."""
    return threshold is not None and cv > threshold


def _optimal_success(n: int, cv: float, threshold: float | None) -> float:
    """Success of :func:`optimal_global` given ``critical_overlap(n)``,
    found once per curve table, without building an efficiency vector."""
    return primed_success(n, cv) if _is_primed(cv, threshold) else global_success(n, cv)


def validate_unambiguous(gram: np.ndarray, gammas: np.ndarray) -> ValidityReport:
    """Zero-error feasibility of the efficiency array ``gammas`` against the
    ``(n, n)`` Gram array.

    The leftover-operator positivity condition reduces to
    ``G - diag(gammas)`` being positive semidefinite; the minimum
    eigenvalue comes from a symmetric eigensolver.  ``feasible`` also
    requires every efficiency to be a probability within :data:`PSD_TOL`.
    """
    n = len(gammas)
    if gram.shape != (n, n):
        raise ValueError(
            f"dimension mismatch: Gram has shape {gram.shape}, "
            f"vector has {n} entries"
        )
    if not np.array_equal(gram, gram.T):
        raise ValueError("Gram matrix must be symmetric")
    shifted = gram - np.diag(gammas)
    min_eig = float(np.linalg.eigvalsh(shifted)[0])
    range_ok = bool(np.all(gammas >= -PSD_TOL) and np.all(gammas <= 1.0 + PSD_TOL))
    return ValidityReport(
        feasible=min_eig >= -PSD_TOL and range_ok,
        min_eigenvalue=min_eig,
        gamma_range_ok=range_ok,
    )
