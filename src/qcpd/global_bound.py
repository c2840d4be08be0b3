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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Overlap, _check_n, _overlap
from .errors import SingularityError
from .numutil import bisect_root

__all__ = [
    "Regime",
    "EfficiencyVector",
    "GramMatrix",
    "ValidityReport",
    "global_efficiencies",
    "global_efficiencies_direct",
    "global_success",
    "primed_efficiencies",
    "primed_success",
    "critical_overlap",
    "optimal_global",
    "build_gram",
    "validate_unambiguous",
]

#: minimum-eigenvalue tolerance: optimal vectors sit exactly on the
#: feasibility boundary, so a strictly-zero test would be meaningless
PSD_TOL = 1e-9


class Regime(Enum):
    """Which closed form an efficiency vector came from."""

    PLAIN = "plain"
    PRIMED = "primed"


@dataclass(frozen=True, slots=True)
class EfficiencyVector:
    """Per-hypothesis efficiencies of a collective strategy."""

    n: int
    values: tuple[float, ...]
    overlap: Overlap
    regime: Regime

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != self.n:
            raise ValueError(f"expected {self.n} entries, got {len(self.values)}")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("efficiencies must be finite")

    def mean(self) -> float:
        return float(np.mean(np.asarray(self.values)))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True, slots=True)
class GramMatrix:
    """Gram matrix of the n hypothesis states: entries ``c^|k-l|``."""

    n: int
    overlap: Overlap
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (self.n, self.n):
            raise ValueError(
                f"expected a {self.n}x{self.n} matrix, got {self.entries.shape}"
            )
        self.entries.setflags(write=False)


@dataclass(frozen=True, slots=True)
class ValidityReport:
    """Outcome of the zero-error feasibility check for one vector."""

    feasible: bool
    min_eigenvalue: float
    gamma_range_ok: bool
    tol: float


def build_gram(n: int, c: Overlap | float) -> GramMatrix:
    """Gram matrix ``G[k][l] = c^|k-l|`` (1-based hypothesis indices)."""
    n = _check_n(n)
    cv = _overlap(c)
    idx = np.arange(n)
    entries = np.power(cv, np.abs(idx[:, None] - idx[None, :]), dtype=np.float64)
    return GramMatrix(n=n, overlap=Overlap(cv), entries=entries)


def global_efficiencies_direct(n: int, c: Overlap | float) -> EfficiencyVector:
    """Efficiencies by the literal sum ``sum_j (-c)^|k-j|`` (O(n^2)).

    Definitional form; :func:`global_efficiencies` computes the same values
    through the closed form, and the two agree to machine precision.
    """
    n = _check_n(n)
    cv = _overlap(c)
    idx = np.arange(n)
    terms = np.power(-cv, np.abs(idx[:, None] - idx[None, :]), dtype=np.float64)
    return EfficiencyVector(
        n=n, values=tuple(terms.sum(axis=1)), overlap=Overlap(cv), regime=Regime.PLAIN
    )


def global_efficiencies(n: int, c: Overlap | float) -> EfficiencyVector:
    """Optimal collective efficiencies below the critical overlap.

    Closed form of the geometric tent sum:
    ``gamma_n(k) = (1 - c - (-c)^k - (-c)^{n-k+1}) / (1 + c)``.
    """
    n = _check_n(n)
    cv = _overlap(c)
    k = np.arange(1, n + 1)
    values = (1.0 - cv - np.power(-cv, k) - np.power(-cv, n - k + 1)) / (1.0 + cv)
    return EfficiencyVector(
        n=n, values=tuple(values), overlap=Overlap(cv), regime=Regime.PLAIN
    )


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


def primed_efficiencies(n: int, c: Overlap | float) -> EfficiencyVector:
    """Optimal efficiencies above the critical overlap.

    Subtracts from the plain vector the unique tent-shaped correction that
    zeroes positions 2 and n-1 (which the plain form would drive negative).
    """
    n = _check_n(n, 4)
    cv = _overlap(c)
    den = _primed_denominator(n, cv)
    plain = global_efficiencies(n, cv).as_array()
    gamma2 = plain[1]
    k = np.arange(1, n + 1)
    correction = (
        gamma2
        * (np.power(-cv, np.abs(k - 2)) + np.power(-cv, np.abs(n - k - 1)))
        / den
    )
    return EfficiencyVector(
        n=n,
        values=tuple(plain - correction),
        overlap=Overlap(cv),
        regime=Regime.PRIMED,
    )


def primed_success(n: int, c: Overlap | float) -> float:
    """Mean of :func:`primed_efficiencies` in closed form."""
    n = _check_n(n, 4)
    cv = _overlap(c)
    den = _primed_denominator(n, cv)
    gamma2 = global_efficiencies(n, cv).values[1]
    return global_success(n, cv) - (2.0 / n) * gamma2**2 / den


def critical_overlap(n: int, tol: float = 1e-12) -> float | None:
    """Overlap at which the plain efficiency at position 2 crosses zero.

    Root in (0, 1) of ``1 - c - c^2 - (-c)^{n-1} = 0``, located by a sign
    scan plus bisection.  Returns ``None`` when the polynomial has no root
    strictly inside (0, 1) (e.g. n=4, where it factors as (1-c)^2 (1+c)),
    in which case the plain form applies for every overlap.  Approaches
    ``(sqrt(5)-1)/2`` as n grows.
    """
    n = _check_n(n, 4)

    def f(cv: float) -> float:
        return 1.0 - cv - cv * cv - (-cv) ** (n - 1)

    # scan strictly inside (0, 1): even n have f(1) == 0 exactly, which is
    # not an interior root (n=4 touches zero only at the endpoint)
    grid = np.linspace(0.0, 1.0, 4097)[1:-1]
    vals = np.array([f(g) for g in grid])
    signs = np.sign(vals)
    crossings = np.nonzero(signs[:-1] * signs[1:] <= 0)[0]
    if len(crossings) == 0:
        return None
    i = int(crossings[0])
    return bisect_root(f, float(grid[i]), float(grid[i + 1]), tol=tol)


def optimal_global(n: int, c: Overlap | float) -> tuple[EfficiencyVector, float]:
    """Optimal collective efficiencies and success for any overlap.

    Uses the plain closed form up to the critical overlap and the corrected
    one beyond it; the two branches agree at the crossing because the
    correction is proportional to the vanishing position-2 efficiency.
    For n < 4 no crossing exists in the model's validity range and the
    plain form is used throughout.
    """
    n = _check_n(n)
    cv = _overlap(c)
    threshold = critical_overlap(n) if n >= 4 else None
    if threshold is None or cv <= threshold:
        return global_efficiencies(n, cv), global_success(n, cv)
    return primed_efficiencies(n, cv), primed_success(n, cv)


def validate_unambiguous(
    gram: GramMatrix, efficiencies: EfficiencyVector, tol: float = PSD_TOL
) -> ValidityReport:
    """Zero-error feasibility of an efficiency vector.

    The leftover-operator positivity condition reduces to
    ``G - diag(gammas)`` being positive semidefinite; the minimum
    eigenvalue comes from a symmetric eigensolver.  ``feasible`` also
    requires every efficiency to be a probability within ``tol``.
    """
    if gram.n != efficiencies.n:
        raise ValueError(
            f"dimension mismatch: Gram is {gram.n}x{gram.n}, "
            f"vector has {efficiencies.n} entries"
        )
    m = gram.entries
    if not np.array_equal(m, m.T):
        raise ValueError("Gram matrix must be symmetric")
    values = efficiencies.as_array()
    shifted = m - np.diag(values)
    min_eig = float(np.linalg.eigvalsh(shifted)[0])
    range_ok = bool(np.all(values >= -tol) and np.all(values <= 1.0 + tol))
    return ValidityReport(
        feasible=min_eig >= -tol and range_ok,
        min_eigenvalue=min_eig,
        gamma_range_ok=range_ok,
        tol=tol,
    )
