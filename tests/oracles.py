"""Oracles that only the tests use.

Each recomputes a quantity the package relies on by a second route, or
evaluates one of the paper's constants, so the tests can check the package
from outside it:

* :func:`coordinate_objective` restricts the success probability to one
  strength, ``alpha + beta*x + delta/x`` (:class:`RationalCoefficients`),
  the form the backward optimizer maximizes;
* :func:`global_efficiencies_direct` sums the collective efficiencies term
  by term;
* :func:`enumerate_strategy_nested` enumerates outcome paths one string at
  a time, multiplying out each path probability on its own, the route
  ``enumerate_strategy`` must match bit for bit;
* :func:`total_saturation_point` and :func:`sl_worst_case_gap` give the
  paper's saturation overlap (about 0.6889) and the saturated strategy's
  largest asymptotic shortfall (about 0.022 near c = 0.89).

Import them as ``from oracles import ...``, like the ``conftest`` helpers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from qcpd import kernels
from qcpd.core import (
    ENUMERATION_CAP,
    DetectionProfile,
    Overlap,
    StrengthSchedule,
    _check_n,
    _frozen_vector,
    _overlap,
)
from qcpd.global_bound import _bisect_root
from qcpd.online_opt import _push_head


@dataclass(frozen=True, slots=True)
class RationalCoefficients:
    """Coefficients of the one-strength restriction of the success
    probability, ``P(x) = alpha + beta*x + delta/x``, plus their residual
    against a direct evaluation at a fourth point (certifying the form)."""

    alpha: float
    beta: float
    delta: float
    residual: float

    def __call__(self, x: float) -> float:
        return self.alpha + self.beta * x + self.delta / x


def coordinate_objective(
    n: int, c: Overlap | float, schedule: StrengthSchedule, position: int
) -> RationalCoefficients:
    """Restriction of the success probability to one free strength.

    A forward pass gives the inconclusive probability ``pi`` entering
    ``position`` and the entries before it, a backward pass the tail sum
    ``A + B*pi'`` behind it, with ``pi' = (1-pi)*c*x + pi*c^2``; so the
    objective is exactly ``alpha + beta*x + delta/x``.  The residual is its
    gap to one direct profile evaluation at a fourth strength.
    """
    n = _check_n(n)
    cv = _overlap(c)
    if schedule.n != n or schedule.overlap.c != cv:
        raise ValueError("schedule does not match the given n and overlap")
    if not 1 <= position <= n - 1:
        raise ValueError(f"position must be in 1..{n - 1}, got {position}")
    xs = schedule.strengths.tolist()
    head, pi = 0.0, 0.0
    for x in xs[: position - 1]:
        head += (1.0 - pi) * (1.0 - cv / x)
        pi = (1.0 - pi) * (cv * x) + pi * (cv * cv)
    a, b = 1.0, -1.0
    for y in reversed(xs[position:]):
        a, b = _push_head(cv, y, a, b)
    alive = 1.0 - pi
    alpha = (head + alive + a + b * cv * cv * pi) / n
    beta = b * cv * alive / n
    delta = -cv * alive / n
    fourth = 1.5 if cv == 0.0 else 0.5 * (1.0 + 1.0 / cv)
    probe = np.array(xs)
    probe[position - 1] = fourth
    direct = float(np.mean(kernels.detection_profile(cv, probe)))
    residual = abs(alpha + beta * fourth + delta / fourth - direct)
    return RationalCoefficients(alpha=alpha, beta=beta, delta=delta, residual=residual)


def total_saturation_point() -> float:
    """Overlap beyond which the backward pass clips every strength but the
    last: the root in (0, 1) of ``c*(2-c)*(1-c^2) = c^2``, equivalently
    ``c^3 - 2c^2 - 2c + 2 = 0``."""
    return _bisect_root(lambda cv: ((cv - 2.0) * cv - 2.0) * cv + 2.0, 0.0, 1.0)


def sl_worst_case_gap() -> tuple[float, float]:
    """Largest asymptotic shortfall of the saturated strategy against the
    best online value ``(1-c)/(1+c)``, and the overlap attaining it.

    Scanned over the saturated regime ``c >= (sqrt(5)-1)/2`` — the overlaps
    where the constant-strength default clips to ``1/c`` and so becomes the
    saturated chain.  The gap vanishes at the regime's left
    edge and again at overlap 1.
    """

    def gap(cs: np.ndarray) -> np.ndarray:
        return (1.0 - cs) / (1.0 + cs) - (1.0 - cs * cs) ** 2 / (2.0 - cs * cs)

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    coarse = np.linspace(golden, 1.0 - 1e-4, 10_001)
    c0 = coarse[int(np.argmax(gap(coarse)))]
    fine = np.linspace(c0 - 2e-4, c0 + 2e-4, 40_001)
    vals = gap(fine)
    i = int(np.argmax(vals))
    return float(vals[i]), float(fine[i])


def global_efficiencies_direct(n: int, c: Overlap | float) -> np.ndarray:
    """Efficiencies by the literal sum ``sum_j (-c)^|k-j|`` (O(n^2)).

    Definitional form; :func:`global_efficiencies` computes the same values
    through the closed form, and the two agree to machine precision.
    """
    n = _check_n(n)
    cv = _overlap(c)
    idx = np.arange(n)
    terms = np.power(-cv, np.abs(idx[:, None] - idx[None, :]), dtype=np.float64)
    return _frozen_vector(terms.sum(axis=1))


def enumerate_strategy_nested(schedule: StrengthSchedule) -> DetectionProfile:
    """Detection profile by explicit enumeration of outcome paths.

    Walks every conclusive-default/inconclusive string the positions before
    the change can produce, multiplies out each path probability on its
    own, and sums those ending in the naming pattern.  O(n^2 * 2^n) —
    refuses streams longer than :data:`ENUMERATION_CAP`.
    """
    if schedule.n > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration is exponential; n={schedule.n} exceeds the cap of "
            f"{ENUMERATION_CAP}"
        )
    c = schedule.overlap.c
    xs = schedule.strengths.tolist()
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
    return DetectionProfile(values)
