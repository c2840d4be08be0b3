"""Quantum change-point detection with unambiguous local measurements.

Exact efficiency vectors and success probabilities for the globally optimal
protocol, construction and optimization of online (sequential) measurement
schedules, and seeded Monte Carlo simulation with vectorised numpy kernels.
"""

from .core import (
    InvalidMeasurementError,
    OutOfValidityError,
    Overlap,
    StrengthSchedule,
    check_strength,
    enumerate_strategy,
    evaluate_strategy,
)
from .global_bound import (
    build_gram,
    critical_overlap,
    global_efficiencies,
    global_success,
    optimal_global,
    validate_unambiguous,
)
from .online_opt import (
    closed_form_strengths,
    fl_solution,
    fl_success_asymptotic,
    optimize_strengths,
    recursive_strengths,
    sl_solution,
    sl_success_asymptotic,
)
from .montecarlo import run_experiment
from .kernels import active_backend  # read as qcpd.active_backend() by perfbench/runner.py

__version__ = "0.1.0"

__all__ = [
    "InvalidMeasurementError",
    "OutOfValidityError",
    "Overlap",
    "StrengthSchedule",
    "build_gram",
    "check_strength",
    "closed_form_strengths",
    "critical_overlap",
    "enumerate_strategy",
    "evaluate_strategy",
    "fl_solution",
    "fl_success_asymptotic",
    "global_efficiencies",
    "global_success",
    "optimal_global",
    "optimize_strengths",
    "recursive_strengths",
    "run_experiment",
    "sl_solution",
    "sl_success_asymptotic",
    "validate_unambiguous",
]
