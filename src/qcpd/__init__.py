"""Quantum change-point detection with unambiguous local measurements.

Exact efficiency vectors and success probabilities for the globally optimal
protocol, construction and optimization of online (sequential) measurement
schedules, and seeded Monte Carlo simulation with vectorised numpy kernels.
"""

from .errors import (
    InvalidMeasurementError,
    NumericDomainError,
    OutOfValidityError,
    QcpdError,
    SingularityError,
)
from .core import (
    DetectionProfile,
    Overlap,
    StrengthSchedule,
    check_strength,
    enumerate_strategy,
    evaluate_strategy,
)
from .global_bound import (
    EfficiencyVector,
    GramMatrix,
    Regime,
    ValidityReport,
    build_gram,
    critical_overlap,
    global_efficiencies,
    global_efficiencies_direct,
    global_success,
    optimal_global,
    primed_efficiencies,
    primed_success,
    validate_unambiguous,
)
from .online_opt import (
    Method,
    OnlineSolution,
    RationalCoefficients,
    best_online,
    closed_form_strengths,
    coordinate_objective,
    fl_solution,
    fl_success_asymptotic,
    fl_success_exact,
    optimize_strengths,
    recursive_strengths,
    sl_solution,
    sl_success_asymptotic,
    sl_worst_case_gap,
    total_saturation_point,
)
from .montecarlo import SimulationReport, TrialResult, run_experiment, simulate_trial
from .kernels import active_backend

__version__ = "0.1.0"

__all__ = [
    "DetectionProfile",
    "EfficiencyVector",
    "GramMatrix",
    "InvalidMeasurementError",
    "Method",
    "NumericDomainError",
    "OnlineSolution",
    "OutOfValidityError",
    "Overlap",
    "QcpdError",
    "RationalCoefficients",
    "Regime",
    "SimulationReport",
    "SingularityError",
    "StrengthSchedule",
    "TrialResult",
    "ValidityReport",
    "active_backend",
    "best_online",
    "build_gram",
    "check_strength",
    "closed_form_strengths",
    "coordinate_objective",
    "critical_overlap",
    "enumerate_strategy",
    "evaluate_strategy",
    "fl_solution",
    "fl_success_asymptotic",
    "fl_success_exact",
    "global_efficiencies",
    "global_efficiencies_direct",
    "global_success",
    "optimal_global",
    "optimize_strengths",
    "primed_efficiencies",
    "primed_success",
    "recursive_strengths",
    "run_experiment",
    "simulate_trial",
    "sl_solution",
    "sl_success_asymptotic",
    "sl_worst_case_gap",
    "total_saturation_point",
    "validate_unambiguous",
]
