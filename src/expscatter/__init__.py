"""Quantum scattering off an exponential potential drop.

Closed-form transmission, reflection, phases, and wavefunctions for
V(x) = -v0 * exp(x/a), plus an independent ODE solver that cross-checks
them and handles rectangular and free models on the side.
"""

from .errors import AccuracyError, DegenerateOrderError, DomainError, SeriesRangeError
from .exp_barrier import (
    DimensionlessParams,
    FluxTriple,
    PhysicalParams,
    ScatteringData,
    amplitudes,
    exact_wavefunction,
    fluxes,
    incident_amplitude,
    phase_shifts,
    reduce_params,
    transmission_reflection,
)
from .numeric_scatter import (
    DEFAULT_UNITS,
    BasisPair,
    NumericScatteringResult,
    SolverConfig,
    default_config,
    integrate_basis,
    match,
    scattering_wavefunction,
    solve,
)
from .potentials import (
    PotentialModel,
    evaluate,
    exponential,
    free,
    rectangular,
)
from .specfun import (
    BesselEval,
    bessel_j_imag_order,
    complex_gamma,
    hankel_asymptotic,
    hankel_imag_order,
)
from .verification import CheckResult, format_report, run_all
from .waves import WaveSolution, angle_distance, principal_angle

__all__ = [
    "AccuracyError",
    "BasisPair",
    "BesselEval",
    "CheckResult",
    "DEFAULT_UNITS",
    "DegenerateOrderError",
    "DimensionlessParams",
    "DomainError",
    "FluxTriple",
    "NumericScatteringResult",
    "PhysicalParams",
    "PotentialModel",
    "ScatteringData",
    "SeriesRangeError",
    "SolverConfig",
    "WaveSolution",
    "amplitudes",
    "angle_distance",
    "bessel_j_imag_order",
    "complex_gamma",
    "default_config",
    "evaluate",
    "exact_wavefunction",
    "exponential",
    "fluxes",
    "format_report",
    "free",
    "hankel_asymptotic",
    "hankel_imag_order",
    "incident_amplitude",
    "integrate_basis",
    "match",
    "phase_shifts",
    "principal_angle",
    "rectangular",
    "reduce_params",
    "run_all",
    "scattering_wavefunction",
    "solve",
    "transmission_reflection",
]

__version__ = "0.1.0"
