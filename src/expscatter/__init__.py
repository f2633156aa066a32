"""Quantum scattering off an exponential potential drop.

Closed-form transmission, reflection, phases, and wavefunctions for
V(x) = -v0 * exp(x/a), plus an ODE solver that cross-checks them and
handles rectangular models (the free particle among them) on the side.

The result records are ``typing.NamedTuple``s: they compare as tuples, and
``record._replace(field=value)`` gives a changed copy.  The ``verification``
and ``chart`` modules are not imported here: they load when ``expscatter
verify`` or ``expscatter plot`` runs, or when a caller imports them, so
``run_all``, ``format_report`` and ``CheckResult`` come from
``expscatter.verification``.
"""

from .errors import AccuracyError, DomainError
from .exp_barrier import (
    DimensionlessParams,
    ScatteringData,
    amplitudes,
    exact_wavefunction,
    incident_amplitude,
    reduce_params,
    transmission_reflection,
)
from .numeric_scatter import (
    BasisPair,
    NumericScatteringResult,
    integrate_ends,
    match,
    solve,
)
from .potentials import (
    DEFAULT_UNITS,
    PotentialModel,
    Units,
    evaluate,
    exponential,
    free,
    rectangular,
)
from .specfun import (
    BesselEval,
    bessel_j_imag_order,
    complex_gamma,
    hankel_imag_order,
)
from .waves import WaveSolution, angle_distance, principal_angle

__all__ = [
    "AccuracyError",
    "BasisPair",
    "BesselEval",
    "DEFAULT_UNITS",
    "DimensionlessParams",
    "DomainError",
    "NumericScatteringResult",
    "PotentialModel",
    "ScatteringData",
    "Units",
    "WaveSolution",
    "amplitudes",
    "angle_distance",
    "bessel_j_imag_order",
    "complex_gamma",
    "evaluate",
    "exact_wavefunction",
    "exponential",
    "free",
    "hankel_imag_order",
    "incident_amplitude",
    "integrate_ends",
    "match",
    "principal_angle",
    "rectangular",
    "reduce_params",
    "solve",
    "transmission_reflection",
]

__version__ = "0.1.0"
