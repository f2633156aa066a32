"""Closed-form scattering observables for the barrier V(x) = -v0 exp(x/a).

The substitution z = p exp(x/(2a)) turns the stationary Schroedinger
equation into Bessel's equation of order +-iq, with

    p = sqrt(8 m v0 a^2) / hbar,   q = 2 k a,   k = sqrt(2 m E) / hbar.

Everything here works at the dimensionless (p, q) level; reduce_params is
the only bridge from the model and its units.  reduce_params,
transmission_reflection and amplitudes also take an array (energies or q)
and return columns, as an analytic sweep uses them, and amplitudes an
array p as well; scalar calls keep CPython's arithmetic, array entries may
differ from them in the last digit.
Transmission is a function of q alone:

    T = 1 - exp(-2 pi q),   R = exp(-2 pi q)

and both are always obtained from flux ratios, never from |t|^2: the two
asymptotic regions carry different waveforms (plane wave on the left, an
exponentially chirped travelling wave on the right), so amplitude moduli
are convention-laden but fluxes are not.

Conventions fixed throughout the package: time factor exp(-iEt/hbar), so
exp(+ikx) travels rightward; incident amplitude on the left multiplies
exp(+ikx), on the right exp(-ikx); the right-side travelling envelope is
exp(-x/(4a)) exp(-+i z).  Several printed forms of these amplitudes in
circulation disagree by constant factors; the ones below were validated
against high-precision series evaluations and the independent ODE solver
before being frozen.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence, Union

import numpy as np

from . import potentials, specfun
from .errors import AccuracyError, DomainError
from .potentials import DEFAULT_UNITS, Exponential, PotentialModel, Units
from .waves import WaveSolution, principal_angle

_QUARTER_PI = math.pi / 4.0


class DimensionlessParams(NamedTuple):
    """p and q = 2 k a; q is an array when reduce_params was given an
    array of energies."""

    p: float
    q: float


class ScatteringData(NamedTuple):
    """Amplitudes, coefficients, and phases for one incidence side.

    t_coeff and r_coeff come from flux ratios; r_amp and t_amp are the
    complex amplitudes; phi = Arg r_amp and theta = Arg t_amp reduced to
    (-pi, pi].  The incidence side is the caller's argument.  Every field
    is an array when amplitudes was given an array q.
    """

    t_coeff: float
    r_coeff: float
    r_amp: complex
    t_amp: complex
    phi: float
    theta: float


def reduce_params(
    model: PotentialModel, energy, units: Units = DEFAULT_UNITS
) -> DimensionlessParams:
    """An exponential model, its units and energy to (p, q).

    An array of energies gives an array q (np.sqrt rounds like math.sqrt,
    so each entry has the bits of the scalar call).  p = sqrt(8 m v0) a /
    hbar is refused where it overflows or vanishes.
    """
    _require(energy, _finite_positive, "energy must be finite and > 0, got {!r}")
    p = math.sqrt(8.0 * units.mass * model.v0) * model.a / units.hbar
    if not 0.0 < p < math.inf:
        raise DomainError(f"p = sqrt(8 m v0 e^(-b/a)) a / hbar = {p!r} is out of range; it must "
                          "be a finite float > 0, so rescale v0, a, mass or hbar")
    sqrt = np.sqrt if isinstance(energy, np.ndarray) else math.sqrt
    with np.errstate(over="ignore"):  # k or q overflowing to inf is refused later
        k = sqrt(2.0 * units.mass * energy) / units.hbar
        q = 2.0 * k * model.a
    return DimensionlessParams(p=p, q=q)


def transmission_reflection(q):
    """(T, R) = (1 - e^{-2 pi q}, e^{-2 pi q}); exact unitarity via expm1.

    q may be an array; numpy's exp and expm1 then stand in for math's and
    may differ from the scalar result in the last bit.
    """
    _require(q, lambda v: (v >= 0) & _finite(v), "q must be finite and >= 0, got {!r}")
    lib = np if isinstance(q, np.ndarray) else math
    r = lib.exp(-2.0 * math.pi * q)
    t = -lib.expm1(-2.0 * math.pi * q)
    return t, r


def amplitudes(p: float, q, side: str = "left") -> ScatteringData:
    """Complex r and t plus flux-ratio T, R and the phases phi, theta.

    Left incidence:

        r = -e^{-pi q} (p/2)^{-2iq} Gamma(1+iq)/Gamma(1-iq)
        t = sqrt(2/(pi p)) e^{-i pi/4} e^{-pi q/2} (p/2)^{-iq}
            * sinh(pi q) Gamma(1+iq)

    Right incidence:

        r = -i e^{-pi q}
        t = 2 sqrt(pi p/2) e^{-i pi/4} e^{-pi q/2} (p/2)^{-iq} / Gamma(1-iq)

    |t|^2 differs from T on purpose (unequal asymptotic waveforms); |r|^2
    equals R on both sides.  The Gamma ratio of the left r is formed first:
    |Gamma(1+iq)|^2 = pi q / sinh(pi q), so e^{-pi q} Gamma(1+iq) loses
    digits past q ~ 153 and underflows to 0 past q ~ 159.  q may be an
    array (a sweep's q column), and so may p, broadcast against q (verify's
    (p, q) grids): each field then takes the shape of what it depends on,
    T, R and the right side's r and phi q's, the rest p and q broadcast,
    and agrees with the scalar calls to rounding (numpy's complex power in
    Gamma).  A scalar p keeps math.log and math.sqrt.
    """
    _check_pq(p, q, side)
    t_coeff, r_coeff = transmission_reflection(q)
    array = isinstance(p, np.ndarray) or isinstance(q, np.ndarray)
    lib, clib, arg = (np, np, np.angle) if array else (math, cmath, cmath.phase)
    plib = np if isinstance(p, np.ndarray) else math
    alpha = q * plib.log(0.5 * p)
    gamma_plus = specfun.complex_gamma(1.0 + 1j * q)
    phase_p = clib.exp(-1j * alpha)  # (p/2)^{-iq}
    if side == "left":
        r_amp = -lib.exp(-math.pi * q) * phase_p**2 * (gamma_plus / gamma_plus.conjugate())
        t_amp = (
            plib.sqrt(2.0 / (math.pi * p))
            * cmath.exp(-1j * _QUARTER_PI)
            * lib.exp(-0.5 * math.pi * q)
            * phase_p
            * lib.sinh(math.pi * q)
            * gamma_plus
        )
    else:
        r_amp = -1j * lib.exp(-math.pi * q)
        t_amp = (
            2.0
            * plib.sqrt(0.5 * math.pi * p)
            * cmath.exp(-1j * _QUARTER_PI)
            * lib.exp(-0.5 * math.pi * q)
            * phase_p
            / gamma_plus.conjugate()
        )
    return ScatteringData(
        t_coeff=t_coeff,
        r_coeff=r_coeff,
        r_amp=r_amp,
        t_amp=t_amp,
        phi=principal_angle(arg(r_amp)),
        theta=principal_angle(arg(t_amp)),
    )


def incident_amplitude(p: float, q: float, side: str = "left") -> complex:
    """Incident-wave amplitude of the unnormalized exact solutions.

    Left: coefficient of e^{ikx} in the far-left form of H1_{iq}(z).
    Right: amplitude of the incoming unit envelope in 2 e^{-pi q} J_{-iq}(z).
    Used to normalize exact_wavefunction output to unit incident wave.
    """
    _check_pq(p, q, side)
    if side == "left":
        phase_p = cmath.exp(1j * q * math.log(0.5 * p))  # (p/2)^{+iq}
        gamma_plus = specfun.complex_gamma(1.0 + 1j * q)
        return math.exp(math.pi * q) * phase_p / (math.sinh(math.pi * q) * gamma_plus)
    return (math.sqrt(2.0 / (math.pi * p)) * math.exp(-0.5 * math.pi * q)
            * cmath.exp(1j * _QUARTER_PI))


def exact_wavefunction(
    p: float, q: float, side: str, x_over_a: Union[Sequence[float], np.ndarray]
) -> WaveSolution:
    """Sample the exact scattering solution on a grid of x/a values.

    Left incidence: psi = H1_{iq}(z); right incidence:
    psi = 2 e^{-pi q} J_{-iq}(z), both with z = p exp(x/(2a)).  Derivatives
    are with respect to x/a (chain rule dz/d(x/a) = z/2) from the
    term-wise differentiated series; flux_profile uses hbar/m = 1.  The
    whole grid goes to the series as one array of z, so samples agree
    with one scalar series call per point to rounding.
    """
    _check_pq(p, q, side)
    grid = np.asarray(x_over_a, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise DomainError("x_over_a must be a finite non-empty 1-d grid")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise DomainError("x_over_a must be strictly increasing")
    z = p * np.exp(0.5 * grid)
    if z[-1] > specfun.Z_SERIES_MAX:
        x_bound = 2.0 * math.log(specfun.Z_SERIES_MAX / p)
        raise AccuracyError(
            f"z reaches {z[-1]:.3g} beyond the certified series bound "
            f"{specfun.Z_SERIES_MAX:g}; keep x/a below {x_bound:.3g}"
        )
    if side == "left":
        ev, scale = specfun.hankel_imag_order(q, z, kind=1), 1.0
    else:
        ev, scale = specfun.bessel_j_imag_order(q, z, sign=-1), 2.0 * math.exp(-math.pi * q)
    psi = scale * ev.value
    dpsi = scale * ev.dvalue * (0.5 * z)
    profile = np.imag(np.conj(psi) * dpsi)
    return WaveSolution(grid=grid, psi=psi, dpsi=dpsi, flux_profile=profile)


def closed_form_domain(p: float, q):
    """Elementwise: True where the closed forms accept (p, q), that is,
    exactly where _check_pq would not refuse."""
    return _finite_positive(p) & _finite(q) & _resolvable(q) & _representable(q)


def check_q(model: Exponential, q: float, units: Units = DEFAULT_UNITS) -> None:
    """Refuse the q of an energy of ``model`` (reduce_params' q) where the
    closed forms refuse it, ending the message with the E bound that
    passes on that side, as the numeric lane names it."""
    try:
        _check_q(q)
    except DomainError as exc:
        least = not _resolvable(q)
        advice = potentials.energy_advice(
            model.a, units, _resolvable if least else _representable, least)
        raise DomainError(f"{exc}; {advice}") from None


def _check_pq(p: float, q, side: str = "left") -> None:
    _require(p, _finite_positive, "p must be finite and > 0, got {!r}")
    _check_q(q)
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")


def _check_q(q) -> None:
    _require(q, _finite, "q must be finite, got {!r}")
    _require(
        q, _resolvable, f"q = {{!r}} at or below the degenerate-order threshold {specfun.Q_MIN:g}"
    )
    _require(q, _representable, "q = {!r} overflows exp(pi q) in double precision")


# elementwise tests for scalars and arrays alike; NaN fails every one
def _finite(v):
    return abs(v) < math.inf


def _finite_positive(v):
    return (v > 0) & (v < math.inf)


def _resolvable(q):
    # below Q_MIN the sinh(pi q) of the Hankel assembly washes out
    return q > specfun.Q_MIN


def _representable(q):
    return math.pi * q <= 700.0  # exp(pi q) fits a double


def _require(value, test, message: str) -> None:
    """Refuse a scalar that is not a real number or fails ``test``, or an
    array with an entry that fails it; ``message`` is formatted with the
    scalar, or with the array's first failing entry."""
    if isinstance(value, np.ndarray):
        failed = value[~test(value)]
        if failed.size == 0:
            return
        value = failed.flat[0].item()
    elif isinstance(value, (int, float)) and test(value):
        return
    raise DomainError(message.format(value))
