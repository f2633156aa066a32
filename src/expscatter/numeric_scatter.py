"""Direct integration of the stationary Schroedinger equation plus matching.

The solver never trusts the closed forms it is meant to check.  It builds a
real basis {u, v} with u(0) = 1, u'(0) = 0, v(0) = 0, v'(0) = 1 by marching
a classical fixed-step RK4 outward from x = 0 (so W[u, v] = 1 exactly at
the seed point and its drift measures integrator error).  The equation is
linear, so every RK4 step is a 2x2 transfer matrix; the march builds all
of them at once with numpy and reads the node values off their prefix
products.  ``match`` then projects u and v, at each window end, onto that
end's travelling pair (rightward, leftward): plane waves exp(+-ikx) where
the potential vanishes, the exact pair {H1_{iq}(z), H2_{iq}(z)},
z = p exp(x/(2a)), where it dives.  The matched solution is the one with no
wave arriving from infinity on the transmitted end, and the incident,
reflected and transmitted waves are read off the same two projections for
either incidence side.

Transmission and reflection are always flux ratios, which keeps them
meaningful when the two asymptotic waveforms differ.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import potentials, specfun, waves
from .errors import AccuracyError, DomainError
from .exp_barrier import PhysicalParams, reduce_params
from .potentials import PotentialModel
from .waves import WaveSolution, principal_angle

DEFAULT_UNITS = PhysicalParams(v0=1.0, a=1.0, mass=0.5, hbar=1.0)

_QUARTER_PI = math.pi / 4.0
_MAX_NODES = 5_000_000
# plane waves stand in for the asymptote at a window end only where
# |V| <= ASYMPTOTE_EPSILON * E there
ASYMPTOTE_EPSILON = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Integration window and step.

    Endpoints are extended outward to the nearest multiple of ``step`` so
    the step divides both half-intervals exactly; pick a step that divides
    any interior discontinuity (the rectangular edge) for clean fourth
    order.
    """

    x_left: float
    x_right: float
    step: float
    match_tolerance: float = 1e-8

    def __post_init__(self):
        if not (-math.inf < self.x_left < 0.0 < self.x_right < math.inf):
            raise DomainError(
                f"need finite x_left < 0 < x_right, got [{self.x_left!r}, {self.x_right!r}]"
            )
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise DomainError(f"step must be finite and > 0, got {self.step!r}")
        if not self.match_tolerance > 0.0:
            raise DomainError(f"match_tolerance must be > 0, got {self.match_tolerance!r}")

    def node_counts(self) -> tuple[int, int]:
        """(n_left, n_right) steps after the outward endpoint adjustment."""
        n_left = math.ceil(-self.x_left / self.step - 1e-9)
        n_right = math.ceil(self.x_right / self.step - 1e-9)
        if n_left + n_right + 1 > _MAX_NODES:
            raise DomainError(
                f"grid of {n_left + n_right + 1} nodes exceeds the {_MAX_NODES} cap; "
                "increase step or shrink the window"
            )
        return n_left, n_right


@dataclass(frozen=True)
class BasisPair:
    """Two real solutions with unit Wronskian, plus their provenance."""

    u: WaveSolution
    v: WaveSolution
    potential: PotentialModel
    energy: float
    units: PhysicalParams
    config: SolverConfig


@dataclass(frozen=True)
class NumericScatteringResult:
    """Scattering data extracted from one matched solution.

    t_coeff and r_coeff are flux ratios; r_amp and t_amp the complex
    amplitudes under the same waveform conventions as the closed forms;
    phi and theta their principal arguments.  c_u and c_v give the matched
    solution psi = c_u * u + c_v * v, and ``incident`` its incident-wave
    amplitude, so the normalized wave is reconstructible from the basis.
    """

    energy: float
    side: str
    t_coeff: float
    r_coeff: float
    r_amp: complex
    t_amp: complex
    phi: float
    theta: float
    flux_imbalance: float
    wronskian_drift: float
    match_residual: float
    c_u: complex
    c_v: complex
    incident: complex


_Z_MATCH = 12.0  # right-edge value of p e^{x/2a}; series accuracy decays like e^z eps


def default_config(
    potential: PotentialModel, units: Optional[PhysicalParams] = None
) -> SolverConfig:
    """Window/step defaults that keep every catalog model well resolved."""
    units = units or DEFAULT_UNITS
    if potential.kind == "exponential":
        v0_eff, a = potentials.effective_exponential(potential)
        p_eff = math.sqrt(8.0 * units.mass * v0_eff) * a / units.hbar
        # 20 decades of tail on the left; on the right, stop where the
        # matching coordinate reaches _Z_MATCH so the series stays sharp.
        # The window must straddle the x = 0 seed, so both ends are
        # clamped; models that hit the clamps (|b| or v0 far from O(1))
        # need a hand-picked config or rescaled units.
        x_right = min(potential.b + 4.0 * a, 2.0 * a * math.log(_Z_MATCH / p_eff))
        return SolverConfig(
            x_left=min(potential.b - 20.0 * a, -a),
            x_right=max(x_right, 0.5 * a),
            step=a / 2000.0,
        )
    if potential.kind == "rectangular":
        hw = potential.half_width
        # land the discontinuities exactly on nodes
        step = hw / math.ceil(hw / 5.0e-4)
        return SolverConfig(x_left=-(hw + 2.0), x_right=hw + 2.0, step=step)
    if potential.kind == "free":
        return SolverConfig(x_left=-5.0, x_right=5.0, step=5.0e-4)
    raise DomainError(f"unknown potential kind {potential.kind!r}")


def integrate_basis(
    potential: PotentialModel,
    energy: float,
    config: SolverConfig,
    units: Optional[PhysicalParams] = None,
) -> BasisPair:
    """March the basis pair across [x_left, x_right] with fixed-step RK4.

    Each half-window is one numpy march outward from x = 0: the RK4 transfer
    matrices of all its steps, then their prefix products (see ``_march``).

    Raises
    ------
    DomainError
        For energy <= 0, for exponential models with
        energy < 1e-6 * delta (the reduction degenerates there), or if the
        potential is not finite anywhere on the grid.
    """
    units = units or DEFAULT_UNITS
    if not (isinstance(energy, (int, float)) and math.isfinite(energy) and energy > 0):
        raise DomainError(f"energy must be finite and > 0, got {energy!r}")
    if potential.kind == "exponential":
        delta = units.hbar**2 / (8.0 * units.mass * potential.a**2)
        if energy < 1e-6 * delta:
            raise DomainError(
                f"energy {energy:g} below 1e-6 * delta = {1e-6 * delta:g}; "
                "the long-wave limit is not resolvable by this grid"
            )

    n_left, n_right = config.node_counts()
    h = config.step
    two_m_over_h2 = 2.0 * units.mass / units.hbar**2

    # g = 2m (V - E)/hbar^2, three samples per step, each strictly inside
    # its own step: a jump discontinuity sitting on a node is then seen
    # one-sided by both neighbouring steps.  The inward nudge moves smooth
    # potentials by ~1e-13 * step, far below the truncation error.
    x_right_samples = _step_samples(n_right, h)
    x_left_samples = -_step_samples(n_left, h)
    g_right = two_m_over_h2 * (potentials.evaluate(potential, x_right_samples) - energy)
    g_left = two_m_over_h2 * (potentials.evaluate(potential, x_left_samples) - energy)
    if not (np.all(np.isfinite(g_right)) and np.all(np.isfinite(g_left))):
        raise DomainError("potential is not finite on the integration grid")

    right = _march(g_right, h)
    left = _march(g_left, -h)

    grid = np.concatenate((-h * np.arange(n_left, 0, -1), h * np.arange(n_right + 1)))
    # drop the left march's copy of the x = 0 node, reorder ascending
    u, du, v, dv = (np.concatenate((l[:0:-1], r)) for l, r in zip(left, right))

    w_profile = u * dv - du * v
    drift = float(np.max(np.abs(w_profile - 1.0)))
    if not drift <= config.match_tolerance:  # a NaN drift fails too
        raise AccuracyError(
            f"Wronskian drift {drift:.3e} exceeds match_tolerance "
            f"{config.match_tolerance:.3e}; refine the step (drift falls as h^4)"
        )
    zeros = np.zeros_like(grid)
    u_sol = WaveSolution(
        grid=grid, psi=u.astype(complex), dpsi=du.astype(complex),
        flux_profile=zeros, wronskian_drift=drift,
    )
    v_sol = WaveSolution(
        grid=grid, psi=v.astype(complex), dpsi=dv.astype(complex),
        flux_profile=zeros, wronskian_drift=drift,
    )
    return BasisPair(
        u=u_sol, v=v_sol, potential=potential, energy=float(energy),
        units=units, config=config,
    )


def match(basis: BasisPair, side: str = "left") -> NumericScatteringResult:
    """Scattering data for incidence from ``side``, read off one basis.

    Both window ends are projected onto their travelling pair (rightward,
    leftward).  The matched psi = c_u u + c_v v has no wave arriving from
    infinity at the transmitted end; the incident and reflected waves are
    its two components at the other end.  The basis carries the potential,
    energy, units and config it was integrated with, so one basis serves
    both incidence sides.
    """
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    left = _plane_pair(basis, 0)
    # only the exponential dives, and only on the right
    diverging = basis.potential.kind == "exponential"
    right = _hankel_pair(basis) if diverging else _plane_pair(basis, -1)
    # index 0 of a pair is the rightward wave, 1 the leftward one
    source, sink, inc, out = (left, right, 0, 1) if side == "left" else (right, left, 1, 0)

    # nothing may ride in from infinity on the transmitted end
    cu, cv = sink.v[out], -sink.u[out]
    norm = max(abs(cu), abs(cv))
    if norm == 0.0:
        raise AccuracyError("matching produced a null solution")
    cu, cv = cu / norm, cv / norm

    def coeff(pair: _Pair, direction: int) -> complex:
        return cu * pair.u[direction] + cv * pair.v[direction]

    c_inc, c_ref, c_tra = coeff(source, inc), coeff(source, out), coeff(sink, inc)
    incident = c_inc * source.unit[inc]
    r_amp = c_ref * source.unit[out] / incident
    t_amp = c_tra * sink.unit[inc] / incident
    j_inc = source.flux[inc] * abs(c_inc) ** 2
    j_ref = source.flux[out] * abs(c_ref) ** 2
    j_tra = sink.flux[inc] * abs(c_tra) ** 2
    forbidden = abs(coeff(sink, out)) / max(abs(c_tra), 1e-300)
    return NumericScatteringResult(
        energy=basis.energy, side=side,
        t_coeff=j_tra / j_inc, r_coeff=j_ref / j_inc, r_amp=r_amp, t_amp=t_amp,
        phi=principal_angle(cmath.phase(r_amp)),
        theta=principal_angle(cmath.phase(t_amp)),
        flux_imbalance=abs(j_inc - j_ref - j_tra) / j_inc,
        wronskian_drift=basis.u.wronskian_drift,
        match_residual=max(left.residual, right.residual, forbidden),
        c_u=cu, c_v=cv, incident=incident,
    )


def solve(
    potential: PotentialModel,
    energy: float,
    side: str = "left",
    config: Optional[SolverConfig] = None,
    units: Optional[PhysicalParams] = None,
) -> NumericScatteringResult:
    """Integrate the basis over the window, then ``match``."""
    units = units or DEFAULT_UNITS
    config = config or default_config(potential, units)
    return match(integrate_basis(potential, energy, config, units), side)


def scattering_wavefunction(basis: BasisPair, result: NumericScatteringResult) -> WaveSolution:
    """Matched solution psi = c_u u + c_v v, normalized to unit incident wave."""
    scale = 1.0 / result.incident
    psi = scale * (result.c_u * basis.u.psi + result.c_v * basis.v.psi)
    dpsi = scale * (result.c_u * basis.u.dpsi + result.c_v * basis.v.dpsi)
    profile = waves.flux(psi, dpsi, basis.units.mass, basis.units.hbar)
    return WaveSolution(
        grid=basis.u.grid, psi=psi, dpsi=dpsi,
        flux_profile=profile, wronskian_drift=basis.u.wronskian_drift,
    )


def _step_samples(n: int, h: float) -> np.ndarray:
    """Sample abscissae for n steps of size h: three per step, all interior."""
    base = np.repeat(np.arange(n, dtype=float), 3)
    offsets = np.tile(np.array([1e-9, 0.5, 1.0 - 1e-9]), n)
    return (base + offsets) * h


def _march(g: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    """March u'' = g(x) u for the (u, v) pair; g holds 3 samples per step.

    Returns (u, u', v, v') with u seeded (1, 0) and v seeded (0, 1), each
    with n + 1 nodes.  The step is linear in the state, so each RK4 step is
    a 2x2 transfer matrix M_i, and the node values are the prefix products
    P_i = M_{i-1} ... M_0 (P_0 = I): column 0 of P_i is (u, u'), column 1
    is (v, v').

    The products use a blocked scan: they run sequentially inside blocks of
    about sqrt(n) steps, vectorised across blocks, and then each block is
    carried by the product of all earlier block totals.  Every product is
    formed in step order, which keeps the Wronskian's round-off drift as
    low as a plain loop's; a log-depth tree scan would not.
    """
    n = g.size // 3
    width = max(1, math.isqrt(n))
    blocks = max(1, -(-n // width))
    # samples[s, j, k]: sample s of step k * width + j.  The zero samples
    # past step n only pad the last block, whose total no carry uses.
    samples = np.zeros((blocks * width, 3))
    samples[:n] = g.reshape(n, 3)
    samples = np.ascontiguousarray(samples.reshape(blocks, width, 3).T)
    # m[r, c, j, k]: entry (r, c) of that step's matrix; column c is the
    # step applied to seed c, (1, 0) or (0, 1)
    m = np.empty((2, 2, width, blocks))
    m[:, 0] = _rk4_step(1.0, 0.0, *samples, h)
    m[:, 1] = _rk4_step(0.0, 1.0, *samples, h)
    steps = m.transpose(2, 0, 1, 3)
    local = np.empty_like(steps)
    local[0] = steps[0]
    col0, col1 = steps[:, :, 0, None], steps[:, :, 1, None]
    for j in range(1, width):
        prev = local[j - 1]
        local[j] = col0[j] * prev[0] + col1[j] * prev[1]
    carry = [(1.0, 0.0, 0.0, 1.0)]
    for t00, t01, t10, t11 in local[-1].reshape(4, blocks).T.tolist()[:-1]:
        c00, c01, c10, c11 = carry[-1]
        carry.append((t00 * c00 + t01 * c10, t00 * c01 + t01 * c11,
                      t10 * c00 + t11 * c10, t10 * c01 + t11 * c11))
    carried = np.array(carry).T.reshape(2, 2, blocks)
    prefix = local[:, :, 0, None] * carried[0] + local[:, :, 1, None] * carried[1]
    nodes = np.empty((2, 2, 1 + blocks * width))
    nodes[:, :, 0] = np.eye(2)
    nodes[:, :, 1:].reshape(2, 2, blocks, width)[...] = prefix.transpose(1, 2, 3, 0)
    (u, v), (du, dv) = nodes[:, :, : n + 1]
    return u, du, v, dv


def _rk4_step(u, du, g0, g1, g2, h):
    """One classical RK4 step of (u, u') for u'' = g u, with g sampled at
    the start, middle and end of the step; works on scalars and arrays."""
    half_h = 0.5 * h
    sixth_h = h / 6.0
    k1u = du;                k1p = g0 * u
    k2u = du + half_h * k1p; k2p = g1 * (u + half_h * k1u)
    k3u = du + half_h * k2p; k3p = g1 * (u + half_h * k2u)
    k4u = du + h * k3p;      k4p = g2 * (u + h * k3u)
    return (
        u + sixth_h * (k1u + 2.0 * (k2u + k3u) + k4u),
        du + sixth_h * (k1p + 2.0 * (k2p + k3p) + k4p),
    )


class _Pair(NamedTuple):
    """One window end's travelling pair; every field is (rightward, leftward).

    u and v are the basis solutions' coefficients along the pair, flux the
    probability flux per |coefficient|^2, unit the factor from a coefficient
    to the amplitude of the unit waveform.  residual says how far the pair
    is from exact at this end.
    """

    u: tuple[complex, complex]
    v: tuple[complex, complex]
    flux: tuple[float, float]
    unit: tuple[complex, complex]
    residual: float


def _plane_pair(basis: BasisPair, i: int) -> _Pair:
    """exp(+-ikx) at node i (0 or -1), valid while |V| <= ASYMPTOTE_EPSILON * E."""
    which = "x_left" if i == 0 else "x_right"
    x = float(basis.u.grid[i])
    energy = basis.energy
    v = abs(float(potentials.evaluate(basis.potential, x)))
    if v > ASYMPTOTE_EPSILON * energy:
        raise DomainError(
            f"|V({which})| = {v:.3e} exceeds ASYMPTOTE_EPSILON * E = "
            f"{ASYMPTOTE_EPSILON * energy:.3e}; push {which} further out"
        )
    hbar, m = basis.units.hbar, basis.units.mass
    k = math.sqrt(2.0 * m * energy) / hbar

    def coeffs(w: WaveSolution) -> tuple[complex, complex]:
        f, df = complex(w.psi[i]), complex(w.dpsi[i])
        return (
            0.5 * (f + df / (1j * k)) * cmath.exp(-1j * k * x),
            0.5 * (f - df / (1j * k)) * cmath.exp(1j * k * x),
        )

    flux_k = hbar * k / m
    return _Pair(coeffs(basis.u), coeffs(basis.v), (flux_k, flux_k), (1.0, 1.0), v / energy)


def _hankel_pair(basis: BasisPair) -> _Pair:
    """{H1_{iq}(z), H2_{iq}(z)}, z = p exp(x/(2a)), at the right window end.

    Projection is by Wronskians,

        c1 = W[psi, H2] / W[H1, H2],   c2 = -W[psi, H1] / W[H1, H2],

    and unit converts c1, c2 to amplitudes of the unit travelling envelope
    exp(-x/(4a)) exp(+-i z), the closed forms' convention.  The residual is
    the relative error of W[H1, H2] against its exact value.
    """
    units = basis.units
    v0_eff, a = potentials.effective_exponential(basis.potential)
    d = reduce_params(
        PhysicalParams(v0=v0_eff, a=a, mass=units.mass, hbar=units.hbar), basis.energy
    )
    p, q = d.p, d.q
    z_r = p * math.exp(float(basis.u.grid[-1]) / (2.0 * a))
    h1 = specfun.hankel_imag_order(q, z_r, kind=1)
    h2 = specfun.hankel_imag_order(q, z_r, kind=2)
    dz_dx = z_r / (2.0 * a)
    b1, db1 = h1.value, h1.dvalue * dz_dx
    b2, db2 = h2.value, h2.dvalue * dz_dx
    w_basis = b1 * db2 - db1 * b2
    w_exact = -2j / (math.pi * a)
    if abs(w_basis) < 0.1 * abs(w_exact):
        raise AccuracyError(
            f"travelling basis nearly degenerate at x_right (W = {w_basis:.3e})"
        )

    def coeffs(w: WaveSolution) -> tuple[complex, complex]:
        f, df = complex(w.psi[-1]), complex(w.dpsi[-1])
        return (f * db2 - df * b2) / w_basis, -(f * db1 - df * b1) / w_basis

    kappa_out = math.sqrt(2.0 / (math.pi * p)) * math.exp(0.5 * math.pi * q) * cmath.exp(-1j * _QUARTER_PI)
    kappa_in = math.sqrt(2.0 / (math.pi * p)) * math.exp(-0.5 * math.pi * q) * cmath.exp(1j * _QUARTER_PI)
    hbar, m = units.hbar, units.mass
    flux_h1 = (hbar / (math.pi * m * a)) * math.exp(math.pi * q)
    flux_h2 = (hbar / (math.pi * m * a)) * math.exp(-math.pi * q)
    return _Pair(
        coeffs(basis.u), coeffs(basis.v), (flux_h1, flux_h2), (kappa_out, kappa_in),
        abs(w_basis - w_exact) / abs(w_exact),
    )
