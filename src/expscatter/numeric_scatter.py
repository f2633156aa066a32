"""Direct integration of the stationary Schroedinger equation plus matching.

The solver never trusts the closed forms it is meant to check.  It builds a
real basis {u, v} with u = 1, u' = 0, v = 0, v' = 1 at the seed, the window
point nearest x = 0, by marching a classical fixed-step RK4 outward from
it (so W[u, v] = 1 exactly at the seed and its drift measures integrator
error).  The equation is linear, so every RK4 step is a 2x2 transfer
matrix; one product stage (``_march``) builds all of them at once with
numpy and takes their products in a blocked scan.  One reader
(``_read_ends``, behind ``integrate_ends``) forms the Wronskian over every
node a chunk at a time, and only the nodes its caller asks for: the two
match nodes and, for a wavefunction, its samples.  The basis record holds
those nodes and the drift; no node array of the window is built.  The
potential is sampled once per window and step, and every energy of a
sweep reuses the samples.  An exponential's default window is fixed in
z = p exp(x/(2a)), where its depth only translates the problem.
``match`` then projects u and v, at each window end and by one Wronskian
projection (``_end``), onto that end's rightward unit wave R: exp(ikx)
where the potential vanishes, H1_{iq}(z) / N where it dives, with
N = sqrt(2/(pi p)) e^{pi q/2} e^{-i pi/4} H1's large-z normalization, so
R ~ exp(-x/(4a)) exp(iz) (z = p exp(x/(2a)), at z = 12 however far the
window runs past it).  The basis is real, so along the leftward wave
conj(R) its coefficients are the conjugates.  The matched solution has no
wave arriving from infinity on the transmitted end; incident, reflected
and transmitted waves are read off the same two projections for either
incidence side.

Transmission and reflection are always flux ratios, which keeps them
meaningful when the two asymptotic waveforms differ; at both ends the flux
is measured, as (hbar/m) Im(conj(R) R').
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import potentials, specfun
from .errors import AccuracyError, DomainError
from .potentials import DEFAULT_UNITS, Exponential, PotentialModel, Units
from .waves import principal_angle

_MAX_NODES = 5_000_000
# array elements per chunk of march rows: each temporary (64 KB) stays in cache
_CHUNK = 8192
# plane waves stand in for the asymptote at a window end only where
# |V| <= ASYMPTOTE_EPSILON * E there
ASYMPTOTE_EPSILON = 1e-6
DRIFT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Integration window and step.

    The basis is seeded at ``seed``, the window point nearest x = 0, and
    the nodes are seed + k * step: each end is extended outward to the
    nearest node.  Pick a step that divides any interior discontinuity
    (the rectangular edge) for clean fourth order.
    """

    x_left: float
    x_right: float
    step: float

    def __post_init__(self):
        if not (-math.inf < self.x_left < self.x_right < math.inf):
            raise DomainError(
                f"need finite x_left < x_right, got [{self.x_left!r}, {self.x_right!r}]"
            )
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise DomainError(f"step must be finite and > 0, got {self.step!r}")
        self.node_counts()

    @property
    def seed(self) -> float:
        return min(max(0.0, self.x_left), self.x_right)

    def node_counts(self) -> tuple[int, int]:
        """(n_left, n_right) steps from the seed to the extended window ends."""
        spans = ((self.seed - self.x_left) / self.step, (self.x_right - self.seed) / self.step)
        n_left, n_right = (math.ceil(min(span, _MAX_NODES) - 1e-9) for span in spans)
        if n_left + n_right + 1 > _MAX_NODES:
            raise DomainError(
                f"grid of about {sum(spans) + 1:.3g} nodes on [{self.x_left:g}, "
                f"{self.x_right:g}] at step {self.step:g} exceeds the {_MAX_NODES:,} node "
                "cap; increase step or shrink the window"
            )
        return n_left, n_right

    def steps_at(self, xs) -> np.ndarray:
        """Steps from the seed to the first node at or past each of the
        ascending xs, or to the last node for an x past it, without repeats:
        the nodes ``np.searchsorted`` finds on the grid seed + step * k,
        found on those values without the grid."""
        n_left, n_right = self.node_counts()
        xs = np.asarray(xs, dtype=float)
        k = np.clip(np.ceil((xs - self.seed) / self.step), -n_left, n_right).astype(np.int64)
        while True:
            down = (k > -n_left) & (self.seed + self.step * (k - 1) >= xs)
            up = (k < n_right) & (self.seed + self.step * k < xs)
            if not (down.any() or up.any()):
                return k[np.diff(k, prepend=k[:1] - 1) > 0]
            k += up.astype(np.int64) - down


@dataclass(frozen=True)
class BasisPair:
    """Two real solutions u, v, W[u, v] = 1 at the seed, read at a few nodes.

    Each node is a column of rows u, u', v, v' (float64).  ends holds the
    left end node and the right end node ``match`` reads, at x_ends; nodes
    holds the steps a caller asked for, in the order asked.  drift is
    max |W[u, v] - 1| over every node of the window.
    """

    x_ends: tuple[float, float]
    ends: np.ndarray
    nodes: np.ndarray
    drift: float
    potential: PotentialModel
    energy: float
    units: Units


@dataclass(frozen=True)
class NumericScatteringResult:
    """Scattering data extracted from one matched solution.

    t_coeff and r_coeff are flux ratios; r_amp and t_amp the complex
    amplitudes under the same waveform conventions as the closed forms;
    phi and theta their principal arguments.  c_u and c_v give the matched
    solution psi = c_u * u + c_v * v, and ``incident`` its coefficient on the
    incident unit wave, so the normalized wave is reconstructible from them.
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
    c_u: complex
    c_v: complex
    incident: complex


# exponential windows run over z = p e^{x/2a} from _Z_LEFT (|V| = delta z^2
# is 8e-9 delta there; x = -20a at p = 2) to _Z_MATCH, past which the
# series behind the right-end match loses digits like e^z eps
_Z_LEFT = 2.0 * math.exp(-10.0)
_Z_MATCH = 12.0
# full widths w of a rectangle whose default grid fits the node cap: every
# float in the range fits, and the float just past either end does not
_RECT_WIDTHS = (1.6000012800010233e-06, 2495.998)


def default_config(potential: PotentialModel, units: Units = DEFAULT_UNITS) -> SolverConfig:
    """Window/step defaults that keep every catalog model well resolved."""
    if isinstance(potential, Exponential):
        p, a = potentials.exponential_p(potential, units), potential.a
        x_left, x_right = (2.0 * a * math.log(z / p) for z in (_Z_LEFT, _Z_MATCH))
        return SolverConfig(x_left=x_left, x_right=x_right, step=a / 2000.0)
    hw = potential.half_width
    if not _RECT_WIDTHS[0] <= 2.0 * hw <= _RECT_WIDTHS[1]:
        raise DomainError(
            f"rectangle width w = {2.0 * hw:g} is outside {_RECT_WIDTHS[0]!r} <= w <= "
            f"{_RECT_WIDTHS[1]!r}, the widths whose default grid (edges on nodes, step "
            f"<= 5e-4, 2 units past each edge) fits the {_MAX_NODES:,} node cap"
        )
    # land the discontinuities exactly on nodes
    step = hw / math.ceil(hw / 5.0e-4)
    return SolverConfig(x_left=-(hw + 2.0), x_right=hw + 2.0, step=step)


def integrate_ends(
    potential: PotentialModel,
    energy: float,
    config: SolverConfig,
    units: Units = DEFAULT_UNITS,
    steps=(),
) -> BasisPair:
    """March the basis pair across [x_left, x_right] with fixed-step RK4 and
    read it at the two nodes ``match`` reads and at the nodes ``steps``
    (steps from the seed, negative to the left).

    Each half-window is one numpy march outward from the seed: the RK4
    transfer matrices of all its steps and their products (``_march``).
    One reader (``_read_ends``) forms the Wronskian over every node, a
    chunk at a time, and only the nodes asked for; no node array of the
    window is built.  The ends are the left end node and the right end
    node: the last one, or on a diving end the first at or past
    z = _Z_MATCH.  The nodes come in the order of ``steps``, repeats
    included.

    Raises
    ------
    DomainError
        For energy <= 0, for exponential models with
        energy < 1e-6 * delta (the reduction degenerates there), for a step
        outside the window, if the potential is not finite anywhere on the
        grid, or for a plane-wave end that ``match`` would refuse: that is
        refused before the march, with the same message (so it takes
        precedence over a march that would also fail).
    AccuracyError
        If the Wronskian drifts past DRIFT_TOLERANCE or is not finite.
    """
    _check_energy(potential, energy, units)
    n_left, n_right = config.node_counts()
    # steps from the seed: the two ends, then the asked-for nodes as given
    at = np.concatenate(([-n_left, _right_end(potential, units, config)],
                         np.asarray(steps, dtype=np.int64)))
    if not (-n_left <= at.min() and at.max() <= n_right):
        raise DomainError(f"steps must lie in [{-n_left}, {n_right}], got [{at.min()}, {at.max()}]")
    x_ends = tuple((config.seed + config.step * at[:2]).tolist())
    _plane_potential(potential, float(energy), x_ends[0], "x_left")
    if not isinstance(potential, Exponential):
        _plane_potential(potential, float(energy), x_ends[1], "x_right")
    # rows u, u', v, v'; a node on the seed keeps the seed values
    nodes = np.repeat([[1.0], [0.0], [0.0], [1.0]], at.size, axis=1)
    drifts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for sign, (samples, step, n) in zip((1, -1), _half_windows(potential, config)):
            picked = sign * at > 0
            drift, nodes[:, picked] = _read_ends(*_march(samples, energy, step, units), n,
                                                 sign * at[picked])
            drifts.append(drift)
    drift = float(np.max(drifts))
    _check_drift(drift, config)
    return BasisPair(x_ends=x_ends, ends=nodes[:, :2], nodes=nodes[:, 2:], drift=drift,
                     potential=potential, energy=float(energy), units=units)


def _check_energy(potential: PotentialModel, energy: float, units: Units) -> None:
    if not (isinstance(energy, (int, float)) and math.isfinite(energy) and energy > 0):
        raise DomainError(f"energy must be finite and > 0, got {energy!r}")
    if isinstance(potential, Exponential):
        delta = units.hbar**2 / (8.0 * units.mass * potential.a**2)
        if energy < 1e-6 * delta:
            raise DomainError(
                f"energy {energy:g} below 1e-6 * delta = {1e-6 * delta:g}; "
                "the long-wave limit is not resolvable by this grid"
            )


def _check_drift(drift: float, config: SolverConfig) -> None:
    if not math.isfinite(drift):
        raise AccuracyError(
            f"Wronskian drift {drift:.3e}: the basis overflowed on the window "
            f"[{config.x_left:g}, {config.x_right:g}]; a finer step cannot help"
        )
    if drift > DRIFT_TOLERANCE:
        raise AccuracyError(
            f"Wronskian drift {drift:.3e} exceeds DRIFT_TOLERANCE "
            f"{DRIFT_TOLERANCE:.3e}; refine the step (drift falls as h^4)"
        )


def match(basis: BasisPair, side: str = "left") -> NumericScatteringResult:
    """Scattering data for incidence from ``side``, read off one basis.

    Each window end gives u's and v's coefficients along its rightward unit
    wave R, conjugated along conj(R).  The matched psi = c_u u + c_v v has
    no wave arriving from infinity at the transmitted end; the incident and
    reflected waves are its two components at the other end.  The basis
    carries the potential, energy and units it was integrated with, so one
    basis serves both incidence sides.
    """
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    left, right = _end(basis, 0), _end(basis, 1)
    # incidence from the left arrives along R, from the right along conj(R)
    source, sink, inc = (left, right, True) if side == "left" else (right, left, False)

    def along(end: _End, rightward: bool) -> tuple[complex, complex]:
        return (end.u, end.v) if rightward else (end.u.conjugate(), end.v.conjugate())

    # nothing may ride in from infinity on the transmitted end
    sink_u, sink_v = along(sink, not inc)
    norm = max(abs(sink_u), abs(sink_v))
    if norm == 0.0:
        raise AccuracyError("matching produced a null solution")
    cu, cv = sink_v / norm, -sink_u / norm
    c_inc, c_ref, c_tra = (cu * u + cv * v for u, v in (
        along(source, inc), along(source, not inc), along(sink, inc)))
    r_amp, t_amp = c_ref / c_inc, c_tra / c_inc
    j_inc = source.flux * abs(c_inc) ** 2
    j_ref = source.flux * abs(c_ref) ** 2
    j_tra = sink.flux * abs(c_tra) ** 2
    return NumericScatteringResult(
        energy=basis.energy, side=side,
        t_coeff=j_tra / j_inc, r_coeff=j_ref / j_inc, r_amp=r_amp, t_amp=t_amp,
        phi=principal_angle(cmath.phase(r_amp)),
        theta=principal_angle(cmath.phase(t_amp)),
        flux_imbalance=abs(j_inc - j_ref - j_tra) / j_inc,
        wronskian_drift=basis.drift,
        c_u=cu, c_v=cv, incident=c_inc,
    )


def solve(
    potential: PotentialModel,
    energy: float,
    side: str = "left",
    config: Optional[SolverConfig] = None,
    units: Units = DEFAULT_UNITS,
) -> NumericScatteringResult:
    """Integrate the basis ends over the window, then ``match``."""
    config = config or default_config(potential, units)
    return match(integrate_ends(potential, energy, config, units), side)


@functools.lru_cache(maxsize=1)
def _potential_samples(potential: PotentialModel, seed: float, n_left: int, n_right: int, h: float):
    """V at the step samples of the (left, right) half-windows from the
    seed, shared read-only by all energies; a half-window of no steps
    samples nothing and gets zeros its march never reads."""
    samples = tuple(
        potentials.evaluate(potential, seed + _step_samples(n, step)) if n else np.zeros((3, 1, 1))
        for n, step in ((n_left, -h), (n_right, h))
    )
    for values in samples:
        values.flags.writeable = False
    return samples


def _step_samples(n: int, h: float) -> np.ndarray:
    """Offsets from the seed of n steps of size h (h < 0 marches left) in
    the scan layout of ``_march``: [s, j, k] is sample s of step
    k * width + j, width = isqrt(n).  Steps past n pad the last block and
    repeat step n - 1.  Each sample lies strictly inside its step, so a
    jump on a node is seen one-sided by both neighbouring steps; the inward
    nudge moves smooth potentials by ~1e-13 * step, far below the
    truncation error."""
    width = max(1, math.isqrt(n))
    blocks = max(1, -(-n // width))
    step = np.minimum(np.arange(blocks) * width + np.arange(width)[:, None], max(n - 1, 0))
    return (step + np.array([1e-9, 0.5, 1.0 - 1e-9])[:, None, None]) * h


def _half_windows(potential: PotentialModel, config: SolverConfig):
    """(V samples, step, step count) of the right, then the left half-window."""
    n_left, n_right = config.node_counts()
    h = config.step
    v_left, v_right = _potential_samples(potential, config.seed, n_left, n_right, h)
    return (v_right, h, n_right), (v_left, -h, n_left)


def _march(v: np.ndarray, energy: float, h: float, units: Units):
    """The products of one march of u'' = g(x) u, g = 2m (V - energy)/hbar^2.

    v holds V at three samples per step in the layout of ``_step_samples``.
    Each RK4 step is a 2x2 transfer matrix M_i, its column c the step
    applied to seed c, (1, 0) for u and (0, 1) for v; node i holds
    P_i = M_{i-1} ... M_0 (P_0 = I).  Returns (m, carried): m[j, :, :, k]
    is the product of steps 0..j of block k (step k * width + j), carried[:, :, k]
    the product of all blocks before k, so P_{1 + k * width + j} is
    m[j, :, :, k] @ carried[:, :, k] (see ``_prefix``).

    The scan runs sequentially inside blocks of width steps, vectorised
    across blocks, then carries each block by the earlier block totals.
    Every product is formed in step order, which keeps the Wronskian's
    round-off drift as low as a plain loop's; a log-depth tree scan would
    not.
    """
    width, blocks = v.shape[1:]
    scale = 2.0 * units.mass / units.hbar**2
    half_h, sixth_h = 0.5 * h, h / 6.0
    # m[j, r, c, k]: entry (r, c) of step k * width + j, built a chunk of rows at a time
    m = np.empty((width, 2, 2, blocks))
    rows = max(1, _CHUNK // blocks)
    # one g buffer for every chunk: a fresh 200 KB g per chunk fragments
    # the heap (peak RSS +1 MB over repeated numeric wavefunctions)
    g_rows = np.empty((3, rows, blocks))
    for j in range(0, width, rows):
        mj = m[j : j + rows]
        g0, g1, g2 = g = g_rows[:, : len(mj)]
        np.multiply(scale, np.subtract(v[:, j : j + rows], energy, out=g), out=g)
        if not np.all(np.isfinite(g)):
            raise DomainError("potential is not finite on the integration grid")
        # classical RK4 on the seeds, less the operations that are exact
        # no-ops there: seed (1, 0) has slopes k1 = (0, g0), k2 = (k2u, g1);
        # seed (0, 1) has k1 = (1, 0), k2 = (1, k2q) and k3 = (k3v, k2q)
        k2u, k3u = half_h * g0, half_h * g1
        k3p = g1 * (1.0 + half_h * k2u)
        k4p = g2 * (1.0 + h * k3u)
        np.add(1.0, sixth_h * (2.0 * (k2u + k3u) + h * k3p), out=mj[:, 0, 0])
        np.multiply(sixth_h, g0 + 2.0 * (g1 + k3p) + k4p, out=mj[:, 1, 0])
        k2q = g1 * half_h
        k3v = 1.0 + half_h * k2q
        k4q = g2 * (h * k3v)
        np.multiply(sixth_h, 1.0 + 2.0 * (1.0 + k3v) + (1.0 + h * k2q), out=mj[:, 0, 1])
        np.add(1.0, sixth_h * (2.0 * (k2q + k2q) + k4q), out=mj[:, 1, 1])
    # in place, m[j] becomes the product of its block's steps 0..j:
    # terms[t, r, c] = M_j[r, t] * m[j - 1][t, c], summed over t in order
    terms = np.empty((2, 2, 2, blocks))
    term0, term1 = terms
    steps, prods = m.transpose(0, 2, 1, 3)[:, :, :, None], m[:, :, None]
    for mj, step, prod in zip(m[1:], steps[1:], prods[:-1]):
        np.multiply(step, prod, out=terms)
        np.add(term0, term1, out=mj)
    carry = [(1.0, 0.0, 0.0, 1.0)]
    # the last block's total, which may include pad steps, carries nothing
    for t00, t01, t10, t11 in m[-1].reshape(4, blocks).T.tolist()[:-1]:
        c00, c01, c10, c11 = carry[-1]
        carry.append((t00 * c00 + t01 * c10, t00 * c01 + t01 * c11,
                      t10 * c00 + t11 * c10, t10 * c01 + t11 * c11))
    return m, np.array(carry).T.reshape(2, 2, blocks)


# node rows u, u', v, v' take product entries (r, c)
_ROWS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _prefix(m: np.ndarray, carried: np.ndarray, r: int, c: int) -> np.ndarray:
    """Entry (r, c) of the node products m[j] @ carried over rows j of m."""
    return m[:, r, 0] * carried[0, c] + m[:, r, 1] * carried[1, c]


def _read_ends(m: np.ndarray, carried: np.ndarray, n: int, picks) -> tuple[float, np.ndarray]:
    """The reader of one march: max |W[u, v] - 1| over its nodes 0..n,
    formed a chunk of rows at a time in scan layout, and the nodes picks
    (each in 1..n, in any order, repeats included) as columns
    (u, u', v, v'), from the chunk each is in."""
    width, _, _, blocks = m.shape
    # real steps in the last block; its other rows are pad steps
    last = n - (blocks - 1) * width
    rows = max(1, _CHUNK // blocks)
    # node 1 + k * width + j is row j of block k, in chunk j // rows
    k, j = np.divmod(np.asarray(picks, dtype=np.int64) - 1, width)
    chunk = j // rows
    starts = range(0, width, rows)
    counts = np.bincount(chunk, minlength=len(starts))
    # the seed's W - 1 is exactly 0
    maxima = [0.0]
    nodes = np.empty((4, k.size))
    for i, j0 in enumerate(starts):
        columns = [_prefix(m[j0 : j0 + rows], carried, r, c) for r, c in _ROWS]
        u, du, v, dv = columns
        error = np.abs(u * dv - du * v - 1.0)
        # pad steps take the seed's value
        error[max(last - j0, 0) :, -1] = 0.0
        maxima.append(error.max())
        if counts[i]:
            here = (chunk == i).nonzero()[0]
            at = (j[here] - j0) * blocks + k[here]
            nodes[:, here] = [c.ravel()[at] for c in columns]
    return np.max(maxima), nodes


class _End(NamedTuple):
    """One window end, read along its rightward unit wave R.

    u and v are the basis solutions' coefficients along R; the basis is
    real, so their coefficients along the leftward wave conj(R) are the
    conjugates.  flux is the probability flux of R, which conj(R) carries
    the other way.
    """

    u: complex
    v: complex
    flux: float


def _end(basis: BasisPair, i: int) -> _End:
    """End i (0 left, 1 right) along its rightward unit wave R, exp(ikx) or
    H1_{iq}(z) / N (see the module notes).  A real solution f projects onto
    R by Wronskians, c = W[f, conj R] / W[R, conj R], and
    W[R, conj R] = -2i Im(conj(R) R') also gives R's flux,
    (hbar/m) Im(conj(R) R')."""
    x, units = basis.x_ends[i], basis.units
    k = math.sqrt(2.0 * units.mass * basis.energy) / units.hbar
    # only the exponential dives, and only on the right
    diving = i == 1 and isinstance(basis.potential, Exponential)
    if diving:
        a = basis.potential.a
        p, q = potentials.exponential_p(basis.potential, units), 2.0 * k * a
        z = p * math.exp(x / (2.0 * a))
        h1 = specfun.hankel_imag_order(q, z, kind=1)
        norm = math.sqrt(2.0 / (math.pi * p)) * math.exp(0.5 * math.pi * q)
        norm *= cmath.exp(-0.25j * math.pi)
        r, dr = h1.value / norm, h1.dvalue * (z / (2.0 * a)) / norm
    else:
        _plane_potential(basis.potential, basis.energy, x, ("x_left", "x_right")[i])
        r = cmath.exp(1j * k * x)
        dr = 1j * k * r
    im = (r.conjugate() * dr).imag
    flux = units.hbar / units.mass * im
    if diving:
        exact = p * units.hbar / (2.0 * units.mass * a)
        if not flux > 0.1 * exact:
            raise AccuracyError(
                f"unit wave at z = {z:.3g} carries flux {flux:.3e}, not {exact:.3e}")

    def coeff(f: float, df: float) -> complex:
        return (f * dr.conjugate() - df * r.conjugate()) / (-2j * im)

    u, du, v, dv = basis.ends[:, i].tolist()
    return _End(coeff(u, du), coeff(v, dv), flux)


def _plane_potential(potential: PotentialModel, energy: float, x: float, which: str) -> None:
    """Refuse a plane-wave end where |V(x)| > ASYMPTOTE_EPSILON * E."""
    v = abs(float(potentials.evaluate(potential, x)))
    if v > ASYMPTOTE_EPSILON * energy:
        raise DomainError(
            f"|V({which})| = {v:.3e} exceeds ASYMPTOTE_EPSILON * E = "
            f"{ASYMPTOTE_EPSILON * energy:.3e}; push {which} further out, or keep "
            f"E >= |V({which})| / ASYMPTOTE_EPSILON = {v / ASYMPTOTE_EPSILON:.3e}"
        )


def _right_end(potential: PotentialModel, units: Units, config: SolverConfig) -> int:
    """Steps from the seed to the right-end node ``match`` reads: the last
    one, or on a diving end the first at or past z = _Z_MATCH (the last if
    none is)."""
    if not isinstance(potential, Exponential):
        return config.node_counts()[1]
    return int(config.steps_at([_x_match(potential, units)])[0])


def _x_match(potential: Exponential, units: Units) -> float:
    """x of z = _Z_MATCH on an exponential."""
    return 2.0 * potential.a * math.log(_Z_MATCH / potentials.exponential_p(potential, units))
