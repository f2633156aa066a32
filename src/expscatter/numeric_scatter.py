"""Direct integration of the stationary Schroedinger equation plus matching.

The solver never trusts the closed forms it is meant to check.  It reads a
model only through V (``potentials.evaluate``), its tail length ``tail``
and its ``jumps``: a finite tail length a means V = V(0) e^{x/a}, a tail
fading at rate 1/a to the left and a dive to the right; an infinite one
means V is flat off its jumps.  Each row's window and graded grid follow
from these and its energy (``_window``, ``_grid``), so depth and offset
only translate the problem; V's jumps and the match point are exact
nodes.  The window is the lane's own: a caller names only the energy,
the xs to read and the step factor kh, and the xs grow the window to
cover them but never shrink it.  It builds a real basis {u, v} with
u = 1, u' = 0, v = 0, v' = 1 at the seed, the window point nearest x = 0,
by marching a classical RK4 outward from it (so W[u, v] = 1 exactly at
the seed and its drift measures integrator error).  The equation is
linear, so every RK4 step is a 2x2 transfer matrix; one march
(``_march``) builds all of them a chunk at a time with numpy, each as
M - I with its det M - 1, multiplies them pairwise in one tree for both
half-windows (one of them transposed, from the tree's back), and hands
back only the nodes asked for, the two end nodes and a wavefunction's
samples (each one partial RK4 step from the node below it, refused where
W formed from them is off 1 past DRIFT_TOLERANCE), with the dets.  RK4 does not
keep area, so W[u, v] drifts from 1 by the product of the dets: their
sums give the drift and W at the window ends, free of the round-off the
products gather where the basis grows.
``integrate_ends`` forms each window end's rightward unit wave R
(``_wave``) before the march, and projects u and v there onto it
(``_project``): R = exp(ikx) (1 + phi) where the potential fades,
phi = w / (lam^2 + 2ik lam) the first Born term of a tail w = 2mV/hbar^2
of rate lam = 1/tail (phi = 0 where lam = 0), and H1_{iq}(z) / N where it
dives, N = sqrt(2/(pi p)) e^{pi q/2} e^{-i pi/4} H1's large-z
normalization, so R ~ exp(-x/(4a)) exp(iz) (z = p exp(x/(2a)), at z = 8
however far the window runs past it).  The basis is real, so along the
leftward wave conj(R) its coefficients are the conjugates.  ``match`` is
algebra on the two projected ends: the matched solution has no wave
arriving from infinity on the transmitted end; incident, reflected and
transmitted waves are read off the same two projections for either
incidence side.

Transmission and reflection are always flux ratios, which keeps them
meaningful when the two asymptotic waveforms differ; at both ends the flux
is measured, as (hbar/m) Im(conj(R) R'), and the transmitted wave is read
off W[u, v] at its end rather than off the products there.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import potentials, specfun
from .errors import AccuracyError, DomainError
from .potentials import DEFAULT_UNITS, PotentialModel, Units
from .waves import principal_angle

# one march holds both half-windows' trees at once: tracemalloc peaks of
# one basis read 86 B/node (exp:v0=1,a=1, 492,452 nodes) and 101 B/node
# (free, 160,001 nodes, the most zeros between the halves), so about
# 430-510 MB at the cap
_MAX_NODES = 5_000_000
# steps, or runs of a tree level, per chunk: each temporary (64 KB) stays in cache
_CHUNK = 8192
# plane waves stand in for the asymptote at a window end only where
# |V| <= ASYMPTOTE_EPSILON * E there
ASYMPTOTE_EPSILON = 1e-6
DRIFT_TOLERANCE = 1e-8
# K h per step: what the step a/2000 spends at z = 12, where K = 6/a
KH = 0.003
# points per a (or per rectangle window) of the table that s(x) is
# integrated on, and the most it may hold: a step of kh a passed the node
# cap on a window wider than _MAX_TABLE / _TABLE_PER_L = 15,000 a
_TABLE_PER_L = 8
_MAX_TABLE = 120_000
# sample offsets within a step, as fractions of it: strictly inside, so a
# jump on a node is seen one-sided by both neighbouring steps
_SAMPLES = (1e-9, 0.5, 1.0 - 1e-9)


class _End(NamedTuple):
    """One window end, read along its rightward unit wave R.

    u and v are the basis solutions' coefficients along R; the basis is
    real, so their coefficients along the leftward wave conj(R) are the
    conjugates.  w_r is W[R, conj R] = -2i Im(conj(R) R'), which gives R's
    flux (hbar/m) |w_r| / 2; w_uv is W[u, v] there (see ``integrate_ends``).
    """

    u: complex
    v: complex
    w_r: complex
    w_uv: float


class BasisPair(NamedTuple):
    """Two real solutions u, v, W[u, v] = 1 at the seed, read at a few nodes.

    ends holds the left and the right window end, each projected onto its
    unit waves (``_End``).  nodes holds the basis at the xs a caller asked
    for, in the order asked, each a column of rows u, u', v, v' (float64).
    drift is sum |det M_i - 1| over the RK4 steps of the worse half-window,
    which bounds |W[u, v] - 1| at every node in exact arithmetic.  The
    energy is the caller's argument.
    """

    ends: tuple[_End, _End]
    nodes: np.ndarray
    drift: float


class NumericScatteringResult(NamedTuple):
    """Scattering data extracted from one matched solution.

    t_coeff and r_coeff are flux ratios; r_amp and t_amp the complex
    amplitudes under the same waveform conventions as the closed forms;
    phi and theta their principal arguments.  c_u and c_v give the matched
    solution psi = c_u * u + c_v * v, and ``incident`` its coefficient on the
    incident unit wave, so the normalized wave is reconstructible from them.
    The energy and the incidence side are the caller's arguments.
    """

    t_coeff: float
    r_coeff: float
    r_amp: complex
    t_amp: complex
    phi: float
    theta: float
    flux_imbalance: float
    c_u: complex
    c_v: complex
    incident: complex


# an exponential's diving end is matched at z = p e^{x/2a} = _Z_MATCH, past
# which the series behind the match loses digits like e^z eps
_Z_MATCH = 8.0


def _window(potential: PotentialModel, energy: float, units: Units) -> tuple[float, float]:
    """The row's window (x_left, x_right) at ``energy``: 2 units past the
    outer jumps of a V flat off them; for a diving V, from where its
    plane-wave end holds, |V| <= ASYMPTOTE_EPSILON * E as ``_is_plane``
    tests it (about x = tail ln(ASYMPTOTE_EPSILON E / |V(0)|),
    z = sqrt(ASYMPTOTE_EPSILON) q), to z = _Z_MATCH, which leaves no window
    past q = _Z_MATCH / sqrt(ASYMPTOTE_EPSILON), where the energy is
    refused.  An energy not finite and > 0 is refused first.
    """
    if not (isinstance(energy, (int, float)) and math.isfinite(energy) and energy > 0):
        raise DomainError(f"energy must be finite and > 0, got {energy!r}")
    tail = potential.tail
    if not math.isfinite(tail):
        return potential.jumps[0] - 2.0, potential.jumps[-1] + 2.0
    depth = abs(potentials.evaluate(potential, 0.0))
    x_left = tail * (math.log(ASYMPTOTE_EPSILON) + math.log(energy) - math.log(depth))
    # the logarithms round; widen by doubling steps until the end passes
    step = math.ulp(x_left)
    while not _is_plane(potential, energy, x_left):
        x_left, step = x_left - step, 2.0 * step
    x_right = 2.0 * tail * math.log(_Z_MATCH / _p(potential, units))
    if not x_left < x_right:
        raise DomainError(
            f"at E = {energy:g}, |V| <= ASYMPTOTE_EPSILON * E already at z = {_Z_MATCH:g}, "
            "where the diving end is matched; lower E"
        )
    return x_left, x_right


def integrate_ends(
    potential: PotentialModel,
    energy: float,
    units: Units = DEFAULT_UNITS,
    xs=(),
    kh: float = KH,
) -> BasisPair:
    """March the basis pair across the row's window with RK4 on its graded
    grid (``_grid``: step kh min(l, 1/K), whose error falls as kh^4),
    project its two end nodes onto their unit waves (``_wave``,
    ``_project``) and read it at ``xs``.

    The window is the row's own (``_window``), grown to cover ``xs`` and
    never shrunk: [lo, hi], lo = min(x_left, min xs), hi = max(x_right,
    max xs).  The ends are lo and hi, or on a diving V lo and x_right, the
    point z = _Z_MATCH; the grid runs on to hi past it.  The basis is seeded
    at the window point nearest x = 0.  One numpy march (``_march``) runs
    outward from the seed both ways and returns the asked-for nodes and
    each step's det M - 1; no node array of the window is built.  W[u, v]
    at each end is 1 plus the dets of the steps from the seed, which the
    products' round-off does not reach.  Each x is read by
    one RK4 step from the node at or below it (``_step_from``), a step of
    zero on a node, so within a window the grid, the ends and the drift do
    not depend on ``xs``.  The nodes come in the order of ``xs``, repeats
    included.  Refusals come in this order: kh and xs, the energy and the
    window, the plane-wave ends, the grid's caps, the unit waves (before
    any RK4 step), then the drift.

    Raises
    ------
    DomainError
        For kh not finite and > 0, for an x of xs not finite, for energy
        not finite and > 0, for a diving V with no window left of z =
        _Z_MATCH, if the potential is not finite anywhere on the window, for
        a grid past the node cap, for a plane-wave end where |V| >
        ASYMPTOTE_EPSILON * E (refused before the grid is built), or for a
        diving end whose q the closed forms refuse: q <= Q_MIN or q pi > 700.
    AccuracyError
        If the drift is past DRIFT_TOLERANCE, if W[u, v] is not finite at
        a window end, if the diving end's unit wave carries a flux far
        from its own, or if W[u, v] formed from the nodes at an x of xs is
        off 1 by more than DRIFT_TOLERANCE.
    """
    if not (kh > 0.0 and math.isfinite(kh)):
        raise DomainError(f"kh must be finite and > 0, got {kh!r}")
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if not np.all(np.isfinite(xs)):
        raise DomainError(f"xs must be finite, got {float(xs[~np.isfinite(xs)][0])!r}")
    x_left, x_right = _window(potential, energy, units)
    energy = float(energy)
    lo, hi = float(xs.min(initial=x_left)), float(xs.max(initial=x_right))
    # only a finite tail dives, and only on the right, at x_right
    dives = math.isfinite(potential.tail)
    x_ends = (lo, x_right if dives else hi)
    _plane_potential(potential, energy, lo, "x_left")
    if not dives:
        _plane_potential(potential, energy, hi, "x_right")
    # the ends, then the seed: the window point nearest x = 0
    pins = (*x_ends, min(max(0.0, lo), hi))
    x, at = _grid(potential, energy, lo, hi, kh, units, pins, xs)
    waves = [_wave(potential, energy, units, end, diving)
             for end, diving in zip(x_ends, (False, dives))]
    # node indices of the two ends, then of the node below each asked-for x
    seed, at = at[2], np.delete(at, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        nodes, dets = _march(potential, energy, x, units, seed, at)
        # W[u, v] at an end: 1 plus the dets of the steps from the seed
        w_uv = [1.0 + float(dets[int(at[end] > seed)][: abs(at[end] - seed)].sum())
                for end in (0, 1)]
        drift = max(0.0, *(float(np.abs(d, out=d).sum()) for d in dets))
        if xs.size:
            below = x[at[2:]]
            nodes[:, 2:] = _step_from(potential, energy, below, xs, units, nodes[:, 2:])
        _check_drift(drift, lo, hi, kh, nodes, xs)
    ends = tuple(_End(*_project(waves[i], nodes[:, i]), waves[i][2], w_uv[i]) for i in (0, 1))
    return BasisPair(ends=ends, nodes=nodes[:, 2:], drift=drift)


def _check_drift(drift: float, lo: float, hi: float, kh: float, nodes: np.ndarray,
                 xs: np.ndarray) -> None:
    """Refuse a basis whose W[u, v] is not finite at the window ends (the
    first two columns u, u', v, v' of ``nodes``), whose drift is past
    DRIFT_TOLERANCE, or whose W formed from the nodes at xs (the other
    columns, which psi and its flux are formed from) is off 1 by more."""
    u, du, v, dv = nodes
    w = u * dv - du * v
    ends, off = w[:2], np.abs(w[2:] - 1.0)
    if not np.all(np.isfinite(ends)):
        raise AccuracyError(
            f"Wronskian {ends[~np.isfinite(ends)][0]:.3e} at a window end: the basis overflowed "
            f"on the window [{lo:g}, {hi:g}]; a finer step cannot help"
        )
    if not drift <= DRIFT_TOLERANCE:
        raise AccuracyError(f"Wronskian drift {drift:.3e} exceeds DRIFT_TOLERANCE "
                            f"{DRIFT_TOLERANCE:.3e}; lower kh = {kh:g} "
                            "(on the exponential, drift falls as kh^5)")
    if not np.all(off <= DRIFT_TOLERANCE):
        i = int(np.argmax(off))  # a NaN counts as the worst
        raise AccuracyError(
            f"W[u, v] at x = {xs[i]:g} is off 1 by {off[i]:.3e}, past DRIFT_TOLERANCE "
            f"{DRIFT_TOLERANCE:.3e}, and the step's drift is {drift:.3e} of it at most: "
            "the rest is round-off where the basis grows, which psi and its flux there "
            "carry too; raise E or narrow the barrier")


def match(basis: BasisPair, side: str = "left") -> NumericScatteringResult:
    """Scattering data for incidence from ``side``, read off one basis.

    Each window end gives u's and v's coefficients along its rightward unit
    wave R, conjugated along conj(R).  The matched psi = c_u u + c_v v has
    no wave arriving from infinity at the transmitted end; the incident and
    reflected waves are its two components at the other end, and the
    transmitted one is read off W[u, v] = (s_u conj(s_v) - conj(s_u) s_v)
    W[R, conj R] there (s the coefficients along R).  The basis carries
    both ends projected, so one basis serves both incidence sides.
    """
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    left, right = basis.ends
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
    c_inc, c_ref = (cu * u + cv * v for u, v in (along(source, inc), along(source, not inc)))
    c_tra = (1.0 if inc else -1.0) * sink.w_uv / (sink.w_r * norm)
    r_amp, t_amp = c_ref / c_inc, c_tra / c_inc
    # fluxes over hbar / 2m, which their ratios cancel
    j_inc, j_ref = (abs(source.w_r) * abs(c) ** 2 for c in (c_inc, c_ref))
    j_tra = abs(sink.w_r) * abs(c_tra) ** 2
    return NumericScatteringResult(
        t_coeff=j_tra / j_inc, r_coeff=j_ref / j_inc, r_amp=r_amp, t_amp=t_amp,
        phi=principal_angle(cmath.phase(r_amp)),
        theta=principal_angle(cmath.phase(t_amp)),
        flux_imbalance=abs(j_inc - j_ref - j_tra) / j_inc,
        c_u=cu, c_v=cv, incident=c_inc,
    )


def solve(
    potential: PotentialModel,
    energy: float,
    side: str = "left",
    units: Units = DEFAULT_UNITS,
) -> NumericScatteringResult:
    """Integrate the basis ends over the row's window, then ``match``."""
    return match(integrate_ends(potential, energy, units), side)


def _grid(potential: PotentialModel, energy: float, lo: float, hi: float, kh: float,
          units: Units, pins, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending nodes of one row's grid on the window [lo, hi], the
    node index of each of pins (window points made nodes), then of the
    node at or below each of xs.

    The step at x is kh * min(l, 1/K(x)): the nodes sit at whole steps of
    s(x) = int max(1/l, K) dx / kh.  For a finite tail length a,
    l = a / sqrt(2z), z = p e^{x/2a}, which is a at z = 1/2 and grows as
    e^{-x/4a} into the near-free tail, where V's own rate sets the step;
    with K_V = sqrt(2m |V|) / hbar = z / 2a, 1/l = 2 sqrt(K_V / a).  V
    flat off its jumps (an infinite tail length) keeps K constant between
    them, so l is the window length: only K ~ 0 needs a cap there.  s is
    summed by the midpoint rule on a table a / _TABLE_PER_L (or the
    window / _TABLE_PER_L) apart and inverted by ``np.interp``.  The pins,
    hi and the jumps inside the window bound segments, in which the
    nodes split s evenly, in the fewest steps whose s increments are at
    most 1.  A table past _MAX_TABLE points, or a grid past the node cap,
    is refused before it is built.
    """
    dives = math.isfinite(potential.tail)
    span = potential.tail if dives else hi - lo
    edges = [x for x in potential.jumps if lo < x < hi]
    bounds = np.array(sorted({*pins, hi, *edges}))
    count = math.ceil(_TABLE_PER_L * (hi - lo) / span)
    if not count <= _MAX_TABLE:
        raise DomainError(
            f"the window [{lo:g}, {hi:g}] is {(hi - lo) / span:.3g} a wide, past the "
            f"{_MAX_TABLE // _TABLE_PER_L:,} a its step table holds; shrink the window"
        )
    # a table point twice is an interval of zero width, which adds nothing to s
    table = np.sort(np.concatenate((np.linspace(lo, hi, count + 1), bounds)))
    if not np.all(np.isfinite(potentials.evaluate(potential, table))):
        raise DomainError("potential is not finite on the integration grid")
    mid = 0.5 * (table[1:] + table[:-1])
    scale = 2.0 * units.mass / units.hbar**2
    with np.errstate(over="ignore"):
        v = potentials.evaluate(potential, mid)
        k = np.sqrt(np.abs(scale * (energy - v)))
        floor = 2.0 * np.sqrt(np.sqrt(scale * np.abs(v)) / span) if dives else 1.0 / span
        s_table = np.concatenate(([0.0], np.cumsum(np.maximum(floor, k) * np.diff(table))))
        s_table /= kh
    if not s_table[-1] + bounds.size <= _MAX_NODES:
        raise DomainError(
            f"the grid at E = {energy:g} needs about {s_table[-1] + bounds.size:.3g} nodes "
            f"on [{lo:g}, {hi:g}], past the {_MAX_NODES:,} node cap (step kh min(l, 1/K), "
            f"kh = {kh:g}); lower E, shrink the window or raise kh"
        )
    s_bounds = np.interp(bounds, table, s_table)
    spans = np.diff(s_bounds)
    steps = np.maximum(1, np.ceil(spans - 1e-6)).astype(np.int64)
    # s at every node past the first, in even increments between bounds
    s_nodes = np.repeat(spans / steps, steps)
    s_nodes[0] += s_bounds[0]
    x = np.empty(s_nodes.size + 1)
    x[1:] = np.interp(np.cumsum(s_nodes), s_table, table)
    x[np.concatenate(([0], np.cumsum(steps)))] = bounds
    return x, np.searchsorted(x, np.concatenate((pins, xs)), side="right") - 1


def _march(potential: PotentialModel, energy: float, x: np.ndarray, units: Units, seed: int,
           at: np.ndarray):
    """One march of u'' = g(x) u, g = 2m (V - energy)/hbar^2, over the grid x
    outward from node seed both ways: the nodes at (indices of x, in any
    order, repeats included) as columns (u, u', v, v'), and each
    half-window's det M - 1 in step order from the seed, the left half's
    first.

    Step i of a half runs from its node i to node i + 1, counted from the
    seed, and samples V at its _SAMPLES.  Each RK4 step is a 2x2 transfer
    matrix M_i, its column c the step applied to seed c, (1, 0) for u and
    (0, 1) for v, kept as M_i - I; node t of a half holds
    P_t = M_{t-1} ... M_0.  One tree serves both halves.  Level 0 holds
    the front half's steps from its start in step order and the back
    half's (the one of fewer levels, the left on a tie) transposed from
    its end in reverse step order, zeros between.  Level l holds the
    products of the aligned runs of 2^l slots, each of two runs of level
    l - 1 (``_compose``); level 0 holds a multiple of the back half's
    longest run, so its runs stay aligned too, and as (A B)^T = B^T A^T
    they hold its products transposed.  P_t is the product of the runs
    that t's set bits name, the earliest first, reduced pairwise in the
    same way, the back half's in reverse order.  Transposing only swaps
    the operands of each sum and product, so every bit is that of a tree
    per half.  Kept as M - I, a step's small parts reach P_t without the
    rounding of 1 + a.
    """
    halves = (x[seed::-1], x[seed:])
    steps = [half.size - 1 for half in halves]
    # the half of fewer levels (the left on a tie) fills level 0 from its
    # end, which rounds level 0 up to a multiple of that half's longest run
    back = int(steps[1].bit_length() < steps[0].bit_length())
    levels, back_levels = steps[1 - back].bit_length(), steps[back].bit_length()
    longest = 1 << max(back_levels - 1, 0)
    n = -(-sum(steps) // longest) * longest
    # every level of the tree in one buffer, level l holding n >> l runs
    # from starts[l], then one zero: M - I of the factor of a clear bit
    sizes = [n >> level for level in range(levels)]
    starts = [0, *accumulate(sizes)]
    tree = np.empty((2, 2, starts[-1] + 1))
    tree[:, :, steps[1 - back] : n - steps[back]] = 0.0
    tree[:, :, -1] = 0.0
    slots = [tree[:, :, :n], tree[:, :, :n][:, :, ::-1].transpose(1, 0, 2)]
    # one buffer for a chunk's h and samples, then for its product terms:
    # fresh temporaries per chunk fragment the heap and raise the peak RSS
    buffer = np.empty((2, 2, _CHUNK))
    dets = [np.empty(count) for count in steps]
    for side, half in enumerate(halves):
        out = slots[side == back]
        for i in range(0, steps[side], _CHUNK):
            j = min(i + _CHUNK, steps[side])
            dets[side][i:j] = _step_matrices(potential, energy, units, half[i:j],
                                             half[i + 1 : j + 1],
                                             buffer.reshape(4, _CHUNK)[:, : j - i],
                                             out[:, :, i:j])
    for below, start, size in zip(starts, starts[1:], sizes[1:]):
        for i in range(0, size, _CHUNK):
            j = min(i + _CHUNK, size)
            _compose(tree[:, :, below + 2 * i + 1 : below + 2 * j : 2],
                     tree[:, :, below + 2 * i : below + 2 * j : 2],
                     tree[:, :, start + i : start + j], buffer[:, :, : j - i])
    # one factor per level of each pick t, run (t >> l) - 1 of level l where
    # bit l is set, else the zero, as are the factors that pad them to a
    # power of two: the front half's top level first, the back half's
    # column reversed and its runs counted from the end of each level
    at = np.asarray(at, dtype=np.int64)
    in_back = (at >= seed) == bool(back)
    t = np.abs(at - seed)
    width = 1 << max(levels - 1, 0).bit_length()
    row = np.arange(width)[:, None]
    level = np.where(in_back, row - (width - back_levels), levels - 1 - row)
    clipped = np.maximum(level, 0)
    run = t >> clipped
    factor = np.take(starts, clipped) + np.where(in_back, (n >> clipped) - run, run - 1)
    factors = np.take(tree, np.where((level >= 0) & (run % 2 == 1), factor, -1), axis=2)
    # the back half's picks are whole once its own power of two of factors
    # is reduced
    whole_at = width >> max(back_levels - 1, 0).bit_length()
    while True:
        if factors.shape[2] == whole_at:
            whole = factors[:, :, -1, in_back].transpose(1, 0, 2)
        if factors.shape[2] == 1:
            break
        late, early = factors[:, :, 1::2], factors[:, :, 0::2]
        factors = _compose(late, early, np.empty_like(late), np.empty_like(late))
    factors[:, :, 0, in_back] = whole
    p = factors[:, :, 0] + np.eye(2)[:, :, None]
    # p[r, c]: column c = 0 holds u, u', column c = 1 holds v, v'
    return p.transpose(1, 0, 2).reshape(4, -1), dets


def _compose(late: np.ndarray, early: np.ndarray, out: np.ndarray, term: np.ndarray):
    """Into out, (I + late)(I + early) - I = late + early + late early."""
    np.add(late, early, out=out)
    for k in (0, 1):
        out += np.multiply(late[:, k : k + 1], early[k : k + 1], out=term)
    return out


def _step_matrices(potential: PotentialModel, energy: float, units: Units, x0: np.ndarray,
                   x1: np.ndarray, buffer: np.ndarray, out) -> np.ndarray:
    """The RK4 transfer matrices M of the steps from x0 to x1, as M - I,
    into out[r][c] (column c the step applied to seed c), buffer 4 rows
    shaped as x0 for h and 2m (V - energy)/hbar^2 at each step's _SAMPLES.
    Returns each det M - 1, x^3/72 + x^4/576 for a constant g, x = g h^2
    (Hairer, Lubich & Wanner, Geometric Numerical Integration, ch. VI),
    formed as a + d + a d - b c from M - I = [[a, b], [c, d]]."""
    h, g = np.subtract(x1, x0, out=buffer[0]), buffer[1:]
    for gs, offset in zip(g, _SAMPLES):
        np.add(x0, np.multiply(offset, h, out=gs), out=gs)
    scale = 2.0 * units.mass / units.hbar**2
    np.multiply(scale, np.subtract(potentials.evaluate(potential, g), energy, out=g), out=g)
    if not np.all(np.isfinite(g)):
        raise DomainError("potential is not finite on the integration grid")
    g0, g1, g2 = g
    # classical RK4 on the seeds, less the operations that are exact
    # no-ops there: seed (1, 0) has slopes k1 = (0, g0), k2 = (k2u, g1);
    # seed (0, 1) has k1 = (1, 0), k2 = (1, k2q) and k3 = (k3v, k2q)
    half_h, sixth_h = 0.5 * h, h / 6.0
    k2u, k3u = half_h * g0, half_h * g1
    k3p = g1 * (1.0 + half_h * k2u)
    k4p = g2 * (1.0 + h * k3u)
    a = np.multiply(sixth_h, 2.0 * (k2u + k3u) + h * k3p, out=out[0][0])
    np.multiply(sixth_h, g0 + 2.0 * (g1 + k3p) + k4p, out=out[1][0])
    k2q = g1 * half_h
    k3v = 1.0 + half_h * k2q
    k4q = g2 * (h * k3v)
    np.multiply(sixth_h, 1.0 + 2.0 * (1.0 + k3v) + (1.0 + h * k2q), out=out[0][1])
    d = np.multiply(sixth_h, 2.0 * (k2q + k2q) + k4q, out=out[1][1])
    return a + d + a * d - out[0][1] * out[1][0]


def _step_from(potential: PotentialModel, energy: float, x0: np.ndarray, x1: np.ndarray,
               units: Units, nodes: np.ndarray) -> np.ndarray:
    """The columns u, u', v, v' of nodes, at x0, carried by one RK4 step
    each to x1 (x1 = x0 keeps them bit for bit)."""
    m = np.empty((2, 2, x1.size))
    _step_matrices(potential, energy, units, x0, x1, np.empty((4, x1.size)), m)
    m[[0, 1], [0, 1]] += 1.0
    u, du, v, dv = nodes
    return np.array([m[0, 0] * u + m[0, 1] * du, m[1, 0] * u + m[1, 1] * du,
                     m[0, 0] * v + m[0, 1] * dv, m[1, 0] * v + m[1, 1] * dv])


def _wave(potential: PotentialModel, energy: float, units: Units, x: float,
          diving: bool) -> tuple[complex, complex, complex]:
    """The rightward unit wave R at x and R' there (H1_{iq}(z) / N on a
    diving end, else exp(ikx) (1 + phi)), and W[R, conj R] =
    -2i Im(conj(R) R'): R's flux is (hbar/m) Im(conj(R) R')."""
    k = math.sqrt(2.0 * units.mass * energy) / units.hbar
    if diving:
        a = potential.tail
        p, q = _p(potential, units), 2.0 * k * a

        def q_at(e: float) -> float:  # q at E = e, rounded as q is
            return 2.0 * (math.sqrt(2.0 * units.mass * e) / units.hbar) * a

        # each refusal names the bound on E whose q passes, stepped by ulps:
        # its formula rounds a few ulps off
        if not q > specfun.Q_MIN:
            low = specfun.Q_MIN**2 * units.hbar**2 / (8.0 * units.mass * a * a)
            while not q_at(low) > specfun.Q_MIN:
                low = math.nextafter(low, math.inf)
            while q_at(math.nextafter(low, 0.0)) > specfun.Q_MIN:
                low = math.nextafter(low, 0.0)
            raise DomainError(f"q = {q:g} is at or below Q_MIN = {specfun.Q_MIN:g}, where the "
                              f"diving end's H1 degenerates; raise E to at least {low!r}")
        if math.pi * q > 700.0:
            top = (700.0 / math.pi) ** 2 * units.hbar**2 / (8.0 * units.mass * a * a)
            while math.pi * q_at(top) > 700.0:
                top = math.nextafter(top, 0.0)
            while not math.pi * q_at(math.nextafter(top, math.inf)) > 700.0:
                top = math.nextafter(top, math.inf)
            raise DomainError(f"q = {q:g} overflows exp(q pi) in the diving end's H1; lower E "
                              f"to at most (700/pi)^2 hbar^2 / (8 m a^2) = {top!r}")
        z = p * math.exp(x / (2.0 * a))
        h1 = specfun.hankel_imag_order(q, z, kind=1)
        norm = math.sqrt(2.0 / (math.pi * p)) * math.exp(0.5 * math.pi * q)
        norm *= cmath.exp(-0.25j * math.pi)
        r, dr = h1.value / norm, h1.dvalue * (z / (2.0 * a)) / norm
    else:
        # R = e^{ikx} (1 + phi): phi = w / (lam^2 + 2ik lam) solves the ODE to
        # first order in a tail w = 2mV/hbar^2 of rate lam = V'/V = 1/tail;
        # phi = 0 where lam = 0
        lam, phi = 1.0 / potential.tail, 0.0
        if lam:
            w = 2.0 * units.mass * float(potentials.evaluate(potential, x)) / units.hbar**2
            phi = w / (lam * lam + 2j * k * lam)
        wave = cmath.exp(1j * k * x)
        r = wave * (1.0 + phi)
        dr = wave * (1j * k * (1.0 + phi) + lam * phi)
    im = (r.conjugate() * dr).imag
    if diving:
        flux, exact = units.hbar / units.mass * im, p * units.hbar / (2.0 * units.mass * a)
        if not flux > 0.1 * exact:
            raise AccuracyError(
                f"unit wave at z = {z:.3g} carries flux {flux:.3e}, not {exact:.3e}")
    return r, dr, -2j * im


def _project(wave: tuple[complex, complex, complex], node: np.ndarray) -> tuple[complex, complex]:
    """u's and v's coefficients along the unit wave (R, R', W[R, conj R]) of
    ``_wave``, from the end node (u, u', v, v'): c = W[f, conj R] /
    W[R, conj R] projects a real f onto R."""
    r, dr, w_r = wave
    u, du, v, dv = node.tolist()
    return tuple((f * dr.conjugate() - df * r.conjugate()) / w_r for f, df in ((u, du), (v, dv)))


def _is_plane(potential: PotentialModel, energy: float, x: float) -> bool:
    """Whether a plane wave may stand in at x: |V(x)| <= ASYMPTOTE_EPSILON * E."""
    return abs(float(potentials.evaluate(potential, x))) <= ASYMPTOTE_EPSILON * energy


def _plane_potential(potential: PotentialModel, energy: float, x: float, which: str) -> None:
    """Refuse a plane-wave end where |V(x)| > ASYMPTOTE_EPSILON * E."""
    if not _is_plane(potential, energy, x):
        v = abs(float(potentials.evaluate(potential, x)))
        raise DomainError(
            f"|V({which})| = {v:.3e} exceeds ASYMPTOTE_EPSILON * E = "
            f"{ASYMPTOTE_EPSILON * energy:.3e}; push {which} further out, or keep "
            f"E >= |V({which})| / ASYMPTOTE_EPSILON = {v / ASYMPTOTE_EPSILON:.3e}"
        )


def _p(potential: PotentialModel, units: Units) -> float:
    """p = sqrt(8 m |V(0)|) tail / hbar, z = p e^{x/(2 tail)} on a diving
    end; refused where it overflows or vanishes."""
    depth = abs(potentials.evaluate(potential, 0.0))
    p = math.sqrt(8.0 * units.mass * depth) * potential.tail / units.hbar
    if not 0.0 < p < math.inf:
        raise DomainError(f"p = sqrt(8 m v0 e^(-b/a)) a / hbar = {p!r} is out of range; it must "
                          "be a finite float > 0, so rescale v0, a, mass or hbar")
    return p
