"""ODE solver lane: basis integration, matching, and agreement with both
the closed forms and an independently derived rectangular-barrier oracle.
"""

import ast
import cmath
import contextlib
import dataclasses
import inspect
import io
import math
import re
import warnings

import numpy as np
import pytest

from expscatter import cli, exp_barrier, numeric_scatter, potentials, specfun, waves
from expscatter.errors import AccuracyError, DomainError
from expscatter.numeric_scatter import DEFAULT_UNITS, KH

EXP_MODEL = potentials.exponential(1.0, 1.0)


def rect_transmission(energy, v0, width, mass=0.5, hbar=1.0):
    # tunnelling through a rectangular barrier (E < v0), derived by hand
    # from matching plane waves to the decaying pair inside:
    # T = [1 + v0^2 sinh^2(kappa w) / (4 E (v0 - E))]^{-1}
    kappa = math.sqrt(2.0 * mass * (v0 - energy)) / hbar
    s = math.sinh(kappa * width)
    return 1.0 / (1.0 + v0**2 * s**2 / (4.0 * energy * (v0 - energy)))


# Frozen value of the formula above at E=0.5, v0=1, w=2, m=1/2, hbar=1,
# recomputed at 40 digits; guards the formula transcription as well.
RECT_T_FROZEN = 0.21077109396613053509


def rect_amplitude(energy, v0, width, mass=0.5, hbar=1.0):
    # the transmitted amplitude of a rectangle of any sign, derived by hand
    # in the same way, kappa = sqrt(2m (v0 - E)) / hbar imaginary above it:
    # t = e^{-ikw} / (cosh kappa w + i (kappa^2 - k^2) / (2 k kappa) sinh kappa w)
    k = math.sqrt(2.0 * mass * energy) / hbar
    kappa = cmath.sqrt(2.0 * mass * (v0 - energy)) / hbar
    mix = 1j * (kappa**2 - k**2) / (2.0 * k * kappa)
    return cmath.exp(-1j * k * width) / (cmath.cosh(kappa * width)
                                         + mix * cmath.sinh(kappa * width))


def assert_rect_formula(result, energy, v0, width):
    """T within 1e-9 relative and theta within 1e-9 of the hand formula."""
    t = rect_amplitude(energy, v0, width)
    assert abs(result.t_coeff / abs(t) ** 2 - 1.0) <= 1e-9
    assert waves.angle_distance(result.theta, cmath.phase(t)) <= 1e-9


@dataclasses.dataclass(frozen=True)
class Window:
    """An explicit window and step factor, which the oracles below march
    as they are; the lane places its own (``numeric_scatter._window``) and
    grows it only to cover the xs it is asked for."""

    x_left: float
    x_right: float
    kh: float = KH


def default_window(potential, energy, kh=KH):
    """The row's own window at ``energy``, which ``integrate_ends`` marches
    when it is asked for no x."""
    return Window(*numeric_scatter._window(potential, energy, DEFAULT_UNITS), kh)


def lane(potential, energy, window, xs=(), seed="left"):
    """``integrate_ends`` on ``window``, which must contain the row's own:
    the window's ends, asked for first, grow the row's window to it, and
    their node columns are dropped, so the record reads only xs."""
    own = default_window(potential, energy)
    assert window.x_left <= own.x_left and own.x_right <= window.x_right
    basis = numeric_scatter.integrate_ends(potential, energy, xs=[window.x_left, window.x_right,
                                                                   *xs], kh=window.kh, seed=seed)
    return basis._replace(nodes=basis.nodes[:, 2:], w_uv=basis.w_uv[2:])


def right_end(potential, window, units=DEFAULT_UNITS):
    """The right end the oracles read: x_right, or on a diving V the match
    point z = _Z_MATCH moved into the window, as ``integrate_ends`` reads
    it on any window that contains the row's own."""
    if not math.isfinite(potential.tail):
        return window.x_right
    p = numeric_scatter._p(potential, units)
    x = 2.0 * potential.tail * math.log(numeric_scatter._Z_MATCH / p)
    return min(max(x, window.x_left), window.x_right)


def build_grid(potential, energy, window, pins, xs=(), units=DEFAULT_UNITS):
    """``_grid`` on the window: its nodes and the indices of pins, then of xs."""
    return numeric_scatter._grid(potential, energy, window.x_left, window.x_right, window.kh,
                                 units, pins, np.asarray(xs, dtype=float))


def grid(potential, energy, config, units=DEFAULT_UNITS):
    """(every node of the row's grid, ascending; the right end's index), as
    ``integrate_ends`` builds it for no asked-for x."""
    pins = (config.x_left, right_end(potential, config, units))
    x, at = build_grid(potential, energy, config, pins, units=units)
    assert at[0] == 0
    return x, int(at[1])


def local_wavenumber(potential, energy, x, units=DEFAULT_UNITS):
    scale = 2.0 * units.mass / units.hbar**2
    return np.sqrt(np.abs(scale * (energy - potentials.evaluate(potential, x))))


class TestBasisIntegration:
    def test_free_basis_is_cos_sin(self):
        # V = 0, E = 1, m = 1/2: u'' = -u, so u = cos(x - s), v = sin(x - s)
        # from the seed s, the window end -5 or 5
        for seed, s in (("left", -5.0), ("right", 5.0)):
            basis = numeric_scatter.integrate_ends(potentials.free(), 1.0, xs=[0.5], seed=seed)
            u, du, v, _ = basis.nodes[:, 0]
            assert u == pytest.approx(math.cos(0.5 - s), abs=1e-10)
            assert v == pytest.approx(math.sin(0.5 - s), abs=1e-10)
            assert du == pytest.approx(-math.sin(0.5 - s), abs=1e-10)

    def test_square_well_interior_basis(self):
        # V = -1 inside |x| <= 1, E = 1, seeded at the window end s = -3 or
        # 3: u = cos(x - s), v = sin(x - s) up to the well's edge e on the
        # seed's side, then u'' = -2u carries each on by cos(sqrt(2) (x - e))
        # and sin(sqrt(2) (x - e)) / sqrt(2)
        well = potentials.rectangular(-1.0, 1.0)
        root2 = math.sqrt(2.0)
        for seed, s in (("left", -3.0), ("right", 3.0)):
            basis = numeric_scatter.integrate_ends(well, 1.0, xs=[0.5], seed=seed)
            u, _, v, _ = basis.nodes[:, 0]
            e = math.copysign(1.0, s)
            c, sn = math.cos(root2 * (0.5 - e)), math.sin(root2 * (0.5 - e)) / root2
            assert u == pytest.approx(math.cos(e - s) * c - math.sin(e - s) * sn, abs=1e-10)
            assert v == pytest.approx(math.sin(e - s) * c + math.cos(e - s) * sn, abs=1e-10)

    def test_wronskian_pinned_to_one(self):
        # the right end, z = 8, is x_right on the row's window
        x_right = default_window(EXP_MODEL, 1.0).x_right
        basis = numeric_scatter.integrate_ends(EXP_MODEL, 1.0, xs=[x_right])
        u, du, v, dv = basis.nodes[:, 0]
        assert abs(u * dv - du * v - 1.0) < 1e-9
        assert basis.drift < 1e-9

    def test_drift_improves_with_kh(self):
        # x_left = -8 fails the plane-wave end that integrate_ends checks
        drifts = []
        for kh in (8.0 * KH, 4.0 * KH):
            config = Window(x_left=-8.0, x_right=3.0, kh=kh)
            drifts.append(oracle_integrate_basis(EXP_MODEL, 0.25, config).drift)
        assert drifts[0] / drifts[1] > 8.0

    def test_coarse_kh_raises_accuracy_error(self):
        config = Window(x_left=-8.0, x_right=3.0, kh=0.1)
        with pytest.raises(AccuracyError, match="lower kh = 0.1"):
            oracle_integrate_basis(EXP_MODEL, 0.25, config)

    def test_drift_refusal_names_its_cause(self):
        # kh = 0.1 costs digits on the exponential (2.2e-6 over the whole
        # window, from its step) and on the deep rectangle at E = 1, which
        # kh = 0.003 solves to 4e-11 (see
        # test_deep_rectangle_matches_hand_formula); the window [-30, 3]
        # holds the row's own, so asking for its ends grows to it
        with pytest.raises(AccuracyError, match=re.escape(
                "drift 2.212e-06 exceeds DRIFT_TOLERANCE 1.000e-08; lower kh = 0.1 (")):
            numeric_scatter.integrate_ends(EXP_MODEL, 0.25, xs=[-30.0, 3.0], kh=0.1)
        rect = potentials.rectangular(50.0, 2.0)
        with pytest.raises(AccuracyError, match=re.escape(
                "drift 4.449e-06 exceeds DRIFT_TOLERANCE 1.000e-08; lower kh = 0.1 (")):
            numeric_scatter.integrate_ends(rect, 1.0, kh=0.1)

    def test_overflowing_basis_refused(self):
        # u and v grow like e^{kappa w} = e^{800} across this barrier; W[u, v]
        # overflows to NaN at the window ends, a clean refusal: no numpy
        # warning, no OverflowError
        rect = potentials.rectangular(1.0e4, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError, match="basis overflowed on the window"):
                numeric_scatter.integrate_ends(rect, 1.0)

    def test_long_wave_refused(self):
        # q = 2e-9, at or below Q_MIN, where the closed forms refuse too
        for refuse in (lambda: numeric_scatter.solve(EXP_MODEL, 1e-18),
                       lambda: numeric_scatter.integrate_ends(EXP_MODEL, 1e-18)):
            with pytest.raises(DomainError, match=r"^q = 2e-09 is at or below Q_MIN = 1e-08"):
                refuse()

    def test_nonpositive_energy_refused(self):
        for refuse in (lambda: numeric_scatter.solve(EXP_MODEL, 0.0),
                       lambda: numeric_scatter.integrate_ends(EXP_MODEL, 0.0)):
            with pytest.raises(DomainError, match="energy must be finite and > 0"):
                refuse()

    def test_kh_refused_with_its_text(self, monkeypatch):
        # refused before the window is placed
        monkeypatch.setattr(numeric_scatter, "_window", pytest.fail)
        for kh in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(DomainError) as caught:
                numeric_scatter.integrate_ends(potentials.free(), 1.0, kh=kh)
            assert str(caught.value) == f"kh must be finite and > 0, got {kh!r}"

    @pytest.mark.parametrize(
        "potential, energy, xs",
        [
            # K = 0.71 across a barrier 2e5 wide
            (potentials.rectangular(1.0, 1e5), 0.5, ()),
            # K h = kh across a window of 2e7 wavelengths
            (potentials.free(), 1.0, (-1e5, 1e5)),
            # K = 1e4 over the row's window, and K = 1e3 over a window
            # 32 a wide: an exponential's own window, z from 1e-3 q to
            # 8, holds at most q ln(8000 / q) / kh < 1e6 nodes
            (potentials.rectangular(1.0, 1.0), 1e8, ()),
            (EXP_MODEL, 1e6, (-30.0, 2.0)),
        ],
        ids=["wide-rect", "wide-window", "high-energy-rect", "high-energy-exp"],
    )
    def test_grid_past_the_node_cap_refused_before_the_march(
            self, potential, energy, xs, monkeypatch):
        monkeypatch.setattr(numeric_scatter, "_march", pytest.fail)
        with pytest.raises(DomainError, match=re.escape(f"the grid at E = {energy:g} needs about")
                           + ".* past the 5,000,000 node cap"):
            numeric_scatter.integrate_ends(potential, energy, xs=xs)

    def test_table_past_its_cap_refused_before_it_is_built(self, monkeypatch):
        # the step table is a/8 apart; a window 20,000 a wide would hold
        # 160,000 points, and V is not sampled on it
        evaluate = potentials.evaluate
        monkeypatch.setattr(potentials, "evaluate",
                            lambda m, x: pytest.fail() if np.size(x) > 2 else evaluate(m, x))
        with pytest.raises(DomainError, match=re.escape("[-20000, 5] is 2e+04 a wide, past the "
                                                        "15,000 a its step table holds")):
            numeric_scatter.integrate_ends(EXP_MODEL, 0.01, xs=[-2e4, 5.0])

    @pytest.mark.parametrize("ends", [(-5.0, 5.0), (-7.0, 5.0), (-5.0, 8.0), (-6.0, 6.0)])
    def test_seed_is_a_window_end(self, ends):
        # the row's window [-5, 5] grown to the ends: the basis is seeded at
        # the end it is told, where (u, u', v, v') = (1, 0, 0, 1) and
        # W[u, v] = 1, and marched to the other, where W[u, v] has drifted
        for seed, at in (("left", 0), ("right", 1)):
            basis = numeric_scatter.integrate_ends(potentials.free(), 1.0, xs=ends, seed=seed)
            assert basis.nodes[:, at].tolist() == [1.0, 0.0, 0.0, 1.0]
            assert basis.w_uv[at] == 1.0 and basis.w_uv[1 - at] != 1.0
        with pytest.raises(DomainError) as caught:
            numeric_scatter.integrate_ends(potentials.free(), 1.0, xs=ends, seed="middle")
        assert str(caught.value) == "seed must be 'left' or 'right', got 'middle'"

    @pytest.mark.parametrize(
        "potential, energy, config",
        [
            (EXP_MODEL, 0.01, None), (EXP_MODEL, 0.25, None), (EXP_MODEL, 5.0, None),
            (EXP_MODEL, 0.25, Window(x_left=-20.0, x_right=5.5)),
            (potentials.exponential(200.0, 1.0), 1.0, None),
            (potentials.rectangular(1.0, 1.0), 0.5, None),
            (potentials.rectangular(1.0, 1.0), 1.0, None),
            (potentials.rectangular(-3.0, 0.2), 4.0, Window(x_left=-1.0, x_right=5.0)),
            (potentials.free(), 0.1, None),
        ],
    )
    def test_steps_follow_the_rule(self, potential, energy, config):
        # h = kh min(l, 1/K) at each step's midpoint, to the table's 7%:
        # K varies by e^{1/16} over a table interval a/8 wide.  An
        # exponential's l is a / sqrt(2z), z = p e^{x/2a}; a rectangle's is
        # its window length
        config = config or default_window(potential, energy)
        x, _ = grid(potential, energy, config)
        h = np.diff(x)
        mid = x[:-1] + 0.5 * h
        if isinstance(potential, potentials.Exponential):
            a = potential.a
            z = exp_barrier.reduce_params(potential, energy).p * np.exp(mid / (2.0 * a))
            floor = np.sqrt(2.0 * z) / a
        else:
            floor = 1.0 / (config.x_right - config.x_left)
        ratio = h * np.maximum(floor, local_wavenumber(potential, energy, mid)) / config.kh
        assert np.all(h > 0.0)
        assert 0.93 <= ratio.min() and ratio.max() <= 1.07

    def test_pins_are_exact_nodes(self):
        # the ends, an inner pin, the match point and the edges; an
        # asked-for x takes the node at or below it
        rect = potentials.rectangular(1.0, 0.7)
        xs = np.array([0.3, -0.3, 2.0, 0.7, 0.3, 1e-13, -2.7])
        for potential, config in ((rect, default_window(rect, 0.5)),
                                  (EXP_MODEL, Window(x_left=-20.0, x_right=5.5))):
            pins = (config.x_left, 0.0, config.x_right)
            x, at = build_grid(potential, 0.5, config, pins, xs)
            assert x[at[:3]].tolist() == list(pins)
            assert np.all(x[at[3:]] <= xs) and np.all(xs < x[at[3:] + 1])
            assert np.all(np.diff(x) > 0.0)
        x, i_right = grid(rect, 0.5, default_window(rect, 0.5))
        assert {-0.7, 0.7} <= set(x.tolist()) and i_right == x.size - 1
        x, i_right = grid(EXP_MODEL, 0.5, Window(x_left=-20.0, x_right=5.5))
        assert x[i_right] == 2.0 * math.log(4.0)

    @pytest.mark.parametrize("name", ["exp", "exp-grown", "exp-deep", "rect-edges-on-nodes"])
    def test_xs_leave_the_grid_alone(self, name):
        # an asked-for x is read from the node at or below it, which is the
        # x itself on a node: no x moves a node
        potential, energy, config = bit_case(name)
        x, i_right = grid(potential, energy, config)
        pins = (config.x_left, x[i_right])
        some = x[np.random.default_rng(5).integers(0, x.size, 50)]
        off = 0.5 * (x[:-1] + x[1:])[::997]
        for xs, below in ((x[::-1], np.arange(x.size)[::-1]),
                          (some, np.searchsorted(x, some)),
                          (off, np.arange(x.size - 1)[::997])):
            again, at = build_grid(potential, energy, config, pins, xs)
            assert again.tobytes() == x.tobytes()
            assert at[:2].tolist() == [0, i_right] and at[2:].tolist() == below.tolist()

    def test_nodes_grow_with_the_wavenumber(self):
        # README rows: the step is kh a / sqrt(2z) where K < sqrt(2z) / a,
        # kh / K elsewhere (10,004 and 10,408 nodes at the fixed cap l = a;
        # 6,802, 11,118, 19,376 and 79,189 on the one window z = 2e^-10 to
        # 12; 7,697 and 12,102 where a pin at x = 0 split a step)
        counts = [grid(EXP_MODEL, energy, default_window(EXP_MODEL, energy))[0].size
                  for energy in (0.01, 1.0, 5.0, 100.0)]
        assert counts == [5_416, 7_696, 12_101, 40_206]

    def test_non_finite_xs_refused_with_their_text(self, monkeypatch):
        # refused before the window is placed, with the first such x
        monkeypatch.setattr(numeric_scatter, "_window", pytest.fail)
        for xs, bad in (([math.nan], "nan"), ([0.0, math.inf, math.nan], "inf"),
                        ([-math.inf], "-inf")):
            with pytest.raises(DomainError) as caught:
                numeric_scatter.integrate_ends(potentials.free(), 1.0, xs=xs)
            assert str(caught.value) == f"xs must be finite, got {bad}"

    def test_xs_grow_the_window_and_never_shrink_it(self, monkeypatch):
        # the row's window [-5, 5] grown to the xs, its ends pinned
        seen = []
        build = numeric_scatter._grid
        monkeypatch.setattr(numeric_scatter, "_grid",
                            lambda *args: seen.append(args[2:5] + args[6:7]) or build(*args))
        for xs in ((), (0.5,), (-7.0, 2.0), (8.0,), (-6.0, 6.0)):
            numeric_scatter.integrate_ends(potentials.free(), 1.0, xs=xs)
        assert [(lo, hi, pins) for lo, hi, _, pins in seen] == [
            (-5.0, 5.0, (-5.0, 5.0)), (-5.0, 5.0, (-5.0, 5.0)),
            (-7.0, 5.0, (-7.0, 5.0)), (-5.0, 8.0, (-5.0, 8.0)),
            (-6.0, 6.0, (-6.0, 6.0))]
        assert {kh for _, _, kh, _ in seen} == {KH}

    def test_window_off_zero_samples_only_inside(self, monkeypatch):
        # each model's own window misses x = 0: it lies right of x = 0 on
        # the shifted one and left of it on the deep one
        seen, marches = [], []
        evaluate, march = potentials.evaluate, numeric_scatter._march
        monkeypatch.setattr(potentials, "evaluate",
                            lambda m, x: seen.append(np.array(x)) or evaluate(m, x))

        def recorded(potential, energy, x, units, at):
            before = len(seen)
            marched = march(potential, energy, x, units, at)
            marches.append((x.size - 1, x[0], seen[before:]))
            return marched

        monkeypatch.setattr(numeric_scatter, "_march", recorded)
        for model, end in ((potentials.exponential(1.0, 1.0, 30.0), 0),
                           (potentials.exponential(200.0, 1.0), 1)):
            lo, hi = numeric_scatter._window(model, 0.5, DEFAULT_UNITS)
            assert 0.0 < lo if end == 0 else hi < 0.0
            for seed, start in (("left", lo), ("right", hi)):
                seen.clear()
                marches.clear()
                basis = numeric_scatter.integrate_ends(model, 0.5, xs=[start], seed=seed)
                assert basis.nodes[:, 0].tolist() == [1.0, 0.0, 0.0, 1.0]
                # one march, from the seed: the samples are one triple per
                # step, each strictly inside the window
                (steps, first, marched), = marches
                assert steps > 0 and first == start
                assert sum(x.shape[1] for x in marched) == steps
                assert all(x.shape[0] == 3 and lo < np.min(x) and np.max(x) < hi
                           for x in marched)
                # V(0) gives the depth that places the window and the diving
                # end's p; the plane-wave checks and the grid's table read
                # the window ends, and the asked-for x's zero step the seed
                inside = [x for x in seen if not (np.ndim(x) == 0 and x == 0.0)]
                assert all(lo <= np.min(x) and np.max(x) <= hi for x in inside)
                assert [x.tolist() for x in inside if x.shape == (3, 1)] == [[[start]] * 3]


def loop_march(g, hs):
    """Scalar RK4 march of the (u, v) pair, one step at a time: the oracle
    for the step-matrix march.  g holds 3 samples per step, hs the steps."""
    u, du, v, dv = 1.0, 0.0, 0.0, 1.0
    us = [u]; dus = [du]; vs = [v]; dvs = [dv]
    for i, h in enumerate(hs):
        half_h = 0.5 * h
        sixth_h = h / 6.0
        g0 = g[3 * i]; g1 = g[3 * i + 1]; g2 = g[3 * i + 2]
        k1u = du;                k1p = g0 * u
        k2u = du + half_h * k1p; k2p = g1 * (u + half_h * k1u)
        k3u = du + half_h * k2p; k3p = g1 * (u + half_h * k2u)
        k4u = du + h * k3p;      k4p = g2 * (u + h * k3u)
        k1v = dv;                k1q = g0 * v
        k2v = dv + half_h * k1q; k2q = g1 * (v + half_h * k1v)
        k3v = dv + half_h * k2q; k3q = g1 * (v + half_h * k2v)
        k4v = dv + h * k3q;      k4q = g2 * (v + h * k3v)
        u += sixth_h * (k1u + 2.0 * (k2u + k3u) + k4u)
        du += sixth_h * (k1p + 2.0 * (k2p + k3p) + k4p)
        v += sixth_h * (k1v + 2.0 * (k2v + k3v) + k4v)
        dv += sixth_h * (k1q + 2.0 * (k2q + k3q) + k4q)
        us.append(u); dus.append(du); vs.append(v); dvs.append(dv)
    return [np.array(c) for c in (us, dus, vs, dvs)]


def loop_basis(potential, energy, config):
    """(u, u', v, v') over the whole grid from the scalar oracle, seeded at
    its left end and sampled exactly as integrate_ends samples."""
    x, _ = grid(potential, energy, config)
    scale = 2.0 * DEFAULT_UNITS.mass / DEFAULT_UNITS.hbar**2
    g = scale * (potentials.evaluate(potential, oracle_samples(x)) - energy)
    return loop_march(g.tolist(), np.diff(x).tolist())


def rough(model, x):
    """A stand-in potential for the march tests, rough on every scale of
    their steps."""
    x = np.asarray(x, dtype=float)
    return np.cos(977.0 * x) + 0.5 * np.sin(31.0 * x) - 0.5


@pytest.fixture
def rough_potential(monkeypatch):
    monkeypatch.setattr(potentials, "evaluate", rough)


def random_nodes(n, direction, seed=None):
    """n + 1 nodes from the seed x = 0.25 outward, steps 5e-4 to 1.5e-3."""
    steps = np.random.default_rng(n if seed is None else seed).uniform(5e-4, 1.5e-3, n)
    return 0.25 + direction * np.concatenate(([0.0], np.cumsum(steps)))


def products(x, picks=()):
    """The march on the rough potential at E = 0, m = 1/2, hbar = 1 over
    the nodes x from the seed x[0] in their order (h < 0 where they
    descend): the nodes picks (steps from the seed) and the dets."""
    return numeric_scatter._march(EXP_MODEL, 0.0, x, DEFAULT_UNITS,
                                  np.asarray(picks, dtype=np.int64))


def march(x):
    """(u, u', v, v') that the march gives at every node of x, the seed first."""
    nodes = products(x, np.arange(1, x.size))[0]
    return [np.concatenate(([seed], row)) for seed, row in zip((1.0, 0.0, 0.0, 1.0), nodes)]


def rough_march(x):
    """The oracle march's (u, u', v, v') at every node of x on the rough potential."""
    return np.array(oracle_march(1.0 * (rough(None, oracle_samples(x)) - 0.0), np.diff(x)))


def step_dets(x):
    """The step-order oracle's det M - 1 of the steps between the nodes x
    on the rough potential."""
    return oracle_step_dets(1.0 * (rough(None, oracle_samples(x)) - 0.0), np.diff(x))


def drift_of(nodes):
    """max |W - 1| over node rows u, u', v, v': the gate that the det sum
    replaced, and the reference it must never be looser than."""
    u, du, v, dv = nodes
    return np.max(np.abs(u * dv - du * v - 1.0))


def assert_same_march(got, want, rel=1e-12):
    for g_col, w_col in zip(got, want):
        assert g_col.shape == w_col.shape
        assert np.max(np.abs(g_col - w_col)) <= rel * np.max(np.abs(w_col))


@pytest.mark.usefixtures("rough_potential")
class TestStepMatrixMarch:
    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 40000])
    def test_equals_scalar_loop(self, n):
        # tree levels with and without a run left over, and a power of two
        for direction in (1.0, -1.0):
            x = random_nodes(n, direction)
            g = 1.0 * (rough(None, oracle_samples(x)) - 0.0)
            assert_same_march(march(x), loop_march(g.tolist(), np.diff(x).tolist()))

    def test_no_steps_is_the_seed(self):
        # a march of no steps has no node past the seed to pick and no det
        nodes, dets = products(np.array([0.25]))
        assert dets.shape == (0,) and nodes.shape == (4, 0)
        assert np.array(march(np.array([0.25]))).tolist() == [[1.0], [0.0], [0.0], [1.0]]

    def test_non_finite_samples_refused(self, monkeypatch):
        x = random_nodes(120, 1.0, seed=3)
        for bad in (np.nan, np.inf):
            monkeypatch.setattr(potentials, "evaluate",
                                lambda m, xs, bad=bad: np.where(xs > x[70], bad, rough(m, xs)))
            with pytest.raises(DomainError, match="potential is not finite"):
                products(x)

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 7167, 40000])
    def test_reader_equals_the_node_writer(self, n):
        # the dets and the picked nodes, every node in any order and
        # repeats included, bit for bit the step-order oracle's
        every = np.random.default_rng(n).permutation(np.arange(1, n + 1))
        for direction in (1.0, -1.0):
            x = random_nodes(n, direction)
            nodes = rough_march(x)
            for picks in (every, sorted({1, n // 2 + 1, n}), [n, 1, n, n // 2 + 1, 1], []):
                picked, dets = products(x, picks)
                assert dets.tobytes() == step_dets(x).tobytes()
                assert picked.tobytes() == np.ascontiguousarray(nodes[:, picks]).tobytes()

    @pytest.mark.parametrize("n_left, n_right", [
        (0, 0), (0, 17), (17, 0), (16, 16), (15, 17), (1, 40000),
        # halves of unequal length
        (3, 1000), (1000, 3), (600, 520), (520, 600),
        # a half past _CHUNK, so that a chunk ends on either side of the join
        (9000, 700), (700, 9000), (8200, 8300),
    ])
    def test_both_halves_from_one_tree(self, n_left, n_right):
        # a window of a left and a right half about x = 0.25, marched in
        # one tree from either end: picks in both halves, out of order and
        # repeated, both ends and the join among them, each bit for bit the
        # oracle march's node from that end, and the dets bit for bit the
        # step-order oracle's
        left = random_nodes(n_left, -1.0)
        right = random_nodes(n_right, 1.0, seed=n_right + 1)
        x = np.concatenate((left[::-1], right[1:]))
        at = np.random.default_rng(n_left + 7 * n_right).integers(0, x.size, 200)
        at = np.concatenate((at, at[::-3], [n_left, 0, x.size - 1, n_left]))
        for walk in (x, x[::-1]):
            nodes, dets = products(walk, at)
            assert nodes.tobytes() == np.ascontiguousarray(rough_march(walk)[:, at]).tobytes()
            assert dets.tobytes() == step_dets(walk).tobytes()

    def test_overflowing_back_half_keeps_its_bits(self, monkeypatch):
        # g = 1.6e7 grows u and v by e^4 a step, past a double in 178
        # steps: the back half of a march of 555 steps, every node past the
        # overflow, from either end, keeps the oracle's bits, whether the
        # zero factors of a pick's clear bits leave it inf or make it nan
        monkeypatch.setattr(potentials, "evaluate", lambda m, xs: np.full_like(xs, 1.6e7))
        x = 0.25 + 1e-3 * np.arange(-255, 301)
        for walk in (x, x[::-1]):
            with np.errstate(over="ignore", invalid="ignore"):
                nodes = products(walk, np.arange(walk.size))[0]
                want = np.array(oracle_march(np.full(3 * (walk.size - 1), 1.6e7), np.diff(walk)))
            assert not np.isfinite(nodes[:, 200:]).all(axis=0).any()
            assert nodes.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 7167, 40000])
    def test_dets_are_the_real_steps(self, n):
        # det M_i - 1 of steps 0..n-1 in step order, bit for bit the
        # step-order oracle's, whichever nodes are picked
        for direction in (1.0, -1.0):
            x = random_nodes(n, direction)
            want = step_dets(x).tobytes()
            assert products(x)[1].tobytes() == products(x, [n, 1])[1].tobytes() == want

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 7167, 40000])
    def test_samples_are_the_step_offsets(self, n, monkeypatch):
        # the march samples each step at its _SAMPLES in step order, the
        # same floats as the step-ordered oracle, and nothing else
        seen = []
        monkeypatch.setattr(potentials, "evaluate",
                            lambda m, xs: seen.append(xs.copy()) or rough(m, xs))
        for direction in (1.0, -1.0):
            x = random_nodes(n, direction)
            seen.clear()
            products(x)
            samples = np.concatenate(seen, axis=1)
            assert samples.shape == (3, n)
            got = samples.T.reshape(-1)
            assert got.tobytes() == oracle_samples(x).tobytes()
            inside = (got.reshape(n, 3) - x[:-1, None]) / np.diff(x)[:, None]
            assert 0.0 < inside.min() and inside.max() < 1.0


class TestMarchOnModels:
    @pytest.mark.parametrize(
        "potential, energy",
        [
            (EXP_MODEL, 0.25),  # 6,673 steps of near-free left tail
            (potentials.rectangular(1.0, 1.0), 0.5),  # across both barrier edges
            (potentials.free(), 1.0),
        ],
        ids=["exp-left-tail", "rect-edge", "free"],
    )
    def test_basis_equals_scalar_loop(self, potential, energy):
        config = default_window(potential, energy)
        basis = integrate_every_node(potential, energy, config)
        assert_same_march(list(basis.nodes), loop_basis(potential, energy, config))

    def test_drift_floor_on_default_exp_window(self):
        basis = numeric_scatter.integrate_ends(EXP_MODEL, 0.25)
        assert basis.drift <= 2e-13


# The pairwise march, written apart from the lane's (steps first, matrix
# axes last): the oracle that the march must reproduce bit for bit.


def oracle_samples(x: np.ndarray) -> np.ndarray:
    """Sample abscissae of the steps between the nodes x: three per step, all interior."""
    x0, h = x[:-1], x[1:] - x[:-1]
    return (x0[:, None] + np.multiply.outer(h, numeric_scatter._SAMPLES)).reshape(-1)


def oracle_compose(late: np.ndarray, early: np.ndarray) -> np.ndarray:
    """(I + late)(I + early) - I for matrices held as M - I (matrix axes
    last): late + early, then each term of their product in turn."""
    return (late + early + late[..., :, :1] * early[..., :1, :]
            + late[..., :, 1:] * early[..., 1:, :])


def oracle_march(g: np.ndarray, hs: np.ndarray) -> tuple[np.ndarray, ...]:
    """March u'' = g(x) u for the (u, v) pair; g holds 3 samples per step,
    hs the steps.  Each step matrix M (column c the step applied to seed
    c) is held as M - I.  runs[l][k] is the product of steps k 2^l to
    (k + 1) 2^l - 1, formed from runs[l - 1][2k + 1] and runs[l - 1][2k].
    The product of the first t steps multiplies the runs that t's set bits
    name, the highest bit's first: one factor per level, the identity for
    a clear bit and for the factors that pad them to a power of two,
    multiplied in pairs, then those in pairs, down to one."""
    n = hs.size
    g0, g1, g2 = g.reshape(n, 3).T
    a, c = oracle_rk4_increments(1.0, 0.0, g0, g1, g2, hs)
    b, d = oracle_rk4_increments(0.0, 1.0, g0, g1, g2, hs)
    runs = [np.stack((a, b, c, d), axis=-1).reshape(n, 2, 2)]
    while len(runs[-1]) >= 2:
        paired = runs[-1][: len(runs[-1]) // 2 * 2]
        runs.append(oracle_compose(paired[1::2], paired[0::2]))
    count = 1
    while count < len(runs):
        count *= 2
    t = np.arange(n + 1)
    factors = np.zeros((count, n + 1, 2, 2))
    for slot, level in enumerate(range(len(runs) - 1, -1, -1)):
        named = (t >> level) % 2 == 1
        factors[slot, named] = runs[level][(t[named] >> (level + 1)) * 2]
    while len(factors) > 1:
        factors = oracle_compose(factors[1::2], factors[0::2])
    p = factors[0] + np.eye(2)
    return p[:, 0, 0], p[:, 1, 0], p[:, 0, 1], p[:, 1, 1]


def oracle_rk4_increments(u, du, g0, g1, g2, h):
    """What one classical RK4 step of (u, u') for u'' = g u adds to them,
    with g sampled at the start, middle and end of the step; works on
    scalars and arrays."""
    half_h = 0.5 * h
    sixth_h = h / 6.0
    k1u = du;                k1p = g0 * u
    k2u = du + half_h * k1p; k2p = g1 * (u + half_h * k1u)
    k3u = du + half_h * k2p; k3p = g1 * (u + half_h * k2u)
    k4u = du + h * k3p;      k4p = g2 * (u + h * k3u)
    return sixth_h * (k1u + 2.0 * (k2u + k3u) + k4u), sixth_h * (k1p + 2.0 * (k2p + k3p) + k4p)


def oracle_rk4_step(u, du, g0, g1, g2, h):
    """One classical RK4 step of (u, u') for u'' = g u."""
    step_u, step_du = oracle_rk4_increments(u, du, g0, g1, g2, h)
    return u + step_u, du + step_du


def oracle_step_dets(g: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """det M_i - 1 of the RK4 steps hs in step order, g holding 3 samples
    per step, each formed from what the step adds to the seeds (1, 0) and
    (0, 1), M - I = [[a, b], [c, d]], as a + d + a d - b c."""
    g0, g1, g2 = g.reshape(hs.size, 3).T
    a, c = oracle_rk4_increments(1.0, 0.0, g0, g1, g2, hs)
    b, d = oracle_rk4_increments(0.0, 1.0, g0, g1, g2, hs)
    return a + d + a * d - b * c


def oracle_walk_dets(potential, energy, walk, units=DEFAULT_UNITS):
    """The step-order dets of a march over the nodes walk."""
    return oracle_step_dets(oracle_g(potential, energy, walk, units), walk[1:] - walk[:-1])


def oracle_g(potential, energy, x, units=DEFAULT_UNITS):
    """2m (V - energy) / hbar^2 at the samples of the steps between the nodes x."""
    scale = 2.0 * units.mass / units.hbar**2
    return scale * (potentials.evaluate(potential, oracle_samples(x)) - energy)


def oracle_w_uv(potential, energy, x, seed="left", units=DEFAULT_UNITS):
    """W[u, v] at every node of the grid x, in grid order, as the march
    from the window end seed carries it without round-off: 1 plus the
    running sum of the step-order dets from the seed; and the drift, the
    sum of their moduli over the whole window."""
    walk = x if seed == "left" else x[::-1]
    dets = oracle_walk_dets(potential, energy, walk, units)
    w_uv = 1.0 + np.concatenate(([0.0], np.cumsum(dets)))
    return (w_uv if seed == "left" else w_uv[::-1]), float(np.abs(dets).sum())


def project_ends(potential, energy, x, i_right, nodes, w_uv, units=DEFAULT_UNITS):
    """The left end node and the right end node i_right of nodes, on the
    grid x, projected onto their unit waves as ``integrate_ends`` does,
    each with its W[u, v] of w_uv; only an exponential's right end dives."""
    diving = isinstance(potential, potentials.Exponential)
    ends = []
    for i, dives in ((0, False), (i_right, diving)):
        wave = numeric_scatter._wave(potential, float(energy), units, x[i], dives)
        ends.append(numeric_scatter._End(*numeric_scatter._project(wave, nodes[:, i]), wave[2],
                                         float(w_uv[i])))
    return tuple(ends)


def oracle_nodes(potential, energy, config, units=DEFAULT_UNITS, seed="left"):
    """Every node of the row's grid in grid order, picked whole from its
    march from the window end seed: (x, the right end's index, the nodes)."""
    x, i_right = grid(potential, energy, config, units)
    walk = x if seed == "left" else x[::-1]
    picks = np.arange(x.size) if seed == "left" else np.arange(x.size)[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = numeric_scatter._march(potential, energy, walk, units, picks)[0]
    return x, i_right, nodes


def oracle_integrate_basis(potential, energy, config, units=DEFAULT_UNITS, seed="left"):
    """The whole-grid basis: every node from the oracle writer as the nodes
    of the record, with its step-order W[u, v], its two end nodes projected,
    and the step-order drift.  It checks the energy (``_window``), forms
    the end waves and gates the basis in the order integrate_ends does,
    but checks no plane-wave end."""
    numeric_scatter._window(potential, energy, units)
    x, i_right, nodes = oracle_nodes(potential, energy, config, units, seed)
    w_uv, drift = oracle_w_uv(potential, energy, x, seed, units)
    ends = project_ends(potential, energy, x, i_right, nodes, w_uv, units)
    with np.errstate(over="ignore", invalid="ignore"):
        numeric_scatter._check_drift(drift, config.x_left, config.x_right, config.kh,
                                     nodes[:, [0, i_right]])
    return numeric_scatter.BasisPair(ends=ends, nodes=nodes, w_uv=w_uv, drift=drift)


def oracle_scattering_wavefunction(basis, result, units=DEFAULT_UNITS):
    """Matched solution psi = c_u u + c_v v at the basis nodes, normalized
    to unit incident wave, in complex arithmetic: (psi, dpsi, flux)."""
    u, du, v, dv = basis.nodes
    scale = 1.0 / result.incident
    psi = scale * (result.c_u * u + result.c_v * v)
    dpsi = scale * (result.c_u * du + result.c_v * dv)
    flux = (units.hbar / units.mass) * np.imag(np.conj(psi) * dpsi)
    return psi, dpsi, flux


def integrate_every_node(potential, energy, config, seed="left"):
    """``integrate_ends`` on the window, asked for every node of its grid."""
    x, _ = grid(potential, energy, config)
    return lane(potential, energy, config, xs=x, seed=seed)


def oracle_basis(potential, energy, config, seed="left"):
    """The bytes of the rows u, u', v, v' and of W[u, v], the bits of the
    two projected ends and the drift, as the oracle march from the window
    end seed and the step-order dets give them on the row's grid."""
    x, i_right = grid(potential, energy, config)
    walk = x if seed == "left" else x[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = np.array(oracle_march(oracle_g(potential, energy, walk), walk[1:] - walk[:-1]))
    nodes = nodes if seed == "left" else nodes[:, ::-1]
    w_uv, drift = oracle_w_uv(potential, energy, x, seed)
    ends = project_ends(potential, energy, x, i_right, nodes, w_uv)
    return [c.tobytes() for c in nodes], w_uv.tobytes(), [end_bits(end) for end in ends], drift


def end_bits(end):
    """A projected end's u, v, W[R, conj R] and W[u, v] by their bits."""
    return [z.hex() for c in end for z in (c.real, c.imag)]


def basis_bytes(basis):
    # an integrated basis is real
    assert basis.nodes.dtype == np.float64
    return ([c.tobytes() for c in basis.nodes], basis.w_uv.tobytes(),
            [end_bits(end) for end in basis.ends], basis.drift)


# a window the lane never marches: it misses the row's own at both ends
INNER = Window(x_left=-3.0, x_right=2.0, kh=0.01)
DEEP = potentials.exponential(200.0, 1.0)  # z = 8 at x = -2.53, left of x = 0
BIT_CASES = {
    # default window: the left tail and the diving right end
    "exp": (EXP_MODEL, 0.25, None),
    "exp-q4": (EXP_MODEL, 4.0, None),
    "expshift": (potentials.exponential(1.0, 1.0, -1.5), 1.3, None),
    "rect-edges-on-nodes": (potentials.rectangular(1.0, 1.0), 0.5, None),
    # E == v0: g is exactly zero inside the barrier
    "rect-at-v0": (potentials.rectangular(1.0, 1.0), 1.0, None),
    "free": (potentials.free(), 1.0, None),
    "exp-inner-window": (EXP_MODEL, 0.7, INNER),
    # windows grown past z = 8: its node inside the right, then the left march
    "exp-grown": (EXP_MODEL, 0.25, Window(x_left=-20.0, x_right=5.5)),
    "exp-deep-grown": (DEEP, 1.0, Window(x_left=-21.71, x_right=1.0)),
}
# the default window of DEEP, wholly left of x = 0
ENDS_CASES = {**BIT_CASES, "exp-deep": (DEEP, 1.0, None)}


def bit_case(name):
    potential, energy, config = ENDS_CASES[name]
    return potential, energy, config or default_window(potential, energy)


class TestBitExactMarch:
    @pytest.mark.parametrize("name", sorted(BIT_CASES))
    def test_basis_bytes_equal_the_oracle(self, name):
        # from either window end
        potential, energy, config = bit_case(name)
        for seed in ("left", "right"):
            want = oracle_basis(potential, energy, config, seed)
            assert basis_bytes(oracle_integrate_basis(potential, energy, config, seed=seed)) == want
            if name != "exp-inner-window":
                assert basis_bytes(integrate_every_node(potential, energy, config, seed)) == want

    @pytest.mark.parametrize("name", sorted(BIT_CASES))
    def test_reader_equals_the_oracle_writer(self, name):
        # every node of the window from one march, from either end, bit for
        # bit the oracle march's, and its dets the step-order oracle's
        potential, energy, config = bit_case(name)
        x, _ = grid(potential, energy, config)
        for walk in (x, x[::-1]):
            with np.errstate(over="ignore", invalid="ignore"):
                nodes, dets = numeric_scatter._march(potential, energy, walk, DEFAULT_UNITS,
                                                     np.arange(walk.size))
                want = np.array(oracle_march(oracle_g(potential, energy, walk), np.diff(walk)))
            assert nodes.tobytes() == want.tobytes()
            assert dets.tobytes() == oracle_walk_dets(potential, energy, walk).tobytes()

    @pytest.mark.parametrize("name", sorted(set(BIT_CASES) - {"exp-inner-window"}))
    def test_drift_equals_the_whole_window_one(self, name):
        for seed in ("left", "right"):
            want = oracle_integrate_basis(*bit_case(name), seed=seed).drift
            assert lane(*bit_case(name), seed=seed).drift == want

    def test_alternating_windows_equal_fresh_calls(self):
        # nothing a call leaves behind may reach the next one
        names = ["exp", "rect-edges-on-nodes", "exp-inner-window", "expshift"]
        fresh = {name: basis_bytes(oracle_integrate_basis(*bit_case(name))) for name in names}
        for name in names + names[::-1] + names:
            assert basis_bytes(oracle_integrate_basis(*bit_case(name))) == fresh[name]

    def test_windows_follow_the_seed(self):
        # two windows of equal width but different seeds
        near, far = (Window(x_left=x, x_right=x + 2.0) for x in (1.0, 3.0))
        fresh = basis_bytes(oracle_integrate_basis(EXP_MODEL, 0.5, far))
        oracle_integrate_basis(EXP_MODEL, 0.5, near)
        assert basis_bytes(oracle_integrate_basis(EXP_MODEL, 0.5, far)) == fresh

    def test_each_energy_grids_its_own_row(self, monkeypatch):
        # no sampling is shared: every energy builds its grid and marches it
        seen = []
        build = numeric_scatter._grid
        monkeypatch.setattr(numeric_scatter, "_grid",
                            lambda *args: seen.append(args[1]) or build(*args))
        for energy in (0.25, 0.5, 1.0):
            numeric_scatter.integrate_ends(EXP_MODEL, energy)
        assert seen == [0.25, 0.5, 1.0]


def det_drift(potential, energy, config):
    """The drift integrate_ends gates, read off the march whether or not
    the row is refused."""
    x, _ = grid(potential, energy, config)
    dets = numeric_scatter._march(potential, energy, x, DEFAULT_UNITS, ())[1]
    return float(np.abs(dets).sum())


def w_drift(potential, energy, config):
    """max |W - 1| over every node of the whole window from the oracle
    writer: the gate that the det sum replaced."""
    nodes = oracle_nodes(potential, energy, config)[2]
    with np.errstate(over="ignore", invalid="ignore"):
        return float(drift_of(nodes))


# the BIT_CASES, then a kh ladder on the exponential and a shallow rectangle
GATE_CASES = [bit_case(name) for name in sorted(BIT_CASES)] + [
    (model, energy, default_window(model, energy, kh))
    for model in (EXP_MODEL, potentials.rectangular(1.0, 1.0))
    for kh in (0.003, 0.03, 0.1) for energy in (0.05, 0.5, 5.0)]


def test_det_gate_is_never_looser_than_the_w_gate():
    # where the products' round-off is small, max |W - 1| reads the step
    # too: there the det sum reads at least as much (0.99 for the last
    # digits), and every row the W gate refuses stays refused
    refused = {"w": set(), "det": set()}
    for case, (potential, energy, config) in enumerate(GATE_CASES):
        old, new = w_drift(potential, energy, config), det_drift(potential, energy, config)
        assert old <= 1e-11 or new >= 0.99 * old
        if not old <= numeric_scatter.DRIFT_TOLERANCE:
            refused["w"].add(case)
        try:
            oracle_integrate_basis(potential, energy, config)
        except AccuracyError as exc:
            assert "lower kh" in str(exc)
            refused["det"].add(case)
    # every kh = 0.1 row, and exp at kh = 0.03 and E = 5, which drifts
    # 1.2e-8 over its whole window from z = 4.5e-3 (9.2e-9 over the worse
    # half-window from a seed at x = 0)
    assert len(refused["w"]) == 7 and refused["w"] <= refused["det"]


def result_bits(result):
    """Every field of a NumericScatteringResult, floats and complexes by their bits."""
    def bits(x):
        if isinstance(x, complex):
            return x.real.hex(), x.imag.hex()
        return x.hex() if isinstance(x, float) else x

    return [bits(getattr(result, name)) for name in result._fields]


def outcomes(solve_sides, sides=("left", "right")):
    """The bits of each side's result, or the refusal that stops them."""
    try:
        return [result_bits(r) for r in solve_sides(sides)]
    except (DomainError, AccuracyError) as exc:
        return (type(exc), str(exc))


class TestEndsReader:
    """``integrate_ends`` serves ``solve`` and the sweep rows: ``match`` on it
    must give the bits it gives on the whole basis, refusals included."""

    @staticmethod
    def whole_basis(potential, energy, config):
        def solve_sides(sides):
            # the plane-wave ends are refused before the grid, as
            # integrate_ends refuses them
            numeric_scatter._window(potential, energy, DEFAULT_UNITS)
            numeric_scatter._plane_potential(potential, float(energy), config.x_left, "x_left")
            if not isinstance(potential, potentials.Exponential):
                numeric_scatter._plane_potential(potential, float(energy), config.x_right,
                                                 "x_right")
            basis = oracle_integrate_basis(potential, energy, config)
            return [numeric_scatter.match(basis, side) for side in sides]

        return solve_sides

    @pytest.mark.parametrize("name", sorted(ENDS_CASES))
    def test_solve_equals_match_on_the_whole_basis(self, name):
        # solve places the row's own window; a case's grown window is read
        # through integrate_ends (test_only_the_matched_nodes_are_built)
        potential, energy, _ = bit_case(name)
        want = outcomes(self.whole_basis(potential, energy, default_window(potential, energy)))
        got = outcomes(lambda sides: [
            numeric_scatter.solve(potential, energy, side) for side in sides])
        assert got == want and not isinstance(want, tuple)

    @pytest.mark.parametrize("name", sorted(ENDS_CASES))
    def test_sweep_rows_equal_match_on_the_whole_basis(self, name, monkeypatch):
        # each row places its own window at its own energy
        potential, energy, _ = bit_case(name)
        seen = []
        match = numeric_scatter.match
        monkeypatch.setattr(numeric_scatter, "match",
                            lambda basis, side: seen.append(match(basis, side)) or seen[-1])
        spec = cli.SweepSpec(potential, energy, 2.0 * energy, 2, "linear", "both", "numeric",
                             DEFAULT_UNITS)
        table = cli.run_sweep(spec)
        monkeypatch.undo()
        assert table["E"][0] == energy
        for row_energy, error in zip(table["E"], table["error"]):
            config = default_window(potential, row_energy)
            want = outcomes(self.whole_basis(potential, row_energy, config))
            if isinstance(want, tuple):
                assert error == want[1]
            else:
                got = [result_bits(r) for r in seen[:2]]
                del seen[:2]
                assert error is None and got == want
        assert seen == []

    @pytest.mark.parametrize(
        "potential, energy, config, message",
        [
            # kappa w = 800 across the barrier: u and v overflow to a NaN Wronskian
            (potentials.rectangular(1.0e4, 4.0), 1.0, None,
             "the basis overflowed on the window"),
            # V = -e^x overflows past x = 709.8
            (EXP_MODEL, 1.0, Window(x_left=-40.0, x_right=720.0),
             "potential is not finite on the integration grid"),
            (EXP_MODEL, 0.25, Window(x_left=-30.0, x_right=3.0, kh=0.1),
             "exceeds DRIFT_TOLERANCE"),
        ],
        ids=["overflow", "non-finite-potential", "coarse-step"],
    )
    def test_march_refusals_equal_on_both_consumers(self, potential, energy, config, message):
        config = config or default_window(potential, energy)
        refusals = []
        for integrate in (oracle_integrate_basis, lane):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises((DomainError, AccuracyError)) as caught:
                    integrate(potential, energy, config)
            refusals.append((caught.type, str(caught.value)))
        assert refusals[0] == refusals[1] and message in refusals[0][1]

    def test_only_the_matched_nodes_are_built(self):
        for name in ("exp", "rect-edges-on-nodes", "exp-grown", "exp-deep", "exp-deep-grown"):
            potential, energy, config = bit_case(name)
            ends = lane(potential, energy, config)
            whole = oracle_integrate_basis(potential, energy, config)
            assert ends.nodes.shape == (4, 0)
            assert basis_bytes(ends)[2:] == basis_bytes(whole)[2:]
            # the right end is z = 8, which the row's window ends at
            x, i = grid(potential, energy, config)
            read = lane(potential, energy, config, xs=x[[0, i]])
            assert x[0] == config.x_left
            assert read.nodes.tobytes() == whole.nodes[:, [0, i]].tobytes()

    @pytest.mark.parametrize("name, picks", [
        *((name, "every") for name in sorted(set(ENDS_CASES) - {"exp-inner-window"})),
        # picks on both sides of the z = 8 node, out of order and repeated
        ("exp-grown", "around-match"),
        ("exp-deep-grown", "around-match"),
    ])
    def test_requested_nodes_leave_the_match_alone(self, name, picks):
        potential, energy, config = bit_case(name)
        want = outcomes(lambda sides: [
            numeric_scatter.match(lane(potential, energy, config), side) for side in sides])
        # nodes of the grid: asking for them leaves the grid as it is
        x, i_right = grid(potential, energy, config)
        if picks == "every":
            xs = x
        else:
            assert i_right + 2000 < x.size
            xs = x[i_right + np.array([1, -1, 0, 2000, -2000, 1, 0])]
        basis = lane(potential, energy, config, xs=xs)
        assert basis.nodes.shape == (4, xs.size)
        assert outcomes(lambda sides: [numeric_scatter.match(basis, side) for side in sides]) == want

    @pytest.mark.parametrize("name", ["exp", "exp-grown", "exp-deep-grown", "rect-edges-on-nodes"])
    def test_nodes_come_in_the_asked_order(self, name):
        # repeats included, each node bit for bit the oracle writer's
        potential, energy, config = bit_case(name)
        x, _ = grid(potential, energy, config)
        rng = np.random.default_rng(11)
        picks = rng.integers(0, x.size, 300)
        picks = np.concatenate((picks, picks[::-3], [0, x.size - 1, 0, x.size - 1]))
        basis = lane(potential, energy, config, xs=x[picks])
        whole = oracle_integrate_basis(potential, energy, config)
        assert basis.nodes.tobytes() == whole.nodes[:, picks].tobytes()

    @pytest.mark.parametrize("name", ["exp", "exp-q4", "exp-grown", "rect-edges-on-nodes"])
    def test_xs_off_the_grid_leave_the_match_alone(self, name):
        # the grid does not depend on xs, so neither do T, the phases or
        # the drift, bit for bit
        potential, energy, config = bit_case(name)
        want = outcomes(lambda sides: [
            numeric_scatter.match(lane(potential, energy, config), side) for side in sides])
        xs = np.linspace(config.x_left, config.x_right, 401)[1:-1] + 1e-7
        basis = lane(potential, energy, config, xs=xs)
        assert outcomes(lambda sides: [numeric_scatter.match(basis, side) for side in sides]) == want

    @pytest.mark.parametrize("name", ["exp", "exp-grown", "rect-edges-on-nodes", "free"])
    def test_an_x_off_the_grid_is_one_step_from_the_node_below(self, name):
        potential, energy, config = bit_case(name)
        # and its W[u, v] is the node's plus that step's det M - 1
        x, _ = grid(potential, energy, config)
        rng = np.random.default_rng(7)
        below = rng.integers(0, x.size - 1, 300)
        xs = x[below] + rng.uniform(0.0, 1.0, below.size) * (x[below + 1] - x[below])
        basis = lane(potential, energy, config, xs=xs)
        whole = oracle_integrate_basis(potential, energy, config)
        u, du, v, dv = whole.nodes[:, below]
        h = xs - x[below]
        scale = 2.0 * DEFAULT_UNITS.mass / DEFAULT_UNITS.hbar**2
        samples = x[below] + np.multiply.outer(numeric_scatter._SAMPLES, h)
        g = scale * (potentials.evaluate(potential, samples) - energy)
        want = [*oracle_rk4_step(u, du, *g, h), *oracle_rk4_step(v, dv, *g, h)]
        assert_same_march(list(basis.nodes), want)
        steps = oracle_step_dets(np.stack(g, axis=1).reshape(-1), h)
        assert basis.w_uv.tobytes() == (whole.w_uv[below] + steps).tobytes()

    @pytest.mark.parametrize("name", ["exp", "exp-deep-grown", "rect-edges-on-nodes", "free"])
    def test_match_is_algebra_on_the_projected_ends(self, name, monkeypatch):
        # the basis carries both ends projected: match evaluates no wave
        # and no potential, and gives the same bits on either side
        potential, energy, config = bit_case(name)
        basis = lane(potential, energy, config)
        want = [result_bits(numeric_scatter.match(basis, side)) for side in ("left", "right")]
        for module, attr in ((specfun, "hankel_imag_order"), (potentials, "evaluate"),
                             (numeric_scatter, "_wave")):
            monkeypatch.setattr(module, attr, pytest.fail)
        got = [result_bits(numeric_scatter.match(basis, side)) for side in ("left", "right")]
        assert got == want

    def test_null_solution_refused(self):
        # u = v = 0 at the transmitted end: no nonzero c_u u + c_v v keeps
        # the wave arriving there out
        null = numeric_scatter._End(u=0j, v=0j, w_r=-2j, w_uv=1.0)
        live = numeric_scatter._End(u=1.0 + 0j, v=1j, w_r=-2j, w_uv=1.0)
        for side, ends in (("left", (live, null)), ("right", (null, live))):
            basis = numeric_scatter.BasisPair(ends=ends, nodes=np.empty((4, 0)),
                                              w_uv=np.empty(0), drift=0.0)
            with pytest.raises(AccuracyError) as caught:
                numeric_scatter.match(basis, side)
            assert str(caught.value) == "matching produced a null solution"

    def test_one_march_per_basis(self, monkeypatch):
        # a basis marches once, from either end, wherever its ends and its
        # xs fall, and so does each sweep row
        calls = []
        march = numeric_scatter._march
        monkeypatch.setattr(numeric_scatter, "_march",
                            lambda *args: calls.append(args) or march(*args))
        cases = [(EXP_MODEL, 0.25, ()), (EXP_MODEL, 0.5, np.linspace(-20.0, 4.39, 40)),
                 (DEEP, 1.0, ()), (DEEP, 1.0, (-21.71, 1.0)),
                 (potentials.exponential(1.0, 1.0, 30.0), 0.5, ()),
                 (potentials.rectangular(1.0, 1.0), 0.5, (-1.0, 0.3)), (potentials.free(), 1.0, ())]
        for model, energy, xs in cases:
            for seed in ("left", "right"):
                numeric_scatter.integrate_ends(model, energy, xs=xs, seed=seed)
        assert len(calls) == 2 * len(cases)
        calls.clear()
        spec = cli.SweepSpec(EXP_MODEL, 0.1, 1.0, 4, "log", "both", "both", DEFAULT_UNITS)
        assert cli.run_sweep(spec)["error"] == [None] * 4
        assert len(calls) == 4

    def test_refused_plane_end_is_not_marched(self, monkeypatch):
        # the row's window ends 2 past the outer jumps, which rounds onto
        # them on a rectangle 1e308 wide: |V(x_left)| = 1 there; an
        # exponential's window at E starts where |V| <= 1e-6 E, so there
        # only q <= Q_MIN is refused, at the diving end's unit wave: E =
        # 2.5e-17 is q = Q_MIN itself, which the closed forms refuse too
        rect = potentials.rectangular(1.0, 5e307)
        want = outcomes(self.whole_basis(rect, 1.0, default_window(rect, 1.0)))
        monkeypatch.setattr(numeric_scatter, "_march", pytest.fail)
        got = outcomes(lambda sides: [numeric_scatter.solve(rect, 1.0, side) for side in sides])
        assert got == want and "|V(x_left)| = 1.000e+00" in want[1]
        assert exp_barrier.reduce_params(EXP_MODEL, 2.5e-17).q == specfun.Q_MIN
        with pytest.raises(DomainError, match=re.escape("q = 1e-08 is at or below Q_MIN")):
            numeric_scatter.solve(EXP_MODEL, 2.5e-17)

    @pytest.mark.parametrize("energy, q", [(2e4, "282.843"), (1e6, "2000")])
    def test_q_overflow_refused_before_the_march(self, energy, q, monkeypatch):
        # the diving end's unit wave needs only the end's x, so q pi > 700
        # is refused there, naming the most E it solves, before any RK4 step
        monkeypatch.setattr(numeric_scatter, "_march", pytest.fail)
        with pytest.raises(DomainError) as caught:
            numeric_scatter.solve(EXP_MODEL, energy)
        assert str(caught.value) == (
            f"q = {q} overflows exp(q pi) in the diving end's H1; lower E to at most "
            "12411.844996186379")

    def test_q_overflow_bound_scales_as_one_over_a_squared(self):
        # a = 2 quarters the bound; the offset b moves V(0), not q
        model = potentials.exponential(1.0, 2.0, 0.7)
        numeric_scatter.integrate_ends(model, 3102.9)
        with pytest.raises(DomainError) as caught:
            numeric_scatter.integrate_ends(model, 3103.0)
        assert str(caught.value) == (
            "q = 222.818 overflows exp(q pi) in the diving end's H1; lower E to at most "
            "3102.9612490465947")

    def test_q_refusals_name_the_bounds_that_pass(self):
        # the formulas round off the bounds for many a (49647.4 was named
        # at a = 0.5, and refused): on a = 0.1 ... 19.9 the named most E
        # must pass q pi <= 700 and the next float above it must not, the
        # named least E must pass q > Q_MIN and the float below it must not;
        # the diving end's unit wave, where both are applied, at z = 8
        units = potentials.DEFAULT_UNITS

        def wave(model, energy):
            numeric_scatter._wave(model, energy, units, x, True)

        for tenths in range(1, 200):
            model = potentials.exponential(1.0, tenths / 10)
            x = numeric_scatter._window(model, 1.0, units)[1]
            for energy, outward, bound in (((400.0 / (math.pi * model.a)) ** 2, math.inf,
                                            "overflows exp(q pi)"),
                                           (1e-30, 0.0, "at or below Q_MIN")):
                with pytest.raises(DomainError, match=re.escape(bound)) as caught:
                    wave(model, energy)
                named = float(str(caught.value).rpartition(" ")[2])
                wave(model, named)
                with pytest.raises(DomainError, match=re.escape(bound)) as past:
                    wave(model, math.nextafter(named, outward))
                assert str(past.value).endswith(f" {named!r}")


class TestPlaneWaveMatching:
    def test_free_model_is_transparent(self):
        res = numeric_scatter.solve(potentials.free(), 1.0, side="left")
        assert res.t_coeff == pytest.approx(1.0, abs=1e-12)
        assert res.r_coeff == pytest.approx(0.0, abs=1e-12)
        assert waves.angle_distance(res.theta, 0.0) < 1e-10

    def test_free_model_transmits_to_round_off_on_both_sides(self):
        # the 20 energies of test_free_sweep_transmits_to_round_off, whose
        # CSV holds left incidence only: marched from the left end, the
        # window's drift sits at the sink for left incidence and at the
        # source for right incidence, and T reads W[u, v] at both ends
        spec = cli.SweepSpec(potentials.free(), 0.1, 3.0, 20, "log", "both", "numeric",
                             DEFAULT_UNITS)
        for energy in spec.energies().tolist():
            basis = numeric_scatter.integrate_ends(potentials.free(), energy)
            assert basis.drift > 1e-14
            for side in ("left", "right"):
                assert abs(numeric_scatter.match(basis, side).t_coeff - 1.0) <= 1e-14

    def test_rect_barrier_matches_hand_oracle(self):
        res = numeric_scatter.solve(potentials.rectangular(1.0, 1.0), 0.5, side="left")
        want = rect_transmission(0.5, 1.0, 2.0)
        assert want == pytest.approx(RECT_T_FROZEN, abs=1e-15)
        assert res.t_coeff == pytest.approx(want, abs=1e-10)
        assert res.t_coeff + res.r_coeff == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("width", [1e-4, 1.6e-6, 1e-300])
    def test_narrow_rect_matches_hand_oracle(self, width):
        # the flat pads step at kh min(L, 1/k), L the window length, so a
        # narrow barrier costs no more nodes than a wide one
        model = potentials.rectangular(1.0, width / 2.0)
        basis = numeric_scatter.integrate_ends(model, 0.5)
        res = numeric_scatter.match(basis, "left")
        assert res.t_coeff == pytest.approx(rect_transmission(0.5, 1.0, width), abs=1e-12)
        assert res.flux_imbalance <= 1e-12 and basis.drift <= 1e-12
        assert grid(model, 0.5, default_window(model, 0.5))[0].size < 2_000

    def test_symmetric_model_side_independent(self):
        rect = potentials.rectangular(1.0, 1.0)
        left = numeric_scatter.solve(rect, 0.5, side="left")
        right = numeric_scatter.solve(rect, 0.5, side="right")
        assert left.t_coeff == pytest.approx(right.t_coeff, rel=1e-12)
        assert waves.angle_distance(left.phi, right.phi) < 1e-10
        assert waves.angle_distance(left.theta, right.theta) < 1e-10

    def test_endpoint_precondition_names_offender(self):
        # the row's window ends round onto the edges of a rectangle 1e308
        # wide, where V is the barrier's
        rect = potentials.rectangular(1.0, 5e307)
        with pytest.raises(DomainError, match="x_left") as integrated:
            numeric_scatter.integrate_ends(rect, 0.5)
        with pytest.raises(DomainError, match="x_left") as solved:
            numeric_scatter.solve(rect, 0.5, "left")
        assert str(solved.value) == str(integrated.value)

    def test_right_endpoint_precondition_names_offender(self, monkeypatch):
        # V read as nonzero from x = 4, inside the free particle's window
        # [-5, 5]: only its right end fails the plane-wave check
        evaluate = potentials.evaluate
        monkeypatch.setattr(potentials, "evaluate",
                            lambda m, x: evaluate(m, x) + np.where(np.asarray(x) >= 4.0, 1.0, 0.0))
        with pytest.raises(DomainError, match="x_right") as integrated:
            numeric_scatter.integrate_ends(potentials.free(), 0.5)
        assert str(integrated.value).startswith("|V(x_right)| = 1.000e+00 exceeds")
        for side in ("left", "right"):
            with pytest.raises(DomainError, match="x_right") as solved:
                numeric_scatter.solve(potentials.free(), 0.5, side)
            assert str(solved.value) == str(integrated.value)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_off_centre_window_matches_default(self, side):
        # an asymmetric window must not move the amplitudes: they are
        # referred to x = 0, not to the window ends
        rect = potentials.rectangular(1.0, 1.0)
        want = numeric_scatter.solve(rect, 0.5, side=side)
        got = numeric_scatter.match(lane(rect, 0.5, Window(x_left=-3.0, x_right=5.0)), side)
        assert got.t_coeff == pytest.approx(want.t_coeff, abs=1e-10)
        assert abs(got.r_amp - want.r_amp) < 1e-10
        assert abs(got.t_amp - want.t_amp) < 1e-10

    @pytest.mark.parametrize("energy", [1.0, 6.3, 26.5, 30.0, 40.0])
    def test_deep_rectangle_matches_hand_formula(self, energy):
        # rect:v0=50,w=4: u and v grow like e^28 across the barrier from the
        # seed, so W formed from the nodes would carry round-off (max |W - 1|
        # read 9.8e-4 at E = 1 and 8.2e-8 at E = 26.5 from a seed at x = 0);
        # T and theta read off W[u, v] as the march carries it are good to
        # 4e-11
        rect = potentials.rectangular(50.0, 2.0)
        basis = numeric_scatter.integrate_ends(rect, energy)
        assert basis.drift <= 1e-12
        for side in ("left", "right"):
            assert_rect_formula(numeric_scatter.match(basis, side), energy, 50.0, 4.0)

    def test_deep_tunnelling_matches_hand_formula(self):
        # rect:v0=1e3,w=4 at E = 1: u and v grow like e^63
        t = rect_amplitude(1.0, 1e3, 4.0)
        assert abs(t) ** 2 == pytest.approx(2.45e-112, rel=1e-3)
        for side in ("left", "right"):
            result = numeric_scatter.solve(potentials.rectangular(1e3, 2.0), 1.0, side)
            assert abs(result.t_coeff / abs(t) ** 2 - 1.0) <= 1e-9

    def test_barrier_of_kappa_w_400_solves_on_both_sides(self):
        # rect:v0=1e4,w=4 at E = 1: u and v grow like e^400 across it from
        # the seed, and right incidence's c_inc with them (|c_inc|^2 alone
        # would overflow); T = |t|^2 ~ 1e-348 underflows to 0, and theta
        # meets the hand formula
        t = rect_amplitude(1.0, 1e4, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = numeric_scatter.integrate_ends(potentials.rectangular(1e4, 2.0), 1.0)
            for side in ("left", "right"):
                result = numeric_scatter.match(basis, side)
                assert result.t_coeff == 0.0 and abs(result.r_coeff - 1.0) <= 1e-15
                assert waves.angle_distance(result.theta, cmath.phase(t)) <= 1e-9

    def test_side_must_be_named(self):
        basis = numeric_scatter.integrate_ends(potentials.free(), 1.0)
        with pytest.raises(DomainError, match="side"):
            numeric_scatter.match(basis, side="up")


class TestHankelMatching:
    def test_transmission_agrees_with_closed_form(self):
        for q in (0.25, 0.5, 1.0, 2.0):
            energy = q * q / 4.0
            res = numeric_scatter.solve(EXP_MODEL, energy, side="left")
            t_exact, _ = exp_barrier.transmission_reflection(q)
            assert abs(res.t_coeff - t_exact) < 1e-6

    def test_right_incidence_probabilities(self):
        q = 1.0
        res = numeric_scatter.solve(EXP_MODEL, 0.25, side="right")
        t_exact, r_exact = exp_barrier.transmission_reflection(q)
        assert res.t_coeff == pytest.approx(t_exact, abs=1e-8)
        assert res.r_coeff == pytest.approx(r_exact, abs=1e-8)
        assert abs(res.r_amp) == pytest.approx(math.exp(-math.pi * q), abs=1e-8)

    def test_numeric_phases_match_analytic(self):
        q = 0.5
        res = numeric_scatter.solve(EXP_MODEL, q * q / 4.0, side="left")
        want = exp_barrier.amplitudes(2.0, q, "left")
        assert waves.angle_distance(res.phi, want.phi) < 1e-5
        assert waves.angle_distance(res.theta, want.theta) < 1e-5

    def test_deep_window_amplitudes_agree_with_closed_form(self):
        # with a deep tail the plane waves are exact to round-off on the
        # left, so both complex amplitudes carry the closed forms' digits
        config = Window(x_left=-30.0, x_right=3.5)
        for q in (0.25, 1.0):
            for side in ("left", "right"):
                res = numeric_scatter.match(lane(EXP_MODEL, q * q / 4.0, config), side)
                want = exp_barrier.amplitudes(2.0, q, side)
                assert abs(res.t_amp - want.t_amp) <= 1e-10 * abs(want.t_amp)
                assert abs(res.r_amp - want.r_amp) <= 1e-10 * abs(want.r_amp)

    def test_flux_conservation(self):
        res = numeric_scatter.solve(EXP_MODEL, 0.25, side="left")
        assert res.flux_imbalance < 1e-10

    @pytest.mark.parametrize("q", [0.25, 1.0, 2.0])
    def test_gamma_scale_error_moves_no_flux_ratio(self, q, monkeypatch):
        # a scale error in Gamma rescales H1 as a whole; the fluxes are
        # measured on the rescaled wave, so no flux ratio may follow it
        def results():
            # the ends are projected where the basis is integrated
            basis = numeric_scatter.integrate_ends(EXP_MODEL, q * q / 4.0)
            return [numeric_scatter.match(basis, side) for side in ("left", "right")]

        def ratios(results):
            return np.array([[r.t_coeff, r.r_coeff, r.flux_imbalance] for r in results])

        want = results()
        gamma = specfun.complex_gamma
        monkeypatch.setattr(specfun, "complex_gamma", lambda w: 1.001 * gamma(w))
        got = results()
        assert np.max(np.abs(ratios(got) - ratios(want))) <= 1e-11
        # the mutation does reach H1: |t| rides on the transmitted end's R
        # from the left, and on the incident end's from the right
        left, right = (abs(new.t_amp) / abs(old.t_amp) for new, old in zip(got, want))
        assert left == pytest.approx(1.001, rel=1e-9)
        assert right == pytest.approx(1.0 / 1.001, rel=1e-9)

    def test_diving_wave_short_of_its_flux_refused(self, monkeypatch):
        # H1 scaled by 0.1 carries 1/100 of the flux p hbar / (2 m a) = 2
        # its normalization promises at the match node z = 8
        hankel = specfun.hankel_imag_order

        def scaled(q, z, kind=1):
            ev = hankel(q, z, kind)
            return ev._replace(value=0.1 * ev.value, dvalue=0.1 * ev.dvalue)

        monkeypatch.setattr(specfun, "hankel_imag_order", scaled)
        with pytest.raises(AccuracyError,
                           match=r"^unit wave at z = 8 carries flux 2\.000e-02, not 2\.000e\+00$"):
            numeric_scatter.solve(EXP_MODEL, 0.25)

    def test_one_hankel_evaluation_of_the_first_kind(self, monkeypatch):
        kinds = []
        hankel = specfun.hankel_imag_order

        def counted(q, z, kind=1):
            kinds.append(kind)
            return hankel(q, z, kind)

        monkeypatch.setattr(specfun, "hankel_imag_order", counted)
        numeric_scatter.solve(EXP_MODEL, 0.25, side="right")
        assert kinds == [1]

    def test_window_depth_insensitive(self):
        # (p, q) = (2, 1.5): answers must not depend on where the tail is cut
        energy = 1.5**2 / 4.0
        t_values = []
        for x_left in (-15.0, -25.0):
            config = Window(x_left=x_left, x_right=3.5)
            t_values.append(numeric_scatter.match(lane(EXP_MODEL, energy, config), "left").t_coeff)
        assert abs(t_values[0] - t_values[1]) < 1e-8


class TestRightEndMatchNode:
    """A window grown past z = 8 by an x asked for (as ``wavefunction
    --xmax`` grows it) still projects onto the Hankel pair at z = 8; the
    basis runs on past it."""

    @pytest.mark.parametrize("x_right", [0.0, 1.0])  # z = 28 and z = 47
    def test_grown_window_keeps_the_accuracy(self, x_right):
        model = potentials.exponential(200.0, 1.0)
        basis = numeric_scatter.integrate_ends(model, 1.0, xs=[x_right])  # q = 2
        assert basis.drift <= 1e-10
        t_exact, _ = exp_barrier.transmission_reflection(2.0)
        for side in ("left", "right"):
            res = numeric_scatter.match(basis, side)
            assert abs(res.t_coeff - t_exact) <= 1e-10

    @pytest.mark.parametrize("x_right", [4.0, 5.5])
    def test_grown_window_matches_like_the_default(self, x_right):
        for side in ("left", "right"):
            want = numeric_scatter.solve(EXP_MODEL, 0.25, side=side)
            got = numeric_scatter.match(numeric_scatter.integrate_ends(EXP_MODEL, 0.25,
                                                                       xs=[x_right]), side)
            assert abs(got.t_coeff - want.t_coeff) <= 1e-13
            assert waves.angle_distance(got.phi, want.phi) <= 1e-12
            assert waves.angle_distance(got.theta, want.theta) <= 1e-12


class TestHardRegimes:
    """Depths and offsets that only translate the problem in x: on the
    z-window they are solved to the README model's accuracy."""

    @pytest.mark.parametrize(
        "v0, b",
        [(200.0, 0.0), (1e4, 0.0), (1e300, 0.0), (1.0, -700.0), (1.0, -30.0), (1.0, 30.0),
         (1.0, 700.0)],
    )
    def test_solved_on_the_default_window(self, v0, b):
        model = potentials.exponential(v0, 1.0, b)
        for energy in (0.01, 0.1, 1.0, 5.0):
            basis = numeric_scatter.integrate_ends(model, energy)
            assert basis.drift <= 1e-12
            q = exp_barrier.reduce_params(model, energy).q
            t_exact, _ = exp_barrier.transmission_reflection(q)
            for side in ("left", "right"):
                res = numeric_scatter.match(basis, side)
                assert abs(res.t_coeff - t_exact) <= 1e-8

    @pytest.mark.parametrize("energy", [6000.0, 12000.0])
    def test_solved_where_e_to_the_q_pi_times_j_overflows(self, energy):
        # q = 155 and 219: the right end's H1 stays finite past q ~ 151
        q = exp_barrier.reduce_params(EXP_MODEL, energy).q
        for side in ("left", "right"):
            res = numeric_scatter.solve(EXP_MODEL, energy, side)
            want = exp_barrier.amplitudes(2.0, q, side)
            assert abs(res.t_coeff - want.t_coeff) <= 1e-10
            assert waves.angle_distance(res.theta, want.theta) <= 1e-8


def numeric_wave(model, energy, xmin, xmax, n):
    """The rows of ``wavefunction --method numeric`` (left incidence) as
    their printed cells x, re_psi, im_psi, abs_psi, flux."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["wavefunction", "--method", "numeric", "--model", model,
                         "--energy", repr(energy), "--xmin", repr(xmin), "--xmax", repr(xmax),
                         "--n", str(n)])
    assert code == 0
    return [line.split(",") for line in out.getvalue().splitlines()[2:]]


@pytest.fixture(scope="module")
def every_node_wave():
    # 50,000 requests over the row's window, each read from its node below
    config = default_window(EXP_MODEL, 0.25)
    return numeric_wave("exp:v0=1,a=1", 0.25, config.x_left, config.x_right, 50_000)


class TestScatteringWavefunction:
    """The numeric ``wavefunction``: psi = (c_u u + c_v v) / incident and its
    flux, formed at the printed nodes only."""

    def test_flux_profile_matches_transmission(self, every_node_wave):
        res = numeric_scatter.solve(EXP_MODEL, 0.25, side="left")
        assert len(every_node_wave) == 50_000
        flux = np.array([float(row[4]) for row in every_node_wave])
        # unit incident amplitude: flux = T * (hbar k / m) everywhere
        k = math.sqrt(2.0 * DEFAULT_UNITS.mass * 0.25) / DEFAULT_UNITS.hbar
        want = res.t_coeff * DEFAULT_UNITS.hbar * k / DEFAULT_UNITS.mass
        np.testing.assert_allclose(flux, want, rtol=1e-7)

    @pytest.mark.parametrize("pair", [(0, 1), (12_345, 40_000), (40_001, 49_999)])
    def test_a_node_prints_the_same_cells_alone_or_among_all(self, pair, every_node_wave):
        want = [every_node_wave[i] for i in pair]
        xs = [float(row[0]) for row in want]
        assert numeric_wave("exp:v0=1,a=1", 0.25, *xs, 2) == want

    def test_shifted_model_is_phase_times_translation(self):
        # V(x - b) solutions are e^{ikb} psi(x - b) after unit-incident
        # normalization; compare on the shared nodes x = -1, 0, 1
        b, energy = 0.5, 0.25
        k = math.sqrt(2.0 * DEFAULT_UNITS.mass * energy) / DEFAULT_UNITS.hbar
        wave_0 = numeric_wave("exp:v0=1,a=1", energy, -1.0 - b, 1.0 - b, 3)
        wave_b = numeric_wave(f"expshift:v0=1,a=1,b={b!r}", energy, -1.0, 1.0, 3)
        phase = complex(math.cos(k * b), math.sin(k * b))
        for row_0, row_b in zip(wave_0, wave_b):
            assert float(row_b[0]) == float(row_0[0]) + b
            psi_0, psi_b = (complex(float(row[1]), float(row[2])) for row in (row_0, row_b))
            assert abs(psi_b - phase * psi_0) < 1e-8


def test_readme_family_sweep_guard(monkeypatch):
    # 20 rows of the README sweep: no row marches past 20,000 nodes (47,169
    # at the uniform step a/2000), all 20 march 200,000 at most (226,806 at
    # the fixed cap l = a), and no digit is lost on the way; each row
    # projects its diving end onto H1 once and checks its plane-wave end
    # once for both sides (40 and 60 calls when match projected them)
    counts = []
    calls = {"hankel": 0, "plane": 0}
    build = numeric_scatter._grid

    def counted(*args):
        x, at = build(*args)
        counts.append(x.size)
        return x, at

    def tally(name, fn):
        def called(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return called

    monkeypatch.setattr(numeric_scatter, "_grid", counted)
    monkeypatch.setattr(specfun, "hankel_imag_order", tally("hankel", specfun.hankel_imag_order))
    monkeypatch.setattr(numeric_scatter, "_plane_potential",
                        tally("plane", numeric_scatter._plane_potential))
    spec = cli.SweepSpec(EXP_MODEL, 0.01, 5.0, 20, "log", "both", "both", DEFAULT_UNITS)
    table = cli.run_sweep(spec)
    assert len(counts) == 20 and max(counts) <= 20_000 and sum(counts) <= 200_000
    assert calls == {"hankel": 20, "plane": 20}
    assert table["error"] == [None] * 20
    assert max(abs(n - a) for n, a in zip(table["T_numeric"], table["T_analytic"])) <= 6.5e-9
    assert max(table["wronskian_drift"]) <= 1e-12
    assert max(table["flux_imbalance"]) <= 1e-12


@pytest.mark.parametrize("energy", [1e-6, 1e-5, 1e-4])
def test_low_energy_limit(energy):
    # the paper's long-wave limit T = 1 - e^{-2 pi q} ~ 2 pi q, q = sqrt(8 m E) a
    # / hbar, on both sides, at q = 2e-3, 6.3e-3 and 2e-2
    q = math.sqrt(8.0 * DEFAULT_UNITS.mass * energy) * EXP_MODEL.a / DEFAULT_UNITS.hbar
    for side in ("left", "right"):
        result = numeric_scatter.solve(EXP_MODEL, energy, side)
        assert abs(result.t_coeff - -math.expm1(-2.0 * math.pi * q)) <= 1e-12


@pytest.mark.parametrize("v0, a", [(1.0, 1.0), (1e-3, 3.0), (200.0, 1.0), (1e4, 0.1),
                                   (1.0, 10.0)])
def test_long_wave_limit_meets_the_closed_form(v0, a):
    # down to q = 1e-6, on both sides, T meets 1 - e^{-2 pi q} within 1e-10
    # relative (2.2e-11 at worst); the window grows only by a ln(1/q)
    model = potentials.exponential(v0, a)
    for q in (1e-3, 1e-4, 1e-5, 1e-6):
        energy = q * q * DEFAULT_UNITS.hbar**2 / (8.0 * DEFAULT_UNITS.mass * a * a)
        t_exact, _ = exp_barrier.transmission_reflection(
            exp_barrier.reduce_params(model, energy).q)
        basis = numeric_scatter.integrate_ends(model, energy)
        for side in ("left", "right"):
            assert abs(numeric_scatter.match(basis, side).t_coeff / t_exact - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "v0, a, bounds",
    [(1.0, 1.0, (1.8e-13, 3.7e-11, 9.9e-12)),
     (0.1, 0.5, (1.8e-13, 2.2e-11, 9.9e-12)),
     (10.0, 2.0, (5.7e-13, 6.9e-11, 9.9e-12))],
)
def test_step_error_stays_within_the_fixed_cap(v0, a, bounds):
    # kh against kh/2, on both sides and at 8 energies from q = 1e-3 up to
    # E = 5, each on its default window: the |dT|,
    # |d theta| and |r| |d phi| of the fixed cap l = a, rounded up, bound
    # those of l = a / sqrt(2z)
    model = potentials.exponential(v0, a)
    edge = 1e-6 * DEFAULT_UNITS.hbar**2 / (8.0 * DEFAULT_UNITS.mass * a * a)
    worst = [0.0, 0.0, 0.0]
    for energy in np.geomspace(edge * (1.0 + 1e-9), 5.0, 8).tolist():
        bases = [numeric_scatter.integrate_ends(model, energy, kh=kh) for kh in (KH, 0.5 * KH)]
        for side in ("left", "right"):
            coarse, fine = (numeric_scatter.match(basis, side) for basis in bases)
            worst = np.maximum(worst, [
                abs(fine.t_coeff - coarse.t_coeff),
                waves.angle_distance(fine.theta, coarse.theta),
                abs(coarse.r_amp) * waves.angle_distance(fine.phi, coarse.phi)])
    assert np.all(worst <= bounds)


class TestDefaultConfig:
    """The row's own window, ``_window``: the window ``integrate_ends``
    marches when it is asked for no x."""

    def test_matching_coordinate_capped(self):
        # stronger potentials pull the right edge in so p e^{x/2a} stays put
        for v0 in (0.5, 1.0, math.e, 10.0):
            model = potentials.exponential(v0, 1.0)
            config = default_window(model, 0.25)
            p = math.sqrt(8.0 * DEFAULT_UNITS.mass * v0)
            z_r = p * math.exp(config.x_right / 2.0)
            assert z_r < 13.0

    @pytest.mark.parametrize(
        "v0, b", [(1e-300, 0.0), (1.0, 0.0), (200.0, 0.0), (1e4, 0.0), (1.0, -700.0), (1.0, 700.0)]
    )
    def test_exponential_window_is_one_z_window(self, v0, b):
        # z = p e^{(x - b)/2a} runs from 1e-3 q, where |V| = 1e-6 E, to 8 for
        # every depth and offset, so every exponential row marches the same
        # node count
        model = potentials.exponential(v0, 1.0, b)
        config = default_window(model, 0.25)  # q = 1
        p_eff = math.sqrt(8.0 * DEFAULT_UNITS.mass * v0 * math.exp(-b))
        z_left, z_right = (p_eff * math.exp(x / 2.0) for x in (config.x_left, config.x_right))
        assert z_left == pytest.approx(1e-3, rel=1e-12)
        assert z_right == pytest.approx(8.0, rel=1e-12)
        assert grid(model, 0.25, config)[0].size == 6_279

    def test_readme_window_keeps_its_nodes(self):
        # x_left = ln(0.25e-6), one double further out than the logarithms
        # place it, where |V| <= 1e-6 E holds as integrate_ends checks it
        config = default_window(EXP_MODEL, 0.25)
        x, i_right = grid(EXP_MODEL, 0.25, config)
        assert (config.x_left, x.size, i_right) == (-15.201804919084166, 6_279, 6_278)

    def test_left_end_passes_the_plane_wave_check(self):
        # the placement and the check are one computation: placed at exactly
        # |V| = 1e-6 E, 101 of the README sweep's 200 ends failed the check
        # by rounding; each end now passes it within a few doubles of
        # x = a ln(1e-6 E / v0)
        for energy in np.geomspace(0.01, 5.0, 200).tolist():
            x_left = default_window(EXP_MODEL, energy).x_left
            bound = numeric_scatter.ASYMPTOTE_EPSILON * energy
            assert abs(potentials.evaluate(EXP_MODEL, x_left)) <= bound
            assert 0.0 <= math.log(bound) - x_left <= 4.0 * math.ulp(x_left)

    def test_window_past_the_match_refused(self):
        # past q = 8000 the left end, z = 1e-3 q, lies right of the match
        # at z = 8
        for energy in (1.7e7, 1e300):
            with pytest.raises(DomainError, match=re.escape(
                    f"at E = {energy:g}, |V| <= ASYMPTOTE_EPSILON * E already at z = 8")):
                numeric_scatter.integrate_ends(EXP_MODEL, energy)

    def test_rect_edges_land_on_nodes(self):
        model = potentials.rectangular(1.0, 0.7)
        config = default_window(model, 0.5)
        x, _ = grid(model, 0.5, config)
        assert {-0.7, 0.7} <= set(x.tolist())


def test_numeric_lane_imports_nothing_from_exp_barrier():
    # the closed-form lane is what the numeric lane is checked against
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(numeric_scatter))):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert "potentials" in imported
    assert "exp_barrier" not in imported


def test_numeric_lane_reads_a_model_only_through_v_tail_and_jumps():
    # the lane never asks which record a model is, nor reads a field of
    # one: V, its tail length and its jumps are all it sees; p is its own
    tree = ast.parse(inspect.getsource(numeric_scatter))
    records = {"Exponential", "Rectangular"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not imported & records and not names & records
    assert "exponential_p" not in names | attrs
    assert not attrs & {"a", "v0", "half_width"}
    checked = [ast.unparse(node.args[0]) for node in ast.walk(tree) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "isinstance"]
    assert checked == ["energy"]
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "potential"}
    assert read == {"tail", "jumps"}


@pytest.mark.parametrize("model", [EXP_MODEL, potentials.exponential(2.0, 0.7, 1.3)],
                         ids=["exp", "expshift"])
def test_numeric_lane_runs_without_the_closed_form_p(model, monkeypatch):
    # the closed-form lane's p is not the numeric lane's: with reduce_params
    # refusing every call, a solve on either side and a basis read at xs
    # keep their bits
    config = default_window(model, 0.3)
    xs = np.linspace(config.x_left, config.x_right, 9)

    def run():
        solved = [numeric_scatter.solve(model, 0.3, side) for side in ("left", "right")]
        basis = numeric_scatter.integrate_ends(model, 0.3, xs=xs)
        return [result_bits(result) for result in solved], basis_bytes(basis)

    want = run()

    def refuse(*args, **kwargs):
        raise AssertionError("the numeric lane called exp_barrier.reduce_params")

    monkeypatch.setattr(exp_barrier, "reduce_params", refuse)
    assert run() == want


def test_numeric_lane_places_its_match_node_once():
    # the basis record holds nodes, not solutions on a grid: only _grid
    # searches its nodes, and only _window places the window and with it
    # the right end node, once per row, after the one energy check
    tree = ast.parse(inspect.getsource(numeric_scatter))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "WaveSolution" not in imported
    searchers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and node.func.attr == "searchsorted"}
    assert searchers == {"_grid"}
    calls = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_window"]
    assert calls == ["integrate_ends"]
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Name) and node.id == "_Z_MATCH"}
    assert readers == {"_window"}


def test_one_projection_reads_both_window_ends():
    # one wave builder, _wave, and one reader, _project, serve either window
    # end, and the result record carries no match residual; only
    # integrate_ends forms the waves, projects the ends and checks a
    # plane-wave end, and the basis record keeps the projected ends, not
    # end nodes, the model or the units
    tree = ast.parse(inspect.getsource(numeric_scatter))
    defined = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert {"_wave", "_project"} <= defined
    assert not defined & {"_end", "_plane_end", "_hankel_end"}
    result = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "NumericScatteringResult")
    fields = {node.target.id for node in result.body if isinstance(node, ast.AnnAssign)}
    assert "t_amp" in fields and "match_residual" not in fields
    assert numeric_scatter.BasisPair._fields == ("ends", "nodes", "w_uv", "drift")
    for name in ("_wave", "_project", "_plane_potential"):
        callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name) and node.func.id == name}
        assert callers == {"integrate_ends"}


def test_rectangle_regime_map():
    # 200 rectangles drawn with numpy seed 7, the ranges fixed before any
    # result was read: v0 uniform in [-50, 50], w log-uniform in [1e-3, 4]
    # and E log-uniform in [0.01, 60].  On both sides each solves to the
    # hand formula (T within 1e-9 relative, theta within 1e-9) or is
    # refused with a message that names what to change
    rng = np.random.default_rng(7)
    v0s = rng.uniform(-50.0, 50.0, 200)
    widths = np.exp(rng.uniform(math.log(1e-3), math.log(4.0), 200))
    energies = np.exp(rng.uniform(math.log(0.01), math.log(60.0), 200))
    solved = 0
    for v0, width, energy in zip(v0s.tolist(), widths.tolist(), energies.tolist()):
        model = potentials.rectangular(v0, width / 2.0)
        try:
            basis = numeric_scatter.integrate_ends(model, energy)
        except (DomainError, AccuracyError) as exc:
            assert re.search(r"lower kh|raise kh|lower E|keep E|push x_|shrink", str(exc))
            continue
        for side in ("left", "right"):
            assert_rect_formula(numeric_scatter.match(basis, side), energy, v0, width)
        solved += 1
    assert solved == 200


def test_exponential_regime_map():
    # 300 exponentials drawn with numpy seed 7, the ranges and bounds fixed
    # before any result was read: v0 log-uniform in [1e-3, 1e4], a
    # log-uniform in [0.1, 10], b uniform in [-5, 5], q log-uniform in
    # [1e-3, 30] and the side.  On both sides each solves to T =
    # -expm1(-2 pi q) within 1e-12, and on its side to the closed-form
    # theta within 5e-10, or is refused with a message that names what to
    # change
    rng = np.random.default_rng(7)
    v0s = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 300))
    tails = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 300))
    offsets = rng.uniform(-5.0, 5.0, 300)
    qs = np.exp(rng.uniform(math.log(1e-3), math.log(30.0), 300))
    sides = rng.integers(0, 2, 300)
    solved = 0
    for v0, a, b, q, side in zip(v0s.tolist(), tails.tolist(), offsets.tolist(), qs.tolist(),
                                 sides.tolist()):
        model = potentials.exponential(v0, a, b)
        energy = (q * DEFAULT_UNITS.hbar / a) ** 2 / (8.0 * DEFAULT_UNITS.mass)
        try:
            basis = numeric_scatter.integrate_ends(model, energy)
        except (DomainError, AccuracyError) as exc:
            assert re.search(r"lower kh|raise kh|lower E|keep E|push x_|shrink|rescale", str(exc))
            continue
        results = {name: numeric_scatter.match(basis, name) for name in ("left", "right")}
        for result in results.values():
            assert abs(result.t_coeff - -math.expm1(-2.0 * math.pi * q)) <= 1e-12
        name = ("left", "right")[side]
        params = exp_barrier.reduce_params(model, energy)
        want = exp_barrier.amplitudes(params.p, params.q, name).theta
        assert waves.angle_distance(results[name].theta, want) <= 5e-10
        solved += 1
    assert solved == 300
