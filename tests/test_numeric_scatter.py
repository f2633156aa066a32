"""ODE solver lane: basis integration, matching, and agreement with both
the closed forms and an independently derived rectangular-barrier oracle.
"""

import math

import numpy as np
import pytest

from expscatter import exp_barrier, numeric_scatter, potentials, waves
from expscatter.errors import AccuracyError, DomainError
from expscatter.exp_barrier import PhysicalParams
from expscatter.numeric_scatter import DEFAULT_UNITS, SolverConfig

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


class TestBasisIntegration:
    def test_free_basis_is_cos_sin(self):
        # V = 0, E = 1, m = 1/2: u'' = -u, so u = cos x, v = sin x
        config = SolverConfig(x_left=-2.0, x_right=2.0, step=1e-3)
        basis = numeric_scatter.integrate_basis(potentials.free(), 1.0, config)
        idx = np.searchsorted(basis.u.grid, 0.5)
        x = float(basis.u.grid[idx])
        assert basis.u.psi[idx].real == pytest.approx(math.cos(x), abs=1e-10)
        assert basis.v.psi[idx].real == pytest.approx(math.sin(x), abs=1e-10)
        assert basis.u.dpsi[idx].real == pytest.approx(-math.sin(x), abs=1e-10)

    def test_square_well_interior_basis(self):
        # V = -1 inside |x| <= 1, E = 1: u'' = -2u there, u = cos(sqrt(2) x)
        well = potentials.rectangular(-1.0, 1.0)
        config = SolverConfig(x_left=-3.0, x_right=3.0, step=1e-3)
        basis = numeric_scatter.integrate_basis(well, 1.0, config)
        idx = np.searchsorted(basis.u.grid, 0.5)
        x = float(basis.u.grid[idx])
        root2 = math.sqrt(2.0)
        assert basis.u.psi[idx].real == pytest.approx(math.cos(root2 * x), abs=1e-10)
        assert basis.v.psi[idx].real == pytest.approx(
            math.sin(root2 * x) / root2, abs=1e-10
        )

    def test_wronskian_pinned_to_one(self):
        config = numeric_scatter.default_config(EXP_MODEL)
        basis = numeric_scatter.integrate_basis(EXP_MODEL, 1.0, config)
        w_end = basis.u.psi[-1] * basis.v.dpsi[-1] - basis.u.dpsi[-1] * basis.v.psi[-1]
        assert abs(w_end - 1.0) < 1e-9
        assert basis.u.wronskian_drift < 1e-9

    def test_drift_improves_with_step(self):
        drifts = []
        for div in (250, 500):
            config = SolverConfig(
                x_left=-8.0, x_right=3.0, step=1.0 / div, match_tolerance=1e-3
            )
            drifts.append(
                numeric_scatter.integrate_basis(EXP_MODEL, 0.25, config).u.wronskian_drift
            )
        assert drifts[0] / drifts[1] > 8.0

    def test_coarse_step_raises_accuracy_error(self):
        config = SolverConfig(x_left=-8.0, x_right=3.0, step=1.0 / 40.0)
        with pytest.raises(AccuracyError, match="refine"):
            numeric_scatter.integrate_basis(EXP_MODEL, 0.25, config)

    def test_overflowing_basis_refused(self):
        # u and v grow like e^{kappa w} = e^{800} across this barrier; the
        # Wronskian overflows to NaN, which must fail the drift check
        rect = potentials.rectangular(1.0e4, 4.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            AccuracyError, match="drift nan"
        ):
            numeric_scatter.integrate_basis(rect, 1.0, numeric_scatter.default_config(rect))

    def test_long_wave_refused(self):
        with pytest.raises(DomainError, match="delta"):
            numeric_scatter.integrate_basis(
                EXP_MODEL, 1e-9, numeric_scatter.default_config(EXP_MODEL)
            )

    def test_nonpositive_energy_refused(self):
        with pytest.raises(DomainError):
            numeric_scatter.integrate_basis(
                EXP_MODEL, 0.0, numeric_scatter.default_config(EXP_MODEL)
            )

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(x_left=1.0, x_right=2.0, step=1e-3)
        with pytest.raises(DomainError):
            SolverConfig(x_left=-1.0, x_right=1.0, step=0.0)


def loop_march(g, h):
    """Scalar RK4 march of the (u, v) pair, one step at a time: the oracle
    for the step-matrix march.  g holds 3 samples per step."""
    u, du, v, dv = 1.0, 0.0, 0.0, 1.0
    us = [u]; dus = [du]; vs = [v]; dvs = [dv]
    half_h = 0.5 * h
    sixth_h = h / 6.0
    for i in range(len(g) // 3):
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
    """(u, u', v, v') over the whole window from the scalar oracle, sampled
    exactly as integrate_basis samples."""
    n_left, n_right = config.node_counts()
    h = config.step
    scale = 2.0 * DEFAULT_UNITS.mass / DEFAULT_UNITS.hbar**2

    def g(xs):
        return (scale * (potentials.evaluate(potential, xs) - energy)).tolist()

    right = loop_march(g(numeric_scatter._step_samples(n_right, h)), h)
    left = loop_march(g(-numeric_scatter._step_samples(n_left, h)), -h)
    return [np.concatenate((l[:0:-1], r)) for l, r in zip(left, right)]


def assert_same_march(got, want, rel=1e-12):
    for g_col, w_col in zip(got, want):
        assert g_col.shape == w_col.shape
        assert np.max(np.abs(g_col - w_col)) <= rel * np.max(np.abs(w_col))


class TestStepMatrixMarch:
    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 40000])
    def test_equals_scalar_loop(self, n):
        # block widths of about sqrt(n) with full, partial and single blocks
        g = np.random.default_rng(n).uniform(-2.0, 1.0, 3 * n)
        for h in (1e-3, -1e-3):
            assert_same_march(numeric_scatter._march(g, h), loop_march(g.tolist(), h))

    def test_no_steps_is_the_seed(self):
        u, du, v, dv = numeric_scatter._march(np.empty(0), 1e-3)
        assert (u.tolist(), du.tolist(), v.tolist(), dv.tolist()) == ([1.0], [0.0], [0.0], [1.0])

    @pytest.mark.parametrize(
        "potential, energy",
        [
            (EXP_MODEL, 0.25),  # 40,000 steps of near-free left tail
            (potentials.rectangular(1.0, 1.0), 0.5),  # across both barrier edges
            (potentials.free(), 1.0),
        ],
        ids=["exp-left-tail", "rect-edge", "free"],
    )
    def test_basis_equals_scalar_loop(self, potential, energy):
        config = numeric_scatter.default_config(potential)
        basis = numeric_scatter.integrate_basis(potential, energy, config)
        got = [basis.u.psi.real, basis.u.dpsi.real, basis.v.psi.real, basis.v.dpsi.real]
        assert_same_march(got, loop_basis(potential, energy, config))

    def test_drift_floor_on_default_exp_window(self):
        # round-off floor (~3e-14) of products formed in step order; a
        # log-depth tree scan over the 40,000-step left tail gives ~1e-12
        config = numeric_scatter.default_config(EXP_MODEL)
        basis = numeric_scatter.integrate_basis(EXP_MODEL, 0.25, config)
        assert basis.u.wronskian_drift <= 2e-13


class TestPlaneWaveMatching:
    def test_free_model_is_transparent(self):
        res = numeric_scatter.solve(potentials.free(), 1.0, side="left")
        assert res.t_coeff == pytest.approx(1.0, abs=1e-12)
        assert res.r_coeff == pytest.approx(0.0, abs=1e-12)
        assert waves.angle_distance(res.theta, 0.0) < 1e-10

    def test_rect_barrier_matches_hand_oracle(self):
        res = numeric_scatter.solve(potentials.rectangular(1.0, 1.0), 0.5, side="left")
        want = rect_transmission(0.5, 1.0, 2.0)
        assert want == pytest.approx(RECT_T_FROZEN, abs=1e-15)
        assert res.t_coeff == pytest.approx(want, abs=1e-10)
        assert res.t_coeff + res.r_coeff == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_model_side_independent(self):
        rect = potentials.rectangular(1.0, 1.0)
        left = numeric_scatter.solve(rect, 0.5, side="left")
        right = numeric_scatter.solve(rect, 0.5, side="right")
        assert left.t_coeff == pytest.approx(right.t_coeff, rel=1e-12)
        assert waves.angle_distance(left.phi, right.phi) < 1e-10
        assert waves.angle_distance(left.theta, right.theta) < 1e-10

    def test_endpoint_precondition_names_offender(self):
        config = SolverConfig(x_left=-1.0, x_right=3.0, step=1e-3)
        rect = potentials.rectangular(1.0, 2.0)  # edge at the window end
        basis = numeric_scatter.integrate_basis(rect, 0.5, config)
        with pytest.raises(DomainError, match="x_left"):
            numeric_scatter.match(basis, side="left")

    def test_right_endpoint_precondition_names_offender(self):
        config = SolverConfig(x_left=-3.0, x_right=1.0, step=1e-3)
        rect = potentials.rectangular(1.0, 2.0)  # edge past the right end
        basis = numeric_scatter.integrate_basis(rect, 0.5, config)
        for side in ("left", "right"):
            with pytest.raises(DomainError, match="x_right"):
                numeric_scatter.match(basis, side=side)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_off_centre_window_matches_default(self, side):
        # an asymmetric window must not move the amplitudes: they are
        # referred to x = 0, not to the window ends
        rect = potentials.rectangular(1.0, 1.0)
        want = numeric_scatter.solve(rect, 0.5, side=side)
        step = numeric_scatter.default_config(rect).step  # edges on nodes
        config = SolverConfig(x_left=-3.0, x_right=5.0, step=step)
        got = numeric_scatter.solve(rect, 0.5, side=side, config=config)
        assert got.t_coeff == pytest.approx(want.t_coeff, abs=1e-10)
        assert abs(got.r_amp - want.r_amp) < 1e-10
        assert abs(got.t_amp - want.t_amp) < 1e-10

    def test_side_must_be_named(self):
        basis = numeric_scatter.integrate_basis(
            potentials.free(), 1.0, numeric_scatter.default_config(potentials.free())
        )
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
        phi, theta, _, _ = exp_barrier.phase_shifts(2.0, q, "left")
        assert waves.angle_distance(res.phi, phi) < 1e-5
        assert waves.angle_distance(res.theta, theta) < 1e-5

    def test_forbidden_component_stays_small(self):
        # with a deep tail the endpoint term is negligible and the residual
        # is dominated by the coefficient along the disallowed direction
        for q in (0.25, 1.0):
            config = SolverConfig(x_left=-30.0, x_right=3.5, step=1.0 / 2000.0)
            res = numeric_scatter.solve(EXP_MODEL, q * q / 4.0, side="left", config=config)
            assert res.match_residual < 1e-8

    def test_flux_conservation(self):
        res = numeric_scatter.solve(EXP_MODEL, 0.25, side="left")
        assert res.flux_imbalance < 1e-10

    def test_window_depth_insensitive(self):
        # (p, q) = (2, 1.5): answers must not depend on where the tail is cut
        energy = 1.5**2 / 4.0
        t_values = []
        for x_left in (-15.0, -25.0):
            config = SolverConfig(x_left=x_left, x_right=3.5, step=1.0 / 2000.0)
            t_values.append(
                numeric_scatter.solve(EXP_MODEL, energy, side="left", config=config).t_coeff
            )
        assert abs(t_values[0] - t_values[1]) < 1e-8


class TestScatteringWavefunction:
    def test_flux_profile_matches_transmission(self):
        res = numeric_scatter.solve(EXP_MODEL, 0.25, side="left")
        config = numeric_scatter.default_config(EXP_MODEL)
        basis = numeric_scatter.integrate_basis(EXP_MODEL, 0.25, config)
        wave = numeric_scatter.scattering_wavefunction(basis, res)
        # unit incident amplitude: flux = T * (hbar k / m) everywhere
        k = math.sqrt(2.0 * DEFAULT_UNITS.mass * 0.25) / DEFAULT_UNITS.hbar
        want = res.t_coeff * DEFAULT_UNITS.hbar * k / DEFAULT_UNITS.mass
        np.testing.assert_allclose(wave.flux_profile, want, rtol=1e-7)

    def test_shifted_model_is_phase_times_translation(self):
        # V(x - b) solutions are e^{ikb} psi(x - b) after unit-incident
        # normalization; compare on the shared nodes
        b, energy = 0.5, 0.25
        k = math.sqrt(2.0 * DEFAULT_UNITS.mass * energy) / DEFAULT_UNITS.hbar
        shifted = potentials.shifted_exponential(1.0, 1.0, b)

        res_0 = numeric_scatter.solve(EXP_MODEL, energy, side="left")
        cfg_0 = numeric_scatter.default_config(EXP_MODEL)
        base_0 = numeric_scatter.integrate_basis(EXP_MODEL, energy, cfg_0)
        wave_0 = numeric_scatter.scattering_wavefunction(base_0, res_0)

        res_b = numeric_scatter.solve(shifted, energy, side="left")
        cfg_b = numeric_scatter.default_config(shifted)
        base_b = numeric_scatter.integrate_basis(shifted, energy, cfg_b)
        wave_b = numeric_scatter.scattering_wavefunction(base_b, res_b)

        phase = complex(math.cos(k * b), math.sin(k * b))
        for x in (-1.0, 0.0, 1.0):
            i_b = int(np.argmin(np.abs(wave_b.grid - x)))
            i_0 = int(np.argmin(np.abs(wave_0.grid - (x - b))))
            assert abs(wave_b.psi[i_b] - phase * wave_0.psi[i_0]) < 1e-8


class TestDefaultConfig:
    def test_matching_coordinate_capped(self):
        # stronger potentials pull the right edge in so p e^{x/2a} stays put
        for v0 in (0.5, 1.0, math.e, 10.0):
            model = potentials.exponential(v0, 1.0)
            config = numeric_scatter.default_config(model)
            p = math.sqrt(8.0 * DEFAULT_UNITS.mass * v0)
            z_r = p * math.exp(config.x_right / 2.0)
            assert z_r < 13.0

    def test_rect_edges_land_on_nodes(self):
        model = potentials.rectangular(1.0, 0.7)
        config = numeric_scatter.default_config(model)
        ratio = model.half_width / config.step
        assert abs(ratio - round(ratio)) < 1e-9

    def test_unknown_kind_rejected(self):
        import dataclasses

        bad = dataclasses.replace(potentials.free(), kind="mystery")
        with pytest.raises(DomainError):
            numeric_scatter.default_config(bad)
