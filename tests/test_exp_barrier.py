"""Closed-form scattering off the exponential drop: coefficients, phases
and the exact wavefunctions, cross-checked between independent routes
(series far field vs closed-form amplitudes) and frozen references.  The
flux ratios of eq. 13 are measured by the numeric lane against these
closed forms in the acceptance tests (criterion 11) and in ``verify``.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import loggamma

from expscatter import exp_barrier, potentials, specfun, waves
from expscatter.errors import AccuracyError, DomainError
from expscatter.potentials import DEFAULT_UNITS, Units

# Frozen from a 40-digit evaluation of 1 - e^{-2 pi q} at q = 1/2.
T_AT_HALF = 0.95678608173622775023

EXP_MODEL = potentials.exponential(1.0, 1.0)


class TestReduceParams:
    def test_reference_units(self):
        # v0=1, a=1, m=1/2, hbar=1: E = 1/4 gives k = 1/2, q = 1, p = 2
        d = exp_barrier.reduce_params(EXP_MODEL, 0.25)
        assert d.q == pytest.approx(1.0, rel=1e-15)
        assert d.p == pytest.approx(2.0, rel=1e-15)

    def test_q_is_sqrt_energy_over_delta(self):
        delta = DEFAULT_UNITS.hbar**2 / (8.0 * DEFAULT_UNITS.mass * EXP_MODEL.a**2)
        d = exp_barrier.reduce_params(EXP_MODEL, 1.0)
        assert d.q == pytest.approx(math.sqrt(1.0 / delta), rel=1e-15)

    def test_p_ignores_energy(self):
        p1 = exp_barrier.reduce_params(EXP_MODEL, 0.1).p
        p2 = exp_barrier.reduce_params(EXP_MODEL, 3.0).p
        assert p1 == p2

    def test_p_folds_in_offset_and_units(self):
        model = potentials.exponential(2.5, 0.7, 0.3)
        units = Units(mass=3.0, hbar=2.0)
        d = exp_barrier.reduce_params(model, 1.0, units)
        want = math.sqrt(8.0 * 3.0 * 2.5 * math.exp(-0.3 / 0.7)) * 0.7 / 2.0
        assert d.p == pytest.approx(want, rel=1e-15)
        assert d.q == pytest.approx(2.0 * 0.7 * math.sqrt(2.0 * 3.0) / 2.0, rel=1e-15)

    def test_p_formula(self):
        m = potentials.exponential(2.0, 1.5, -0.4)
        units = Units(mass=0.3, hbar=1.7)
        want = math.sqrt(8.0 * 0.3 * 2.0 * math.exp(0.4 / 1.5)) * 1.5 / 1.7
        assert exp_barrier.reduce_params(m, 1.0, units).p == pytest.approx(want, rel=1e-15)
        assert exp_barrier.reduce_params(EXP_MODEL, 1.0).p == 2.0

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(DomainError):
            exp_barrier.reduce_params(EXP_MODEL, 0.0)
        with pytest.raises(DomainError):
            exp_barrier.reduce_params(EXP_MODEL, -1.0)

    def test_params_validation(self):
        # the model and the units record refuse what PhysicalParams refused
        with pytest.raises(DomainError):
            potentials.exponential(1.0, -1.0)
        with pytest.raises(DomainError):
            Units(mass=-0.5, hbar=1.0)

    @pytest.mark.parametrize("v0, mass", [(1e308, 0.5), (1e-300, 1e-300)])
    def test_refuses_p_out_of_range(self, v0, mass):
        # p overflows to inf or vanishes: refused before any closed form sees it
        with pytest.raises(DomainError, match=r"^p = sqrt\(8 m v0 e\^\(-b/a\)\) a / hbar = "):
            exp_barrier.reduce_params(potentials.exponential(v0, 1.0), 1.0, Units(mass, 1.0))


class TestTransmissionReflection:
    def test_frozen_value(self):
        t, r = exp_barrier.transmission_reflection(0.5)
        assert t == pytest.approx(T_AT_HALF, abs=1e-15)
        assert r == pytest.approx(1.0 - T_AT_HALF, abs=1e-15)

    def test_opaque_and_transparent_limits(self):
        t0, r0 = exp_barrier.transmission_reflection(0.0)
        assert t0 == 0.0 and r0 == 1.0
        t_hi, _ = exp_barrier.transmission_reflection(10.0)
        assert t_hi >= 1.0 - 1e-12

    def test_tiny_q_no_cancellation(self):
        t, _ = exp_barrier.transmission_reflection(1e-12)
        assert t == pytest.approx(2.0 * math.pi * 1e-12, rel=1e-12)

    def test_rejects_negative_q(self):
        with pytest.raises(DomainError):
            exp_barrier.transmission_reflection(-0.1)


class TestArrayColumns:
    """An array q evaluates the closed forms as columns; each entry must
    agree with the scalar call: q bit for bit, T and R within 2 ulp, phases
    within 1e-13 plus the rounding of the unreduced phase sum."""

    Q = np.logspace(math.log10(2e-8), math.log10(222.0), 3000)

    def test_reduce_params_bits(self):
        energies = np.logspace(-20, 5, 500)
        d = exp_barrier.reduce_params(EXP_MODEL, energies)
        for e, q in zip(energies.tolist(), d.q.tolist()):
            assert q == exp_barrier.reduce_params(EXP_MODEL, e).q
        assert d.p == exp_barrier.reduce_params(EXP_MODEL, 1.0).p

    def test_transmission_reflection(self):
        t, r = exp_barrier.transmission_reflection(self.Q)
        scalar = np.array([exp_barrier.transmission_reflection(q) for q in self.Q.tolist()])
        np.testing.assert_array_max_ulp(t, scalar[:, 0], maxulp=2)
        np.testing.assert_array_max_ulp(r, scalar[:, 1], maxulp=2)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("p", [0.3, 2.0, 57.0])
    def test_phase_shifts(self, p, side):
        # phi and theta of an array call against one scalar call per entry
        data = exp_barrier.amplitudes(p, self.Q, side)
        scalar = [exp_barrier.amplitudes(p, q, side) for q in self.Q.tolist()]
        # phi's (p/2)^{-2iq} carries 2 alpha = 2 q ln(p/2) unreduced: allow
        # the rounding of that phase
        alpha = self.Q * math.log(0.5 * p)
        tol = 1e-13 + 4.0 * np.spacing(2.0 * np.abs(alpha))
        for name in ("phi", "theta"):
            got = getattr(data, name)
            assert got.shape == self.Q.shape
            assert np.all(np.abs(got - np.array([getattr(s, name) for s in scalar])) <= tol)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_array_p_matches_scalar_p_calls(self, side):
        # p a column against q, as verify's (p, q) grids: each row agrees
        # with the scalar-p call, which test_phase_shifts holds to one
        # scalar call per entry (equal to the bit on numpy 2.4 here)
        p = np.array([1e-3, 0.3, 2.0, 57.0, 1e3])
        q = self.Q[::30]
        data = exp_barrier.amplitudes(p[:, np.newaxis], q, side)
        assert data.t_amp.shape == data.theta.shape == (p.size, q.size)
        assert data.t_coeff.shape == q.shape
        for row, scalar_p in enumerate(p.tolist()):
            want = exp_barrier.amplitudes(scalar_p, q, side)
            tol = 1e-13 + 4.0 * np.spacing(2.0 * np.abs(q * math.log(0.5 * scalar_p)))
            for name in ("r_amp", "t_amp"):
                got = np.broadcast_to(getattr(data, name), data.t_amp.shape)[row]
                np.testing.assert_allclose(got, getattr(want, name), rtol=1e-14, atol=0.0)
            for name in ("phi", "theta"):
                got = np.broadcast_to(getattr(data, name), data.t_amp.shape)[row]
                assert np.all(np.abs(got - getattr(want, name)) <= tol)

    def test_refusal_names_first_offender(self):
        q = np.array([0.5, 5e-9, 1e-9, 300.0])
        with pytest.raises(DomainError, match=r"^q = 5e-09 at or below"):
            exp_barrier.amplitudes(2.0, q)
        with pytest.raises(DomainError, match=r"^q = 300.0 overflows"):
            exp_barrier.amplitudes(2.0, q[[0, 3]])
        with pytest.raises(DomainError, match=r"got -0.1$"):
            exp_barrier.transmission_reflection(np.array([0.2, -0.1]))
        with pytest.raises(DomainError, match=r"^p must be finite and > 0, got -1.0$"):
            exp_barrier.amplitudes(np.array([[2.0], [-1.0]]), q[:1])
        with pytest.raises(DomainError, match=r"energy must be finite and > 0, got inf$"):
            exp_barrier.reduce_params(EXP_MODEL, np.array([1.0, math.inf]))

    def test_domain_mask_is_the_scalar_check(self):
        q = np.array([-1.0, 0.0, 1e-8, 1.0000001e-8, 1.0, 700.0 / math.pi,
                      math.nextafter(700.0 / math.pi, 1e3), math.inf, math.nan])
        mask = exp_barrier.closed_form_domain(2.0, q)
        for accepted, value in zip(mask.tolist(), q.tolist()):
            try:
                exp_barrier.amplitudes(2.0, value)
            except DomainError:
                assert not accepted
            else:
                assert accepted
        assert not exp_barrier.closed_form_domain(math.inf, np.array([1.0]))[0]


class TestAmplitudes:
    def test_moduli_both_sides(self):
        for q in (0.3, 1.0, 2.5):
            for side in ("left", "right"):
                data = exp_barrier.amplitudes(2.0, q, side)
                assert abs(data.r_amp) == pytest.approx(math.exp(-math.pi * q), rel=1e-13)
                assert data.r_coeff == pytest.approx(math.exp(-2.0 * math.pi * q), rel=1e-12)
                assert data.t_coeff + data.r_coeff == pytest.approx(1.0, abs=1e-14)

    def test_right_reflection_is_minus_i_scale(self):
        data = exp_barrier.amplitudes(2.0, 1.0, "right")
        want = -1j * math.exp(-math.pi)
        assert abs(data.r_amp - want) < 1e-15

    def test_phases_are_arguments(self):
        data = exp_barrier.amplitudes(2.0, 1.0, "left")
        assert waves.angle_distance(data.phi, cmath.phase(data.r_amp)) < 1e-12
        assert waves.angle_distance(data.theta, cmath.phase(data.t_amp)) < 1e-12

    def test_transmission_theta_reciprocity(self):
        # Arg t_L against Arg t_R: two different products of the closed forms
        for p, q in ((2.0, 0.5), (4.0, 1.3)):
            th_l = exp_barrier.amplitudes(p, q, "left").theta
            th_r = exp_barrier.amplitudes(p, q, "right").theta
            assert waves.angle_distance(th_l, th_r) < 1e-12

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("q", [155.0, 170.0, 200.0, 222.0])
    @pytest.mark.parametrize("p", [2.0, 57.0])
    def test_whole_domain_against_loggamma(self, p, q, side):
        # up to pi q = 700: |r| = e^{-pi q} and the phases of the closed
        # formulas, with beta = Arg Gamma(1+iq) from scipy's loggamma, which
        # shares no code with complex_gamma; the left r must form the Gamma
        # ratio first, since e^{-pi q} Gamma(1+iq) underflows to 0 from q ~ 159
        data = exp_barrier.amplitudes(p, q, side)
        assert abs(data.r_amp) == pytest.approx(math.exp(-math.pi * q), rel=1e-12)
        alpha = q * math.log(0.5 * p)
        beta = float(loggamma(1.0 + 1j * q).imag)
        phi = -2.0 * alpha + 2.0 * beta + math.pi if side == "left" else -0.5 * math.pi
        assert waves.angle_distance(data.phi, phi) <= 1e-11
        assert waves.angle_distance(data.theta, -alpha + beta - 0.25 * math.pi) <= 1e-11

    def test_side_validation(self):
        with pytest.raises(DomainError):
            exp_barrier.amplitudes(2.0, 1.0, "up")

    def test_degenerate_q_rejected(self):
        with pytest.raises(DomainError, match=r"^q = 0.0 at or below the degenerate-order"):
            exp_barrier.amplitudes(2.0, 0.0, "left")


def oracle_exact_wavefunction(p, q, side, grid):
    """The per-point assembly exact_wavefunction replaced: one scalar series
    call per sample, (psi, dpsi, flux_profile)."""
    psi = np.empty(len(grid), dtype=complex)
    dpsi = np.empty(len(grid), dtype=complex)
    for i, xi in enumerate(grid):
        z = p * math.exp(0.5 * float(xi))
        if side == "left":
            ev = specfun.hankel_imag_order(q, z, kind=1)
            psi[i] = ev.value
            dpsi[i] = ev.dvalue * (0.5 * z)
        else:
            ev = specfun.bessel_j_imag_order(q, z, sign=-1)
            scale = 2.0 * math.exp(-math.pi * q)
            psi[i] = scale * ev.value
            dpsi[i] = scale * ev.dvalue * (0.5 * z)
    return psi, dpsi, np.imag(np.conj(psi) * dpsi)


class TestExactWavefunction:
    def test_far_left_is_two_plane_waves(self):
        # the series value deep in the tail must reduce to
        # A (e^{i q xi / 2} + r e^{-i q xi / 2}) with the closed-form r
        p, q, xi = 2.0, 1.0, -30.0
        wave = exp_barrier.exact_wavefunction(p, q, "left", [xi])
        A = exp_barrier.incident_amplitude(p, q, "left")
        r = exp_barrier.amplitudes(p, q, "left").r_amp
        model = A * (cmath.exp(0.5j * q * xi) + r * cmath.exp(-0.5j * q * xi))
        assert abs(wave.psi[0] - model) < 1e-8 * abs(A)

    def test_far_left_right_incidence_is_transmitted_wave(self):
        p, q, xi = 2.0, 1.0, -30.0
        wave = exp_barrier.exact_wavefunction(p, q, "right", [xi])
        A = exp_barrier.incident_amplitude(p, q, "right")
        t = exp_barrier.amplitudes(p, q, "right").t_amp
        model = t * A * cmath.exp(-0.5j * q * xi)
        assert abs(wave.psi[0] - model) < 1e-8 * abs(model)

    def test_flux_profile_constant(self):
        wave = exp_barrier.exact_wavefunction(2.0, 1.0, "left", [-10.0, 0.0, 2.0])
        spread = np.max(wave.flux_profile) - np.min(wave.flux_profile)
        assert spread < 1e-10 * abs(np.mean(wave.flux_profile))

    def test_decaying_envelope_tracks_quarter_exponent(self):
        # |psi| ~ sqrt(2/(pi z)) e^{q pi / 2} means |psi| e^{xi/4} is
        # constant up to the (4q^2+1)/(16 z^2) correction; check the
        # correction law rather than exact constancy
        p, q = 0.4, 1.0
        xis = np.array([6.0, 8.0])
        wave = exp_barrier.exact_wavefunction(p, q, "left", xis)
        z = p * np.exp(0.5 * xis)
        scaled = np.abs(wave.psi) * np.sqrt(math.pi * z / 2.0) * math.exp(-0.5 * q * math.pi)
        correction = (4.0 * q**2 + 1.0) / (16.0 * z**2)
        for s, c in zip(scaled, correction):
            assert abs(abs(s) - 1.0) == pytest.approx(c, rel=0.2)

    def test_derivative_consistent_with_difference(self):
        p, q, h = 2.0, 0.8, 1e-5
        grid = [0.5 - h, 0.5, 0.5 + h]
        wave = exp_barrier.exact_wavefunction(p, q, "left", grid)
        fd = (wave.psi[2] - wave.psi[0]) / (2.0 * h)
        assert abs(wave.dpsi[1] - fd) < 1e-8 * abs(fd)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("x_max, bound", [(-2.0, 1e-13), (3.5, 1e-10)])
    def test_one_array_call_matches_the_per_point_oracle(self, side, x_max, bound, monkeypatch):
        # p = 2: z runs from 6e-9 to 0.74 (x/a <= -2) or to 11.5 (x/a <= 3.5)
        p, q = 2.0, 0.7
        grid = np.linspace(-40.0, x_max, 301)
        want = oracle_exact_wavefunction(p, q, side, grid)
        # every series call takes the whole grid: H1 sums its J pair
        sizes = []
        real = specfun.bessel_j_imag_order
        monkeypatch.setattr(specfun, "bessel_j_imag_order",
                            lambda q, z, sign: sizes.append(np.size(z)) or real(q, z, sign))
        got = exp_barrier.exact_wavefunction(p, q, side, grid)
        assert sizes == [grid.size] * (2 if side == "left" else 1)
        for field, scale in (("psi", want[0]), ("dpsi", want[1])):
            gap = np.abs(getattr(got, field) - scale) / np.abs(scale)
            assert np.max(gap) <= bound, field
        assert np.max(np.abs(got.flux_profile - want[2])) <= bound * np.abs(want[2]).max()

    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            exp_barrier.exact_wavefunction(2.0, 1.0, "left", [0.0, 0.0])

    def test_grid_must_be_one_dimensional(self):
        with pytest.raises(DomainError, match="^x_over_a must be a finite non-empty 1-d grid$"):
            exp_barrier.exact_wavefunction(2.0, 1.0, "left", [[0.0]])

    def test_series_domain_error_advises_bound(self):
        with pytest.raises(AccuracyError) as err:
            exp_barrier.exact_wavefunction(2.0, 1.0, "left", [10.0])
        assert "x/a below" in str(err.value)


class TestTranslationInvariance:
    def test_scaled_strength_equals_translated_solution(self):
        # replacing p by p e^{b/2a} shifts the potential left by b, so the
        # wavefunction translates; sample both and compare pointwise
        p, q, b = 1.2, 0.9, 1.0
        grid = np.linspace(-6.0, 2.0, 41)
        scaled = exp_barrier.exact_wavefunction(p * math.exp(b / 2.0), q, "left", grid)
        translated = exp_barrier.exact_wavefunction(p, q, "left", grid + b)
        assert np.max(np.abs(scaled.psi - translated.psi)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(q=st.floats(min_value=1e-6, max_value=50.0))
def test_property_unitarity(q):
    t, r = exp_barrier.transmission_reflection(q)
    assert abs(t + r - 1.0) < 1e-14
    assert 0.0 <= t <= 1.0 and 0.0 <= r <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(min_value=0.2, max_value=6.0),
    q=st.floats(min_value=0.05, max_value=4.0),
)
def test_property_phase_relation(p, q):
    # (phi_l - theta_l) + (phi_r - theta_r) = pi  (mod 2 pi)
    dl = exp_barrier.amplitudes(p, q, "left")
    dr = exp_barrier.amplitudes(p, q, "right")
    total = (dl.phi - dl.theta) + (dr.phi - dr.theta)
    assert waves.angle_distance(total, math.pi) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(min_value=0.2, max_value=6.0),
    q=st.floats(min_value=0.05, max_value=4.0),
)
def test_property_left_right_t_theta_match(p, q):
    dl = exp_barrier.amplitudes(p, q, "left")
    dr = exp_barrier.amplitudes(p, q, "right")
    assert dl.t_coeff == pytest.approx(dr.t_coeff, rel=1e-12)
    assert waves.angle_distance(dl.theta, dr.theta) < 1e-10
