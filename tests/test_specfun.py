"""Special-function layer: series Bessel/Hankel evaluations and the gamma
function, checked against integral-representation oracles computed here,
frozen high-precision reference values, and exact identities.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from expscatter import specfun
from expscatter.errors import (
    AccuracyError,
    DegenerateOrderError,
    DomainError,
    SeriesRangeError,
)

# Frozen from 40-digit evaluations, independent of the code under test.
J0_AT_1 = 0.76519768655796655145
GAMMA_HALF = 1.7724538509055160273
ABS_GAMMA_1PI_SQ = 0.27202905498213316295  # |Gamma(1+i)|^2 = pi/sinh(pi)
J_I_AT_2 = 0.79817306105684321 + 0.9826959887913143j
H1_I_AT_2 = 1.5302193482718249 + 2.0541602925662741j
H2_I_AT_2 = 0.066126773841861485 - 0.088768314983645458j
H1_HALF_I_AT_1P5 = 1.1586337733854392 + 0.74113444686388013j


class TestComplexGamma:
    def test_euler_integral_oracle(self):
        # Gamma(1+iq) = int_0^inf t^{iq} e^{-t} dt, computed by quadrature
        # here so the reference owes nothing to the series code
        for q in (0.3, 1.0, 2.5):
            re, _ = quad(lambda t: math.cos(q * math.log(t)) * math.exp(-t), 0, 50)
            im, _ = quad(lambda t: math.sin(q * math.log(t)) * math.exp(-t), 0, 50)
            got = specfun.complex_gamma(1.0 + 1j * q)
            assert abs(got - complex(re, im)) < 1e-10

    def test_real_half(self):
        assert specfun.complex_gamma(0.5 + 0j) == pytest.approx(GAMMA_HALF, abs=1e-14)

    def test_modulus_identity(self):
        g = specfun.complex_gamma(1.0 + 1j)
        assert abs(g) ** 2 == pytest.approx(ABS_GAMMA_1PI_SQ, rel=1e-13)

    def test_recurrence(self):
        z = 0.7 + 1.3j
        lhs = specfun.complex_gamma(z + 1.0)
        rhs = z * specfun.complex_gamma(z)
        assert abs(lhs - rhs) < 1e-13 * abs(lhs)

    def test_reflection_region(self):
        # Re z < 0.5 goes through the reflection branch
        z = -1.3 + 0.4j
        lhs = specfun.complex_gamma(z) * specfun.complex_gamma(1.0 - z)
        import cmath

        rhs = math.pi / cmath.sin(math.pi * z)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            specfun.complex_gamma(0.0 + 0.0j)
        with pytest.raises(DomainError):
            specfun.complex_gamma(-2.0 + 0.0j)


# Bits of scalar Gamma(z) as the CPython-arithmetic Lanczos path gives them;
# the numeric lane's Hankel pair and the exact wavefunctions rely on them.
SCALAR_GAMMA_BITS = [
    (1 + 1j, "0x1.fdf7d1bddb10ap-2", "-0x1.3d5655e89de22p-3"),
    (1 + 0.05j, "0x1.febcb55564573p-1", "-0x1.d70066eeec042p-6"),
    (1 + 20j, "-0x1.1ba45770ac01ep-42", "0x1.4af38587feadep-45"),
    (0.7 + 1.3j, "0x1.1ac17c51d68bap-2", "-0x1.9a5b46c0f719cp-3"),
    (-1.3 + 0.4j, "0x1.16b28b3a80e4bp+0", "0x1.1cdf2bfc2f1c9p+0"),
    (-2.5 + 0j, "-0x1.e3ff812e32181p-1", "-0x0.0p+0"),
    (0.25 - 3j, "0x1.175a3debc3212p-6", "0x1.a29ca12f5e54bp-10"),
]


class TestComplexGammaArray:
    @pytest.mark.parametrize("z, re_hex, im_hex", SCALAR_GAMMA_BITS)
    def test_scalar_bits_frozen(self, z, re_hex, im_hex):
        g = specfun.complex_gamma(z)
        assert type(g) is complex
        assert g.real.hex() == re_hex and g.imag.hex() == im_hex

    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(5)
        z = np.concatenate((
            1.0 + 1j * np.logspace(-8, math.log10(222.0), 400),  # sweep q range
            rng.uniform(-20, 20, 400) + 1j * rng.uniform(-50, 50, 400),
            np.array([0.5, -0.5, -2.5, 0.3 - 2j, 0.499999 + 1j]),  # Re z < 0.5 reflects
        ))
        got = specfun.complex_gamma(z)
        want = np.array([specfun.complex_gamma(complex(v)) for v in z])
        assert got.shape == z.shape and got.dtype == complex
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13

    def test_array_keeps_shape(self):
        z = np.array([[1 + 1j, -1.3 + 0.4j], [2.0, 0.5 + 7j]])
        got = specfun.complex_gamma(z)
        assert got.shape == (2, 2)
        assert got[1, 0] == pytest.approx(1.0, abs=1e-14)  # Gamma(2) = 1
        assert specfun.complex_gamma(np.array([], dtype=complex)).size == 0

    def test_array_pole_names_first(self):
        with pytest.raises(DomainError, match="pole at z = -3$"):
            specfun.complex_gamma(np.array([1 + 1j, -3.0, -4.0]))
        with pytest.raises(DomainError, match="pole at z = 0$"):
            specfun.complex_gamma(np.array([-0.0 + 0j]))


class TestBesselSeries:
    def test_real_order_zero_limit(self):
        # q -> 0 reduces to the ordinary J_0; integral oracle value
        ev = specfun.bessel_j_imag_order(0.0, 1.0)
        assert ev.value.real == pytest.approx(J0_AT_1, abs=1e-14)
        assert abs(ev.value.imag) < 1e-15

    def test_integral_oracle_real_order_zero(self):
        # J_0(z) = (1/pi) int_0^pi cos(z sin t) dt, computed here
        for z in (0.5, 1.0, 3.0):
            ref, _ = quad(lambda t: math.cos(z * math.sin(t)) / math.pi, 0, math.pi)
            ev = specfun.bessel_j_imag_order(0.0, z)
            assert abs(ev.value.real - ref) < 1e-12

    def test_frozen_spot_value(self):
        ev = specfun.bessel_j_imag_order(1.0, 2.0, sign=1)
        assert abs(ev.value - J_I_AT_2) < 1e-13

    def test_mpmath_cross_check(self):
        mpmath.mp.dps = 30
        for q in (0.3, 1.0, 2.2):
            for z in (0.4, 2.0, 8.0):
                ref = complex(mpmath.besselj(1j * q, z))
                ev = specfun.bessel_j_imag_order(q, z, sign=1)
                assert abs(ev.value - ref) < 1e-11 * max(1.0, abs(ref))

    def test_derivative_matches_finite_difference(self):
        q, z, h = 0.8, 1.7, 1e-5
        plus = specfun.bessel_j_imag_order(q, z + h).value
        minus = specfun.bessel_j_imag_order(q, z - h).value
        ev = specfun.bessel_j_imag_order(q, z)
        assert abs(ev.dvalue - (plus - minus) / (2 * h)) < 1e-8

    def test_ode_residual(self):
        # z^2 J'' + z J' + (z^2 + q^2) J = 0 for order iq, J'' by differences
        q, z, h = 1.3, 2.4, 1e-4
        f = lambda x: specfun.bessel_j_imag_order(q, x).value
        second = (f(z + h) - 2.0 * f(z) + f(z - h)) / h**2
        ev = specfun.bessel_j_imag_order(q, z)
        residual = z**2 * second + z * ev.dvalue + (z**2 + q**2) * ev.value
        assert abs(residual) < 1e-6

    def test_small_z_leading_term(self):
        # J_{iq}(z) -> (z/2)^{iq} / Gamma(1+iq) as z -> 0
        q, z = 0.9, 1e-6
        lead = np.exp(1j * q * math.log(z / 2.0)) / specfun.complex_gamma(1.0 + 1j * q)
        ev = specfun.bessel_j_imag_order(q, z)
        assert abs(ev.value - lead) < 1e-10 * abs(lead)

    def test_conjugate_orders(self):
        q, z = 1.4, 3.3
        plus = specfun.bessel_j_imag_order(q, z, sign=1).value
        minus = specfun.bessel_j_imag_order(q, z, sign=-1).value
        assert abs(minus - plus.conjugate()) < 1e-14 * abs(plus)

    def test_series_domain_bound(self):
        with pytest.raises(SeriesRangeError):
            specfun.bessel_j_imag_order(1.0, 31.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            specfun.bessel_j_imag_order(1.0, -1.0)
        with pytest.raises(DomainError):
            specfun.bessel_j_imag_order(-0.5, 1.0)


class TestHankelPair:
    def test_frozen_spot_values(self):
        h1 = specfun.hankel_imag_order(1.0, 2.0, kind=1)
        h2 = specfun.hankel_imag_order(1.0, 2.0, kind=2)
        assert abs(h1.value - H1_I_AT_2) < 1e-12
        assert abs(h2.value - H2_I_AT_2) < 1e-12
        h = specfun.hankel_imag_order(0.5, 1.5, kind=1)
        assert abs(h.value - H1_HALF_I_AT_1P5) < 1e-12

    def test_mean_recovers_bessel(self):
        # (H1 + H2)/2 = J_{iq} for any q, z
        q, z = 0.7, 2.6
        h1 = specfun.hankel_imag_order(q, z, kind=1).value
        h2 = specfun.hankel_imag_order(q, z, kind=2).value
        j = specfun.bessel_j_imag_order(q, z, sign=1).value
        assert abs(0.5 * (h1 + h2) - j) < 1e-13 * abs(j)

    def test_conjugation_exchange(self):
        # conj(H1_{iq}(z)) = e^{q pi} H2_{iq}(z) on the real axis
        for q, z in ((0.4, 1.1), (1.0, 2.0), (2.0, 6.5)):
            h1 = specfun.hankel_imag_order(q, z, kind=1).value
            h2 = specfun.hankel_imag_order(q, z, kind=2).value
            lhs = h1.conjugate()
            rhs = math.exp(q * math.pi) * h2
            assert abs(lhs - rhs) < 1e-11 * abs(lhs)

    def test_wronskian(self):
        # W[H1, H2](z) = -4i / (pi z)
        q, z = 1.2, 3.7
        h1 = specfun.hankel_imag_order(q, z, kind=1)
        h2 = specfun.hankel_imag_order(q, z, kind=2)
        w = h1.value * h2.dvalue - h1.dvalue * h2.value
        assert abs(w - (-4j / (math.pi * z))) < 1e-12

    def test_degenerate_order_rejected(self):
        with pytest.raises(DegenerateOrderError):
            specfun.hankel_imag_order(0.0, 2.0, kind=1)

    def test_overflow_guard(self):
        with pytest.raises(DomainError):
            specfun.hankel_imag_order(250.0, 2.0, kind=1)

    def test_bad_kind_rejected(self):
        with pytest.raises(DomainError):
            specfun.hankel_imag_order(1.0, 2.0, kind=3)


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(min_value=0.1, max_value=5.0),
    z=st.floats(min_value=0.1, max_value=10.0),
)
def test_property_bessel_wronskian(q, z):
    # W[J_{iq}, J_{-iq}](z) = -2i sinh(q pi) / (pi z)
    b1 = specfun.bessel_j_imag_order(q, z, sign=1)
    b2 = specfun.bessel_j_imag_order(q, z, sign=-1)
    w = b1.value * b2.dvalue - b1.dvalue * b2.value
    want = -2j * math.sinh(q * math.pi) / (math.pi * z)
    assert abs(w - want) < 1e-9 * max(1.0, abs(want))


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(min_value=0.1, max_value=5.0),
    z=st.floats(min_value=0.1, max_value=10.0),
)
def test_property_conjugation(q, z):
    b1 = specfun.bessel_j_imag_order(q, z, sign=1)
    b2 = specfun.bessel_j_imag_order(q, z, sign=-1)
    assert abs(b1.value.conjugate() - b2.value) < 1e-9 * max(1.0, abs(b1.value))
    h1 = specfun.hankel_imag_order(q, z, kind=1).value
    h2 = specfun.hankel_imag_order(q, z, kind=2).value
    scale = max(abs(h1), 1.0)
    assert abs(h1.conjugate() - math.exp(q * math.pi) * h2) < 1e-9 * scale
