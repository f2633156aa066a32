"""Special-function layer: series Bessel/Hankel evaluations and the gamma
function, checked against integral-representation oracles computed here,
frozen high-precision reference values, and exact identities.
"""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from expscatter import specfun, verification
from expscatter.errors import AccuracyError, DomainError

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

    @pytest.mark.parametrize("z", [-1.3 + 0.4j, -2.5 + 0j, 0.25 - 3j])
    def test_refused_below_half(self, z):
        # every caller passes 1 +- iq; Re z < 0.5, alone or in an array, is
        # refused by name
        for arg in (z, np.array([1 + 1j, z, -4.0])):
            with pytest.raises(DomainError) as caught:
                specfun.complex_gamma(arg)
            assert str(caught.value) == f"complex_gamma needs Re z >= 0.5, got z = {z}"

    def test_pole_rejected(self):
        for z in (0.0 + 0.0j, -2.0 + 0.0j):
            with pytest.raises(DomainError) as caught:
                specfun.complex_gamma(z)
            assert str(caught.value) == f"complex_gamma needs Re z >= 0.5, got z = {z}"


# Bits of scalar Gamma(z) as the CPython-arithmetic Lanczos path gives them;
# the numeric lane's Hankel pair and the exact wavefunctions rely on them.
SCALAR_GAMMA_BITS = [
    (1 + 1j, "0x1.fdf7d1bddb10ap-2", "-0x1.3d5655e89de22p-3"),
    (1 + 0.05j, "0x1.febcb55564573p-1", "-0x1.d70066eeec042p-6"),
    (1 + 20j, "-0x1.1ba45770ac01ep-42", "0x1.4af38587feadep-45"),
    (0.7 + 1.3j, "0x1.1ac17c51d68bap-2", "-0x1.9a5b46c0f719cp-3"),
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
            np.array([0.5, -0.5, -2.5, 0.3 - 2j, 0.499999 + 1j]),
        ))
        # the whole array is refused by its first entry with Re z < 0.5 ...
        with pytest.raises(DomainError) as caught:
            specfun.complex_gamma(z)
        first = complex(z[z.real < 0.5][0])
        assert str(caught.value) == f"complex_gamma needs Re z >= 0.5, got z = {first}"
        # ... and the rest agrees with one scalar call per entry
        z = z[z.real >= 0.5]
        got = specfun.complex_gamma(z)
        want = np.array([specfun.complex_gamma(complex(v)) for v in z])
        assert got.shape == z.shape and got.dtype == complex
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13

    def test_array_keeps_shape(self):
        z = np.array([[1 + 1j, 2.3 - 0.4j], [2.0, 0.5 + 7j]])
        got = specfun.complex_gamma(z)
        assert got.shape == (2, 2)
        assert got[1, 0] == pytest.approx(1.0, abs=1e-14)  # Gamma(2) = 1
        assert specfun.complex_gamma(np.array([], dtype=complex)).size == 0

    def test_array_pole_names_first(self):
        with pytest.raises(DomainError, match=r"got z = \(-3\+0j\)$"):
            specfun.complex_gamma(np.array([1 + 1j, -3.0, -4.0]))
        with pytest.raises(DomainError, match="got z = 0j$"):
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
        with pytest.raises(AccuracyError):
            specfun.bessel_j_imag_order(1.0, 31.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            specfun.bessel_j_imag_order(1.0, -1.0)
        with pytest.raises(DomainError):
            specfun.bessel_j_imag_order(-0.5, 1.0)
        with pytest.raises(DomainError, match=r"^sign must be \+-1, got 0$"):
            specfun.bessel_j_imag_order(1.0, 1.0, sign=0)


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
        with pytest.raises(DomainError, match="^q = 0.0 below 1e-08"):
            specfun.hankel_imag_order(0.0, 2.0, kind=1)

    @pytest.mark.parametrize("q", [151.5, 180.0, 222.0])
    def test_h1_finite_up_to_the_overflow_guard(self, q):
        # |J_{iq}| ~ e^{q pi / 2}: e^{q pi} J_{iq} would overflow past q ~ 151,
        # while H1 itself, near e^{q pi / 2}, fits a double up to q pi = 700
        z = np.array([0.1, 1.0, 5.0, 12.0])
        ev = specfun.hankel_imag_order(q, z)
        for zi, value, dvalue in zip(z.tolist(), ev.value.tolist(), ev.dvalue.tolist()):
            with mpmath.workdps(40):
                ref = complex(mpmath.hankel1(1j * q, zi))
                dref = complex(mpmath.diff(lambda t: mpmath.hankel1(1j * q, t), zi))
            assert abs(value - ref) <= 5e-13 * abs(ref)
            assert abs(dvalue - dref) <= 5e-13 * abs(dref)

    def test_overflow_guard(self):
        with pytest.raises(DomainError):
            specfun.hankel_imag_order(250.0, 2.0, kind=1)

    def test_bad_kind_rejected(self):
        with pytest.raises(DomainError):
            specfun.hankel_imag_order(1.0, 2.0, kind=3)


# Bits of the scalar series (value, then derivative, real and imaginary
# parts, and the terms summed) as CPython arithmetic gives them; the
# numeric lane's H1 at z = 8 and verify's checks rely on them.
SCALAR_J_BITS = [
    (0.05, 0.1, 1, ("0x1.fc0aaabf34940p-1", "-0x1.ed9579b4da8d6p-4",
                    "0x1.68852d19df3ddp-7", "0x1.025f6cc7fa1dfp-1"), 6),
    (1.0, 2.0, -1, ("0x1.98aa23b3931ffp-1", "-0x1.f723edbb89c3fp-1",
                    "-0x1.5d9547d931152p+0", "-0x1.3e3ca15fdff11p-1"), 12),
    (0.5, 12.0, 1, ("0x1.ebe2b8f1cb55fp-5", "-0x1.91647ae803b95p-3",
                    "0x1.3001fb0e652dfp-2", "0x1.85cd2f156f501p-5"), 30),
    (8.0, 29.5, -1, ("-0x1.0301d8472b2a7p+14", "-0x1.82f82e48fc4a1p+13",
                     "-0x1.88cd20df70d70p+13", "0x1.0f70533dbc3f0p+14"), 50),
]
# re-frozen when H1 came to be formed as (J_{iq} - e^{-q pi} J_{-iq}) * 2 /
# (1 - e^{-2 q pi}): the values moved by at most 4.5e-16 relative
SCALAR_H1_BITS = [
    (0.05, 0.1, ("0x1.11ee3fe54d291p+0", "-0x1.a87017dd54af9p+0",
                 "0x1.84c6ff58a8a7bp-7", "0x1.bc5ad2c448857p+2"), 6),
    (0.5, 12.0, ("0x1.973b0e90d5e03p-4", "-0x1.fabb4e55c19e2p-2",
                 "0x1.f75fcec15e349p-2", "0x1.ec194a1c0066dp-4"), 30),
    (3.0, 20.0, ("0x1.391bcdd396bf7p+4", "0x1.52fe516990d0fp+1",
                 "-0x1.9417c6f62c178p+1", "0x1.3ba8f154eddcdp+4"), 40),
]


def bits(ev):
    return tuple(x.hex() for x in (ev.value.real, ev.value.imag, ev.dvalue.real, ev.dvalue.imag))


def mp_rel_error(q, sign, z, got):
    """Relative error of a J value against 40-digit mpmath."""
    with mpmath.workdps(40):
        ref = complex(mpmath.besselj(1j * sign * q, z))
    return abs(got - ref) / abs(ref)


class TestSeriesArray:
    @pytest.mark.parametrize("q, z, sign, want, terms", SCALAR_J_BITS)
    def test_scalar_j_bits_frozen(self, q, z, sign, want, terms):
        ev = specfun.bessel_j_imag_order(q, z, sign)
        assert type(ev.value) is complex and type(ev.dvalue) is complex
        assert bits(ev) == want and ev.terms_used == terms

    @pytest.mark.parametrize("q, z, want, terms", SCALAR_H1_BITS)
    def test_scalar_hankel_bits_frozen(self, q, z, want, terms):
        ev = specfun.hankel_imag_order(q, z, kind=1)
        assert bits(ev) == want and ev.terms_used == terms

    @pytest.mark.parametrize("z_max, bound", [(1.0, 1e-13), (12.0, 1e-10)])
    def test_array_matches_scalar_calls(self, z_max, bound):
        z = np.linspace(0.01, z_max, 60)
        for q in (0.05, 0.5, 2.0, 8.0):
            for sign in (1, -1):
                got = specfun.bessel_j_imag_order(q, z, sign)
                for i, zi in enumerate(z.tolist()):
                    want = specfun.bessel_j_imag_order(q, zi, sign)
                    assert abs(got.value[i] - want.value) <= bound * abs(want.value)
                    assert abs(got.dvalue[i] - want.dvalue) <= bound * abs(want.dvalue)
            h1 = specfun.hankel_imag_order(q, z)
            want = [specfun.hankel_imag_order(q, zi).value for zi in z.tolist()]
            assert np.max(np.abs(h1.value - want) / np.abs(want)) <= bound

    @pytest.mark.parametrize("z, bound", [(np.linspace(0.05, 12.0, 12), 2e-11),
                                          (np.linspace(13.0, 20.0, 6), 1e-8)])
    def test_both_paths_match_mpmath(self, z, bound):
        for q in (0.05, 0.5, 2.0, 8.0):
            for sign in (1, -1):
                got = specfun.bessel_j_imag_order(q, z, sign).value
                for zi, gi in zip(z.tolist(), got.tolist()):
                    scalar = specfun.bessel_j_imag_order(q, zi, sign).value
                    assert mp_rel_error(q, sign, zi, scalar) <= bound
                    assert mp_rel_error(q, sign, zi, gi) <= bound

    def test_fields_shaped_like_z(self):
        z = np.array([[0.5, 3.0, 29.0], [12.0, 1e-3, 7.5]])
        for ev in (specfun.bessel_j_imag_order(1.5, z), specfun.hankel_imag_order(1.5, z)):
            assert ev.value.shape == z.shape and ev.dvalue.shape == z.shape
            assert ev.value.dtype == complex and ev.dvalue.dtype == complex
        # the most terms any point summed: the largest z's count
        terms = [specfun.bessel_j_imag_order(1.5, zi).terms_used for zi in z.flat]
        assert specfun.bessel_j_imag_order(1.5, z).terms_used == max(terms) == terms[2]
        h_terms = [specfun.hankel_imag_order(1.5, zi).terms_used for zi in z.flat]
        assert specfun.hankel_imag_order(1.5, z).terms_used == max(h_terms)

    @pytest.mark.parametrize("bad, error, message", [
        (-1.0, DomainError, "series argument requires real z > 0, got -1.0"),
        (0.0, DomainError, "series argument requires real z > 0, got 0.0"),
        (math.nan, DomainError, "series argument requires real z > 0, got nan"),
        (math.inf, DomainError, "series argument requires real z > 0, got inf"),
        (31.0, AccuracyError, "z = 31 exceeds the certified series domain z <= 30; "
                              "reduce the argument (smaller x_max or smaller p)"),
    ])
    def test_array_refusal_names_first_bad_entry(self, bad, error, message):
        # the scalar message, and for an array the one of its first bad entry
        for z in (bad, np.array([0.5, bad, 2.0, -7.0, 45.0])):
            for call in (specfun.bessel_j_imag_order, specfun.hankel_imag_order):
                with pytest.raises(error) as caught:
                    call(1.0, z)
                assert str(caught.value) == message

    def test_non_convergence_names_first_bad_entry(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 8)
        scalar = "series for J_(i1)(5) did not meet tolerance in 8 terms; last |term| = "
        with pytest.raises(AccuracyError, match=re.escape(scalar)) as caught:
            specfun.bessel_j_imag_order(1.0, 5.0)
        # 0.01 converges in 8 terms, 5 and 9 do not
        with pytest.raises(AccuracyError) as in_array:
            specfun.bessel_j_imag_order(1.0, np.array([0.01, 5.0, 9.0]))
        assert str(in_array.value) == str(caught.value)

    def test_empty_array(self):
        ev = specfun.bessel_j_imag_order(1.0, np.array([]))
        assert ev.value.shape == (0,) and ev.dvalue.shape == (0,)

    def test_array_q_matches_scalar_calls_on_the_eq12_grid(self):
        # verify's eq12 grid in one call per function: q a column of 8, z a
        # row of 9 up to 10, where cancellation amplifies numpy's rounding
        # like eps e^z; measured worst: J 2.8e-13 in value and 2.6e-12 in
        # derivative, H 1.1e-13 and 6.1e-13, relative
        q, z = verification._EQ12_Q, verification._EQ12_Z
        calls = [(specfun.bessel_j_imag_order, 1, 5e-13, 5e-12),
                 (specfun.bessel_j_imag_order, -1, 5e-13, 5e-12),
                 (specfun.hankel_imag_order, 1, 2e-13, 1e-12),
                 (specfun.hankel_imag_order, 2, 2e-13, 1e-12)]
        for call, arg, bound, dbound in calls:
            got = call(q, z, arg)
            assert got.value.shape == got.dvalue.shape == (q.size, z.size)
            terms = []
            for i, qi in enumerate(q.ravel().tolist()):
                for j, zj in enumerate(z.tolist()):
                    want = call(qi, zj, arg)
                    terms.append(want.terms_used)
                    assert abs(got.value[i, j] - want.value) <= bound * abs(want.value)
                    assert abs(got.dvalue[i, j] - want.dvalue) <= dbound * abs(want.dvalue)
            assert got.terms_used == max(terms)

    @pytest.mark.parametrize("call, bad, message", [
        (specfun.bessel_j_imag_order, -0.5,
         "order magnitude q must be finite and >= 0, got -0.5"),
        (specfun.bessel_j_imag_order, math.nan,
         "order magnitude q must be finite and >= 0, got nan"),
        (specfun.bessel_j_imag_order, math.inf,
         "order magnitude q must be finite and >= 0, got inf"),
        (specfun.hankel_imag_order, -0.5,
         "q = -0.5 below 1e-08: Hankel assembly degenerate, treat the order as real"),
        (specfun.hankel_imag_order, math.nan,
         "q = nan below 1e-08: Hankel assembly degenerate, treat the order as real"),
        (specfun.hankel_imag_order, 5e-9,
         "q = 5e-09 below 1e-08: Hankel assembly degenerate, treat the order as real"),
        (specfun.hankel_imag_order, 250.0, "q = 250 overflows exp(q pi)"),
    ])
    def test_array_q_refusal_names_its_entry(self, call, bad, message):
        # the scalar message, and for an array q the one of its bad entry,
        # as a row or as a column broadcast against an array z
        for q, z in ((bad, 2.0), (np.array([0.5, bad, 2.0]), 2.0),
                     (np.array([[0.5], [bad], [2.0]]), np.array([0.5, 2.0]))):
            with pytest.raises(DomainError) as caught:
                call(q, z)
            assert str(caught.value) == message

    def test_array_q_non_convergence_names_its_entry(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 8)
        with pytest.raises(AccuracyError) as caught:
            specfun.bessel_j_imag_order(2.0, 5.0, sign=-1)
        assert str(caught.value).startswith("series for J_(i-2)(5) did not meet tolerance")
        # at z = 0.01 every q converges in 8 terms, at z = 5 none does
        with pytest.raises(AccuracyError) as in_array:
            specfun.bessel_j_imag_order(np.array([[2.0], [3.0]]), np.array([0.01, 5.0]), sign=-1)
        assert str(in_array.value) == str(caught.value)


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
