"""Special functions for purely imaginary order.

Bessel functions J with order +-i*q evaluated for real argument z > 0 by
the ascending power series

    J_{+-iq}(z) = sum_k (-1)^k (z/2)^(2k +- iq) / (k! Gamma(k + 1 +- iq))

with (z/2)^(+-iq) = exp(+-i q ln(z/2)).  Hankel functions of the first and
second kind are assembled from the J pair, and a large-argument travelling
form is provided for matching against plane-like waves.  Derivatives come
from differentiating the series term by term, never from finite
differences.

The series is summed in double precision.  Its alternating terms grow
like e^z, so cancellation costs digits as z grows; about four remain at
z = 30 (see Z_SERIES_MAX), and that radius is enforced as a hard domain
bound rather than silently returning fewer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import AccuracyError, DegenerateOrderError, DomainError, SeriesRangeError

# Series truncation policy: stop once |term| < TOL_ABS + TOL_REL * |partial sum|.
MAX_TERMS = 500
TOL_ABS = 1e-30
TOL_REL = 1e-15

# Below Q_MIN the sinh(q pi) denominator of the Hankel assembly loses all
# significance; callers must treat the order as effectively real.
Q_MIN = 1e-8

# Largest argument the series is summed at.  Cancellation grows like
# e^z / result, so accuracy falls with z: against 40-digit mpmath values
# (q from 0.05 to 8) the relative error of J_{iq} measures 3e-14 at z = 1,
# 6e-12 at z = 12, 5e-9 at 20, 7e-7 at 25 and 6e-5 at 30.
Z_SERIES_MAX = 30.0

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Lanczos coefficients, g = 7, 9 terms.  Against 40-digit mpmath values on
# z = 1 + iq, q from 0.01 to 100, the relative error reaches 2.1e-13; the
# reflection formula covers Re(z) < 0.5.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


@dataclass(frozen=True)
class BesselEval:
    """Result of one series evaluation.

    Attributes
    ----------
    order_q : float
        Non-negative order magnitude; the order itself is sign * i * q.
    sign : int
        +1 or -1, the sign attached to iq.
    z : float
        Argument the series was summed at.
    value : complex
    dvalue : complex
        Derivative with respect to z, from the term-wise differentiated
        series.
    terms_used : int
    truncation_bound : float
        Magnitude of the term that satisfied the stopping rule; the
        neglected tail is below this bound.
    """

    order_q: float
    sign: int
    z: float
    value: complex
    dvalue: complex
    terms_used: int
    truncation_bound: float


def complex_gamma(z: complex) -> complex:
    """Gamma function for complex argument.

    Lanczos rational approximation on Re(z) >= 0.5, reflected through
    Gamma(z) Gamma(1-z) = pi / sin(pi z) elsewhere.  Real coefficients keep
    the evaluation conjugate-symmetric, so Gamma(conj(z)) == conj(Gamma(z))
    holds to the last bit.

    Raises
    ------
    DomainError
        At the poles z = 0, -1, -2, ...
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise DomainError(f"gamma pole at z = {z.real:g}")
    if z.real < 0.5:
        # reflection: sin(pi z) is never 0 here because poles were rejected
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    w = z - 1.0
    acc = complex(_LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (w + 0.5) * cmath.exp(-t) * acc


def bessel_j_imag_order(q: float, z: float, sign: int = 1) -> BesselEval:
    """J with order sign * i * q for real z > 0, by the ascending series.

    Parameters
    ----------
    q : float
        Non-negative imaginary-order magnitude.  q = 0 degenerates to the
        ordinary J_0 series, which is a convenient oracle anchor.
    z : float
        Argument, 0 < z <= Z_SERIES_MAX.
    sign : int
        +1 for order +iq, -1 for order -iq.

    Returns
    -------
    BesselEval
        Value, term-wise derivative, and the truncation bound actually met.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +-1, got {sign!r}")
    if not (q >= 0.0) or not math.isfinite(q):
        raise DomainError(f"order magnitude q must be finite and >= 0, got {q!r}")
    if not (z > 0.0) or not math.isfinite(z):
        raise DomainError(f"series argument requires real z > 0, got {z!r}")
    if z > Z_SERIES_MAX:
        raise SeriesRangeError(
            f"z = {z:g} exceeds the certified series domain z <= {Z_SERIES_MAX:g}; "
            "reduce the argument (smaller x_max or smaller p)"
        )

    nu = 1j * sign * q
    # leading term (z/2)^nu / Gamma(1 + nu)
    term = cmath.exp(nu * math.log(0.5 * z)) / complex_gamma(1.0 + nu)
    zsq_quarter = 0.25 * z * z
    total = term
    dtotal = term * nu  # accumulates sum of term_k * (2k + nu)
    bound = abs(term)
    k = 0
    while True:
        if abs(term) < TOL_ABS + TOL_REL * abs(total):
            bound = abs(term)
            break
        if k + 1 >= MAX_TERMS:
            raise AccuracyError(
                f"series for J_(i{sign * q:g})({z:g}) did not meet tolerance in "
                f"{MAX_TERMS} terms; last |term| = {abs(term):.3e}"
            )
        k += 1
        term *= -zsq_quarter / (k * (k + nu))
        total += term
        dtotal += term * (2.0 * k + nu)
    return BesselEval(
        order_q=q,
        sign=sign,
        z=z,
        value=total,
        dvalue=dtotal / z,
        terms_used=k + 1,
        truncation_bound=bound,
    )


def hankel_imag_order(q: float, z: float, kind: int = 1) -> BesselEval:
    """Hankel function of order i*q, first or second kind.

    Assembled from the J pair with sin(i q pi) = i sinh(q pi):

        H1_{iq}(z) = (e^{q pi} J_{iq}(z) - J_{-iq}(z)) / sinh(q pi)
        H2_{iq}(z) = (J_{-iq}(z) - e^{-q pi} J_{iq}(z)) / sinh(q pi)

    The pair is linearly independent (Wronskian -4i / (pi z)) and conjugate
    up to a real factor: conj(H1_{iq}(z)) = e^{q pi} H2_{iq}(z).

    Raises
    ------
    DegenerateOrderError
        For q < Q_MIN, where sinh(q pi) washes out.
    """
    if kind not in (1, 2):
        raise DomainError(f"kind must be 1 or 2, got {kind!r}")
    if not (q >= Q_MIN):
        raise DegenerateOrderError(
            f"q = {q!r} below {Q_MIN:g}: Hankel assembly degenerate, treat the order as real"
        )
    if q * math.pi > 700.0:
        raise DomainError(f"q = {q:g} overflows exp(q pi)")
    jp = bessel_j_imag_order(q, z, sign=1)
    jm = bessel_j_imag_order(q, z, sign=-1)
    s = math.sinh(q * math.pi)
    if kind == 1:
        w = math.exp(q * math.pi)
        value = (w * jp.value - jm.value) / s
        dvalue = (w * jp.dvalue - jm.dvalue) / s
        bound = (w * jp.truncation_bound + jm.truncation_bound) / s
    else:
        w = math.exp(-q * math.pi)
        value = (jm.value - w * jp.value) / s
        dvalue = (jm.dvalue - w * jp.dvalue) / s
        bound = (jm.truncation_bound + w * jp.truncation_bound) / s
    return BesselEval(
        order_q=q,
        sign=1,
        z=z,
        value=value,
        dvalue=dvalue,
        terms_used=max(jp.terms_used, jm.terms_used),
        truncation_bound=bound,
    )


def hankel_asymptotic(q: float, z: float, kind: int = 1) -> complex:
    """Large-argument travelling form of H_{iq}.

        H{1,2}_{iq}(z) ~ sqrt(2/(pi z)) exp(+-i (z - i q pi/2 - pi/4))

    The +iq order feeds a real factor e^{+q pi/2} into the first kind and
    e^{-q pi/2} into the second; the leading relative deviation from the
    exact function is (4 q^2 + 1)/(8 z).
    """
    if kind not in (1, 2):
        raise DomainError(f"kind must be 1 or 2, got {kind!r}")
    if not (z > 0.0):
        raise DomainError(f"asymptotic form requires z > 0, got {z!r}")
    s = 1.0 if kind == 1 else -1.0
    phase = s * 1j * (z - 1j * q * math.pi / 2.0 - math.pi / 4.0)
    return math.sqrt(2.0 / (math.pi * z)) * cmath.exp(phase)
