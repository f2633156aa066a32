"""Special functions for purely imaginary order.

Bessel functions J with order +-i*q evaluated for real argument z > 0 by
the ascending power series

    J_{+-iq}(z) = sum_k (-1)^k (z/2)^(2k +- iq) / (k! Gamma(k + 1 +- iq))

with (z/2)^(+-iq) = exp(+-i q ln(z/2)).  Hankel functions of the first and
second kind are assembled from the J pair, whose -iq member is, for
real z, the conjugate of the +iq one.  Derivatives come from
differentiating the series term by term, never from finite differences.
Gamma is served on Re z >= 0.5 only: the series' lead term and the closed
forms need it at 1 +- iq.

The series is summed in double precision.  Its alternating terms grow
like e^z, so cancellation costs digits as z grows; about four remain at
z = 30 (see Z_SERIES_MAX), and that radius is enforced as a hard domain
bound rather than silently returning fewer.

z may also be an ndarray, as an exact wavefunction's grid passes it, and
so may q, broadcast against z, as verify's (q, z) grids pass it: the same
loop then runs on the whole array, until every entry meets the stopping
test.  Scalar q and z keep CPython arithmetic bit for bit; array entries
agree with them to rounding (numpy's log, exp and complex division round
differently), which the series' cancellation amplifies like eps e^z, and
an entry that converges early takes a few more terms, each below its
tolerance.  An array entry out of range is refused with the scalar
message, naming the first such entry.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError

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
# z = 1 + iq, q from 0.01 to 100, the relative error reaches 2.1e-13.
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


class BesselEval(NamedTuple):
    """Result of one series evaluation.

    Attributes
    ----------
    value : complex or ndarray
        Shaped like q and z broadcast together.
    dvalue : complex or ndarray
        Derivative with respect to z, from the term-wise differentiated
        series, shaped like value.
    terms_used : int
        Series terms summed: for an array the most any entry needed.
    """

    value: complex
    dvalue: complex
    terms_used: int


def complex_gamma(z):
    """Gamma function for a complex argument or an array of them, on
    Re(z) >= 0.5, where the closed forms' 1 +- iq lie.

    Lanczos rational approximation.  Real coefficients keep the evaluation
    conjugate-symmetric, so Gamma(conj(z)) == conj(Gamma(z)) holds to the
    last bit.  A scalar is evaluated with CPython complex arithmetic and
    cmath, an array elementwise with numpy; the two agree to rounding
    (numpy's complex power rounds differently).

    Raises
    ------
    DomainError
        For Re(z) < 0.5 (for an array, naming the first such entry).
    """
    if isinstance(z, np.ndarray):
        z, lib = z.astype(complex), np
        below = z[~(z.real >= 0.5)].tolist()
    else:
        z, lib = complex(z), cmath
        below = [] if z.real >= 0.5 else [z]
    if below:
        raise DomainError(f"complex_gamma needs Re z >= 0.5, got z = {below[0]}")
    w = z - 1.0
    acc = complex(_LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (w + 0.5) * lib.exp(-t) * acc


def bessel_j_imag_order(q, z, sign: int = 1) -> BesselEval:
    """J with order sign * i * q for real z > 0, by the ascending series.

    Parameters
    ----------
    q : float or ndarray
        Non-negative imaginary-order magnitude.  q = 0 degenerates to the
        ordinary J_0 series, which is a convenient oracle anchor.  An
        array broadcasts against z.
    z : float or ndarray
        Argument, 0 < z <= Z_SERIES_MAX.  An array q or z is summed in one
        loop until every entry meets the stopping test (see the module
        notes); it is refused with the scalar message of its first entry
        out of range or, after MAX_TERMS terms, not converged.
    sign : int
        +1 for order +iq, -1 for order -iq.

    Returns
    -------
    BesselEval
        Value, term-wise derivative, and the number of terms summed.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +-1, got {sign!r}")
    bad = _first_failing(q, lambda v: (v >= 0.0) & (abs(v) < math.inf))
    if bad is not None:
        raise DomainError(f"order magnitude q must be finite and >= 0, got {bad!r}")
    array = isinstance(z, np.ndarray) or isinstance(q, np.ndarray)
    _check_series_z(z)

    nu = 1j * sign * q
    log, exp, every = (np.log, np.exp, np.ndarray.all) if array else (math.log, cmath.exp, bool)
    # leading term (z/2)^nu / Gamma(1 + nu)
    term = exp(nu * log(0.5 * z)) / complex_gamma(1.0 + nu)
    zsq_quarter = 0.25 * z * z
    total = term
    dtotal = term * nu  # accumulates sum of term_k * (2k + nu)
    k = 0
    while True:
        met = abs(term) < TOL_ABS + TOL_REL * abs(total)
        if every(met):
            break
        if k + 1 >= MAX_TERMS:
            order, at, last = ((np.broadcast_to(v, met.shape)[~met][0] for v in (q, z, term))
                               if array else (q, z, term))
            raise AccuracyError(
                f"series for J_(i{sign * order:g})({at:g}) did not meet tolerance in "
                f"{MAX_TERMS} terms; last |term| = {abs(last):.3e}"
            )
        k += 1
        # not in place: an array total starts as the same object as term
        term = term * (-zsq_quarter / (k * (k + nu)))
        total = total + term
        dtotal = dtotal + term * (2.0 * k + nu)
    return BesselEval(value=total, dvalue=dtotal / z, terms_used=k + 1)


def _first_failing(value, test):
    """The first entry of an ndarray that fails ``test``, as a float, or a
    scalar if it fails; None if none does (nan fails every test)."""
    if isinstance(value, np.ndarray):
        failed = value[~test(value)]
        return failed.flat[0].item() if failed.size else None
    return None if test(value) else value


def _check_series_z(z) -> None:
    """Refuse z outside (0, Z_SERIES_MAX]; an array by its first such entry."""
    z = _first_failing(z, lambda v: (v > 0.0) & (v <= Z_SERIES_MAX))
    if z is None:
        return
    if not (z > 0.0) or not math.isfinite(z):
        raise DomainError(f"series argument requires real z > 0, got {z!r}")
    if z > Z_SERIES_MAX:
        raise AccuracyError(
            f"z = {z:g} exceeds the certified series domain z <= {Z_SERIES_MAX:g}; "
            "reduce the argument (smaller x_max or smaller p)"
        )


def hankel_imag_order(q, z, kind: int = 1) -> BesselEval:
    """Hankel function of order i*q, first or second kind, at a z > 0 or
    an ndarray of them; q may be an ndarray too, broadcast against z
    (summed as in ``bessel_j_imag_order``).

    Assembled from the J pair with sin(i q pi) = i sinh(q pi):

        H1_{iq}(z) = (e^{q pi} J_{iq}(z) - J_{-iq}(z)) / sinh(q pi)
                   = (J_{iq}(z) - e^{-q pi} J_{-iq}(z)) * 2 / (1 - e^{-2 q pi})
        H2_{iq}(z) = (J_{-iq}(z) - e^{-q pi} J_{iq}(z)) / sinh(q pi)

    H1 is formed by the second line: |J_{iq}| grows like e^{q pi / 2}, so
    e^{q pi} J_{iq} would overflow past q ~ 151, inside q pi <= 700.  One
    series is summed: for real z > 0 every term of the J_{-iq} series is
    the conjugate of the J_{iq} term, so J_{-iq} and its derivative are
    the conjugates of J_{iq}'s, bit for bit.

    The pair is linearly independent (Wronskian -4i / (pi z)) and conjugate
    up to a real factor: conj(H1_{iq}(z)) = e^{q pi} H2_{iq}(z).

    Raises
    ------
    DomainError
        For q < Q_MIN, where sinh(q pi) washes out, or q pi > 700 (for an
        array, naming the first such entry).
    """
    if kind not in (1, 2):
        raise DomainError(f"kind must be 1 or 2, got {kind!r}")
    bad = _first_failing(q, lambda v: v >= Q_MIN)
    if bad is not None:
        raise DomainError(
            f"q = {bad!r} below {Q_MIN:g}: Hankel assembly degenerate, treat the order as real"
        )
    bad = _first_failing(q, lambda v: v * math.pi <= 700.0)
    if bad is not None:
        raise DomainError(f"q = {bad:g} overflows exp(q pi)")
    jp = bessel_j_imag_order(q, z, sign=1)
    jm_value, jm_dvalue = jp.value.conjugate(), jp.dvalue.conjugate()
    lib = np if isinstance(q, np.ndarray) else math
    w = lib.exp(-q * math.pi)
    if kind == 1:
        scale = -2.0 / lib.expm1(-2.0 * q * math.pi)
        value = (jp.value - w * jm_value) * scale
        dvalue = (jp.dvalue - w * jm_dvalue) * scale
    else:
        s = lib.sinh(q * math.pi)
        value = (jm_value - w * jp.value) / s
        dvalue = (jm_dvalue - w * jp.dvalue) / s
    return BesselEval(value=value, dvalue=dvalue, terms_used=jp.terms_used)
