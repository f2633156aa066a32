"""Freeze mpmath reference values for the special functions of imaginary order.

Writes specfun_refs.json next to this script: J_{+iq}(z), J_{-iq}(z),
H1_{iq}(z) and H2_{iq}(z) on the (q, z) grid below, and Gamma(1 + iq) up
to q = 100, each evaluated at 40 significant digits and rounded to double.
The benchmark reads the JSON file; only this script needs mpmath.

    python3 bench/refs/make_specfun_refs.py
"""

import json
import pathlib

import mpmath

Z_GRID = (1.0, 12.0, 20.0, 25.0, 30.0)
Q_GRID = (0.05, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0)
GAMMA_Q_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0, 75.0, 100.0)


def pair(value):
    value = mpmath.mpc(value)
    return [float(value.real), float(value.imag)]


def main():
    mpmath.mp.dps = 40
    bessel = []
    for z in Z_GRID:
        for q in Q_GRID:
            nu = mpmath.mpc(0, q)
            bessel.append({
                "q": q,
                "z": z,
                "j_plus": pair(mpmath.besselj(nu, z)),
                "j_minus": pair(mpmath.besselj(-nu, z)),
                "h1": pair(mpmath.hankel1(nu, z)),
                "h2": pair(mpmath.hankel2(nu, z)),
            })
    gamma = [{"q": q, "gamma": pair(mpmath.gamma(mpmath.mpc(1, q)))} for q in GAMMA_Q_GRID]
    out = pathlib.Path(__file__).with_name("specfun_refs.json")
    payload = {"source": f"mpmath {mpmath.__version__}, 40 digits", "bessel": bessel, "gamma": gamma}
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
