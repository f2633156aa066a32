"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Tolerances are pinned here on purpose, separately from the library's own
verification module, so loosening one cannot silently loosen the other.
Lines print through capsys.disabled() and are visible in any pytest run.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from expscatter import (
    cli,
    exp_barrier,
    numeric_scatter,
    potentials,
    specfun,
    waves,
)
from expscatter.potentials import DEFAULT_UNITS
from test_numeric_scatter import (
    Window,
    default_window,
    oracle_integrate_basis,
    oracle_scattering_wavefunction,
)

Q_GRID = np.logspace(math.log10(0.01), math.log10(5.0), 200)


def report(capsys, num, name, passed, detail):
    line = f"criterion {num:02d} {'PASS' if passed else 'FAIL'} {name}: {detail}"
    with capsys.disabled():
        print(line)
    assert passed, line


def test_criterion_01_unitarity(capsys):
    start = time.perf_counter()
    worst = 0.0
    for q in Q_GRID:
        t, r = exp_barrier.transmission_reflection(float(q))
        worst = max(worst, abs(t + r - 1.0))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-12 and elapsed < 1.0
    report(
        capsys, 1, "unitarity",
        passed, f"max|T+R-1|={worst:.3e} (tol 1e-12), {elapsed:.3f}s (limit 1s)",
    )


def test_criterion_02_endpoints(capsys):
    t_low, _ = exp_barrier.transmission_reflection(1e-12)
    t_high, _ = exp_barrier.transmission_reflection(10.0)
    r_values = [exp_barrier.transmission_reflection(float(q))[1] for q in Q_GRID]
    monotone = all(a > b for a, b in zip(r_values, r_values[1:]))
    passed = t_low < 1e-10 and t_high >= 1.0 - 1e-12 and monotone
    report(
        capsys, 2, "endpoint limits",
        passed,
        f"T(1e-12)={t_low:.3e} (tol 1e-10), 1-T(10)={1.0 - t_high:.3e} "
        f"(tol 1e-12), R monotone={monotone}",
    )


def test_criterion_03_numeric_agreement(capsys):
    model = potentials.exponential(1.0, 1.0)  # p = 2 in the default units
    start = time.perf_counter()
    worst = 0.0
    for q in (0.25, 0.5, 1.0, 2.0):
        res = numeric_scatter.solve(model, q * q / 4.0, side="left")
        t_exact, _ = exp_barrier.transmission_reflection(q)
        worst = max(worst, abs(res.t_coeff - t_exact))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-6 and elapsed < 5.0
    report(
        capsys, 3, "analytic-numeric agreement",
        passed,
        f"max|dT|={worst:.3e} (tol 1e-6) over q in {{0.25,0.5,1,2}}, "
        f"each on its own window, {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_04_reciprocity(capsys):
    worst_analytic = 0.0
    for p in (1.0, 2.0, 4.0):
        for q in np.linspace(0.1, 4.0, 30):
            th_l = exp_barrier.amplitudes(p, float(q), "left").theta
            th_r = exp_barrier.amplitudes(p, float(q), "right").theta
            worst_analytic = max(worst_analytic, waves.angle_distance(th_l, th_r))

    model = potentials.exponential(1.0, 1.0)
    energy = 0.75**2 / 4.0
    left = numeric_scatter.solve(model, energy, side="left")
    right = numeric_scatter.solve(model, energy, side="right")
    dtheta_num = waves.angle_distance(left.theta, right.theta)
    dt_num = abs(left.t_coeff - right.t_coeff)
    passed = worst_analytic < 1e-10 and dtheta_num < 1e-6 and dt_num < 1e-8
    report(
        capsys, 4, "reciprocity",
        passed,
        f"analytic max|dtheta|={worst_analytic:.3e} (tol 1e-10), numeric "
        f"|dtheta|={dtheta_num:.3e} (tol 1e-6), |dT|={dt_num:.3e} (tol 1e-8)",
    )


def test_criterion_05_phase_relation(capsys):
    worst = 0.0
    for p in (1.0, 2.0, 4.0):
        for q in (0.3, 0.7, 1.5):
            dl = exp_barrier.amplitudes(p, q, "left")
            dr = exp_barrier.amplitudes(p, q, "right")
            total = (dl.phi - dl.theta) + (dr.phi - dr.theta)
            worst = max(worst, waves.angle_distance(total, math.pi))
    passed = worst < 1e-10
    report(
        capsys, 5, "incidence-side phase sum",
        passed, f"max |sum - pi| mod 2pi = {worst:.3e} (tol 1e-10)",
    )


def test_criterion_06_right_amplitude(capsys):
    worst_mod, worst_phase, worst_phi = 0.0, 0.0, 0.0
    for q in Q_GRID:
        q = float(q)
        data = exp_barrier.amplitudes(2.0, q, "right")
        worst_mod = max(worst_mod, abs(abs(data.r_amp) - math.exp(-math.pi * q)))
        worst_phase = max(
            worst_phase, waves.angle_distance(math.atan2(data.r_amp.imag, data.r_amp.real), -math.pi / 2.0)
        )
        worst_phi = max(worst_phi, waves.angle_distance(data.phi, 1.5 * math.pi))
    passed = worst_mod < 1e-12 and worst_phase < 1e-12 and worst_phi < 1e-12
    report(
        capsys, 6, "right-side reflection",
        passed,
        f"max|r - e^(-pi q)|={worst_mod:.3e}, phase vs -pi/2: {worst_phase:.3e}, "
        f"phi vs 3pi/2 mod 2pi: {worst_phi:.3e} (all tol 1e-12)",
    )


def test_criterion_07_v0_independence(capsys):
    q = 0.8
    energy = q * q / 4.0
    t_values = []
    for v0 in (0.5, 1.0, math.e):
        res = numeric_scatter.solve(potentials.exponential(v0, 1.0), energy, side="left")
        t_values.append(res.t_coeff)
    spread = max(t_values) - min(t_values)

    p, b = 1.2, 1.0
    grid = np.linspace(-6.0, 2.0, 41)
    scaled = exp_barrier.exact_wavefunction(p * math.exp(b / 2.0), 0.9, "left", grid)
    translated = exp_barrier.exact_wavefunction(p, 0.9, "left", grid + b)
    gap = float(np.max(np.abs(scaled.psi - translated.psi)))
    passed = spread < 1e-8 and gap < 1e-8
    report(
        capsys, 7, "strength independence",
        passed,
        f"numeric T spread={spread:.3e} over v0 in {{0.5,1,e}} (tol 1e-8), "
        f"translation gap={gap:.3e} (tol 1e-8)",
    )


def test_criterion_08_flux_wronskian_order(capsys):
    model = potentials.exponential(1.0, 1.0)
    energy = 0.25
    config = default_window(model, energy)
    # the whole-window basis and wave of the tests' oracle writer
    basis = oracle_integrate_basis(model, energy, config)
    result = numeric_scatter.solve(model, energy, side="left")
    _, _, profile = oracle_scattering_wavefunction(basis, result)
    spread = float((np.max(profile) - np.min(profile)) / abs(np.mean(profile)))
    drift = basis.drift

    # order of convergence against the closed-form solution with the same
    # seeds; u(x) = c1 J_{iq}(z) + c2 J_{-iq}(z) fitted at the march's seed,
    # the window's left end x = -4
    p, q, x_seed, x_probe = 2.0, 1.0, -4.0, 3.0
    b1_0 = specfun.bessel_j_imag_order(q, p * math.exp(0.5 * x_seed), sign=1)
    b2_0 = specfun.bessel_j_imag_order(q, p * math.exp(0.5 * x_seed), sign=-1)
    det = b1_0.value * b2_0.dvalue - b1_0.dvalue * b2_0.value
    z_probe = p * math.exp(0.5 * x_probe)
    b1 = specfun.bessel_j_imag_order(q, z_probe, sign=1)
    b2 = specfun.bessel_j_imag_order(q, z_probe, sign=-1)
    reference = float(
        ((b2_0.dvalue / det) * b1.value - (b1_0.dvalue / det) * b2.value).real
    )
    khs = [8.0 * numeric_scatter.KH, 4.0 * numeric_scatter.KH, 2.0 * numeric_scatter.KH]
    errors = []
    for kh in khs:
        coarse = Window(x_left=x_seed, x_right=x_probe, kh=kh)
        # x_probe = x_right is the last node
        marched = oracle_integrate_basis(model, energy, coarse)
        errors.append(abs(float(marched.nodes[0, -1]) - reference))
    order = float(np.polyfit(np.log(khs), np.log(errors), 1)[0])

    passed = spread < 1e-8 and drift < 1e-8 and abs(order - 4.0) <= 0.3
    report(
        capsys, 8, "flux constancy and solver order",
        passed,
        f"flux spread={spread:.3e} (tol 1e-8), drift={drift:.3e} (tol 1e-8), "
        f"order={order:.3f} (want 4 +- 0.3)",
    )


def test_criterion_09_special_function_identities(capsys):
    worst_gamma = 0.0
    for q in np.linspace(0.1, 5.0, 99):
        q = float(q)
        g = specfun.complex_gamma(1.0 + 1j * q)
        worst_gamma = max(worst_gamma, abs(abs(g) ** 2 * math.sinh(math.pi * q) - math.pi * q))

    # sinh(q pi) reaches 3e6 on this grid, so the identities are checked
    # as residuals scaled by the magnitude they live at
    worst_bessel = 0.0
    for q in np.linspace(0.1, 5.0, 8):
        for z in np.linspace(0.1, 10.0, 9):
            q, z = float(q), float(z)
            b1 = specfun.bessel_j_imag_order(q, z, sign=1)
            b2 = specfun.bessel_j_imag_order(q, z, sign=-1)
            w = b1.value * b2.dvalue - b1.dvalue * b2.value
            want = -2j * math.sinh(q * math.pi) / (math.pi * z)
            worst_bessel = max(worst_bessel, abs(w - want) / max(1.0, abs(want)))
            worst_bessel = max(
                worst_bessel,
                abs(b1.value.conjugate() - b2.value) / max(1.0, abs(b1.value)),
            )
    passed = worst_gamma < 1e-12 and worst_bessel < 1e-9
    report(
        capsys, 9, "special-function identities",
        passed,
        f"gamma modulus identity: {worst_gamma:.3e} (tol 1e-12), Wronskian "
        f"and conjugation: {worst_bessel:.3e} (tol 1e-9)",
    )


def test_criterion_10_rectangular_oracle(capsys):
    energy, v0, width = 0.5, 1.0, 2.0
    kappa = math.sqrt(2.0 * 0.5 * (v0 - energy)) / 1.0
    s = math.sinh(kappa * width)
    t_oracle = 1.0 / (1.0 + v0**2 * s**2 / (4.0 * energy * (v0 - energy)))

    res = numeric_scatter.solve(potentials.rectangular(v0, width / 2.0), energy, side="left")
    t_gap = abs(res.t_coeff - t_oracle)
    # symmetric potential: the incidence-side phase sum forces
    # 2(phi - theta) = pi mod 2pi; the representative sign of phi - theta
    # depends on the time convention, so test the doubled congruence
    diff = res.phi - res.theta
    quadrature = waves.angle_distance(2.0 * diff, math.pi)
    passed = t_gap < 1e-8 and quadrature < 2e-6
    report(
        capsys, 10, "rectangular-barrier oracle",
        passed,
        f"|T-closed_form|={t_gap:.3e} (tol 1e-8), |2(phi-theta)-pi| mod 2pi="
        f"{quadrature:.3e} (tol 2e-6), signed phi-theta={diff:.6f}",
    )


def test_criterion_11_flux_ratios(capsys):
    # the numeric lane's measured flux ratios, both sides, against the
    # closed-form T and R, and its flux imbalance |j_inc - j_ref - j_tra| / j_inc
    model = potentials.exponential(1.0, 1.0)  # p = 2 in the default units
    worst_ratio, worst_conservation = 0.0, 0.0
    for q in (0.25, 0.5, 1.0, 2.0, 4.0):
        basis = numeric_scatter.integrate_ends(model, q * q / 4.0)
        t, r = exp_barrier.transmission_reflection(q)
        for side in ("left", "right"):
            res = numeric_scatter.match(basis, side)
            worst_ratio = max(worst_ratio, abs(res.t_coeff - t), abs(res.r_coeff - r))
            worst_conservation = max(worst_conservation, res.flux_imbalance)
    passed = worst_ratio < 1e-12 and worst_conservation < 1e-12
    report(
        capsys, 11, "flux ratios",
        passed,
        f"numeric ratio vs closed form: {worst_ratio:.3e}, conservation: "
        f"{worst_conservation:.3e} (both tol 1e-12), both sides",
    )


def test_criterion_12_cli_contract(capsys, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "expscatter.cli", "verify"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    verify_ok = proc.returncode == 0 and "13/13 checks passed" in proc.stdout

    sweep_args = ["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.05",
                  "--emax", "2.0", "--n", "5", "--out"]
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    codes = [
        cli.main(sweep_args + [str(csv_a)]),
        cli.main(sweep_args + [str(csv_b)]),
        cli.main(["plot", str(csv_a), "--out", str(svg_a)]),
        cli.main(["plot", str(csv_b), "--out", str(svg_b)]),
    ]
    capsys.readouterr()
    deterministic = (
        csv_a.read_bytes() == csv_b.read_bytes()
        and svg_a.read_bytes() == svg_b.read_bytes()
    )
    passed = verify_ok and all(c == 0 for c in codes) and deterministic
    report(
        capsys, 12, "command-line contract",
        passed,
        f"verify exit={proc.returncode} (want 0), sweep/plot exits={codes}, "
        f"byte-identical={deterministic}",
    )
