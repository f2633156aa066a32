"""The verify checks: what they march, how a nan residual reads, and the
closed-form grids they evaluate as arrays against one scalar call per point.
"""

import collections
import inspect
import math

import numpy as np
import pytest

from expscatter import cli, exp_barrier, numeric_scatter, specfun, verification
from expscatter.waves import angle_distance


def test_no_basis_is_marched_twice(monkeypatch):
    # within one run_all every (model, energy, xs, kh) is marched once, but
    # for cli-determinism's two sweeps, which must stay independent runs
    integrate = numeric_scatter.integrate_ends
    signature = inspect.signature(integrate)
    marched = {False: collections.Counter(), True: collections.Counter()}
    in_cli = [False]

    def counted(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        key = (call.arguments["potential"], call.arguments["energy"],
               tuple(call.arguments["xs"]), call.arguments["kh"])
        marched[in_cli[0]][key] += 1
        return integrate(*args, **kwargs)

    determinism = verification.check_cli_determinism

    def flagged():
        in_cli[0] = True
        try:
            return determinism()
        finally:
            in_cli[0] = False

    monkeypatch.setattr(numeric_scatter, "integrate_ends", counted)
    monkeypatch.setattr(verification, "check_cli_determinism", flagged)
    assert all(res.passed for res in verification.run_all())
    assert sum(marched[False].values()) == 10
    assert set(marched[False].values()) == {1}
    assert sum(marched[True].values()) == 10
    assert set(marched[True].values()) == {2}


NAN_CHECKS = {
    "match": ["eq14-unitarity", "eq14-numeric-agreement", "reciprocity",
              "eq23-right-amplitude", "eq13-flux-ratios"],
    "nodes": ["flux-wronskian-rk4"],
}


@pytest.mark.parametrize("patched", sorted(NAN_CHECKS))
def test_a_nan_residual_fails_its_check(patched, monkeypatch):
    # max(worst, nan) keeps worst, so a nan T, R, phi, theta or marched node
    # once read PASS; each check it reaches must FAIL with a nan residual
    if patched == "match":
        match = numeric_scatter.match

        def broken(basis, side="left"):
            return match(basis, side)._replace(t_coeff=math.nan, r_coeff=math.nan,
                                               phi=math.nan, theta=math.nan)

        monkeypatch.setattr(numeric_scatter, "match", broken)
    else:
        integrate = numeric_scatter.integrate_ends

        def broken(*args, **kwargs):
            basis = integrate(*args, **kwargs)
            return basis._replace(nodes=np.full_like(basis.nodes, math.nan))

        monkeypatch.setattr(numeric_scatter, "integrate_ends", broken)
    results = {res.name: res for res in verification.run_all()}
    for name in NAN_CHECKS[patched]:
        assert not results[name].passed, results[name]
        assert math.isnan(results[name].residual), results[name]
    assert cli.main(["verify"]) == 3


@pytest.mark.parametrize("p", verification._P_GRID)
def test_reciprocity_thetas_match_scalar_calls(p):
    # p's row of the (p, q) grid reciprocity evaluates in one call per side
    row = verification._P_GRID.index(p)
    for side in ("left", "right"):
        theta = exp_barrier.amplitudes(verification._P_COLUMN, verification._RECIPROCITY_Q,
                                       side).theta[row]
        for q, value in zip(verification._RECIPROCITY_Q.tolist(), theta.tolist()):
            assert angle_distance(value, exp_barrier.amplitudes(p, q, side).theta) <= 1e-13


def test_gamma_residuals_match_scalar_calls():
    q = verification._GAMMA_Q
    lhs = np.abs(specfun.complex_gamma(1.0 + 1j * q)) ** 2 * np.sinh(math.pi * q)
    residuals = np.abs(lhs / (math.pi * q) - 1.0).tolist()
    for point, residual in zip(q.tolist(), residuals):
        g = specfun.complex_gamma(1.0 + 1j * point)
        scalar = abs(abs(g) ** 2 * math.sinh(math.pi * point) / (math.pi * point) - 1.0)
        assert abs(residual - scalar) <= 1e-13


def test_endpoint_reflections_match_scalar_calls():
    _, r = exp_barrier.transmission_reflection(verification._Q_GRID)
    for q, value in zip(verification._Q_GRID.tolist(), r.tolist()):
        scalar = exp_barrier.transmission_reflection(q)[1]
        assert abs(value - scalar) <= 1e-14 * scalar


@pytest.mark.parametrize("p", verification._P_GRID)
def test_eq18_sums_match_scalar_calls(p):
    # p's row of the (p, q) grid eq18 evaluates in one call per side
    row = verification._P_GRID.index(p)
    left, right = (exp_barrier.amplitudes(verification._P_COLUMN, verification._EQ18_Q, side)
                   for side in ("left", "right"))
    sums = ((left.phi - left.theta) + (right.phi - right.theta))[row].tolist()
    for q, total in zip(verification._EQ18_Q.tolist(), sums):
        left, right = (exp_barrier.amplitudes(p, q, side) for side in ("left", "right"))
        assert abs(total - ((left.phi - left.theta) + (right.phi - right.theta))) <= 1e-13


def test_eq12_fails_on_a_nan(monkeypatch):
    # a nan H1 at eq12's z = 10 column, which no other check reads: Python's
    # max dropped it, and eq12 once read PASS; it must FAIL with a nan
    hankel = specfun.hankel_imag_order

    def broken(q, z, kind=1):
        ev = hankel(q, z, kind)
        hit = np.equal(z, 10.0)
        return ev._replace(value=np.where(hit, math.nan, ev.value)) if np.any(hit) else ev

    monkeypatch.setattr(specfun, "hankel_imag_order", broken)
    results = {res.name: res for res in verification.run_all()}
    eq12 = results.pop("eq12-identities")
    assert not eq12.passed and math.isnan(eq12.residual), eq12
    assert all(res.passed for res in results.values())
    assert cli.main(["verify"]) == 3


def test_grids_are_one_call_per_array(monkeypatch):
    # eq12 sums its 8x9 (q, z) grid in 3 series calls (its J pair and the
    # one J_{iq} series inside its H1), reciprocity and eq18 their (p, q)
    # grids in one amplitudes call per side
    running, calls = [None], collections.Counter()
    for check in ("check_reciprocity", "check_eq18_phase_relation", "check_eq12_identities"):
        def flagged(*args, _check=getattr(verification, check), _name=check):
            running[0] = _name
            try:
                return _check(*args)
            finally:
                running[0] = None

        monkeypatch.setattr(verification, check, flagged)
    for module, name in ((specfun, "bessel_j_imag_order"), (exp_barrier, "amplitudes")):
        def counted(*args, _call=getattr(module, name), _name=name, **kwargs):
            calls[running[0], _name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert all(res.passed for res in verification.run_all())
    assert calls["check_eq12_identities", "bessel_j_imag_order"] == 3
    assert calls["check_reciprocity", "amplitudes"] == 2
    assert calls["check_eq18_phase_relation", "amplitudes"] == 2
