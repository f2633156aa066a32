"""Seeded generators for the benchmark's op lists.

An op is a list of `expscatter` command lines (argv lists) that run back to
back and are timed together.  One pass over a workload's op list is the
unit of work whose wall time is reported as `wall_s`.

Parameters are drawn by stratified sampling: a range is cut into as many
equal strata as there are ops, one value is drawn in each stratum, and the
values are shuffled.  Every seed then covers each range evenly, so pass
cost and the share of refused rows move little from seed to seed, while
the exact inputs still differ.  Numbers go into argv with six significant
digits; the oracle reads them back from argv, so it checks the values the
program actually received.
"""

from __future__ import annotations

import math
import random

WORK_DIR = "bench/.work"

# The failing regimes listed in ROADMAP.md; they stay in the workload and
# show up in failed_share until a solver change fixes them.
HARD_MODELS = ("exp:v0=200,a=1", "exp:v0=1e4,a=1", "rect:v0=50,w=4")

SWEEP_ROWS = 2
CLOSED_FORM_ROWS = 3000
CLOSED_FORM_SAMPLES = 300
WAVE_SAMPLES = 400


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    if log:
        lo, hi = math.log(lo), math.log(hi)
    width = (hi - lo) / n
    values = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(values)
    return [math.exp(v) if log else v for v in values]


def _exp_family(rng: random.Random, n_exp: int, n_shift: int) -> list[tuple[str, float, float, float]]:
    """(descriptor, v0, a, b) for n_exp exp and n_shift expshift models."""
    n = n_exp + n_shift
    v0s = _strata(rng, n, 0.1, 10.0, log=True)
    a_s = _strata(rng, n, 0.5, 2.0)
    bs = _strata(rng, max(n_shift, 1), -2.0, 2.0)
    models = []
    for i in range(n):
        v0, a = float(_fmt(v0s[i])), float(_fmt(a_s[i]))
        if i < n_exp:
            models.append((f"exp:v0={_fmt(v0)},a={_fmt(a)}", v0, a, 0.0))
        else:
            b = float(_fmt(bs[i - n_exp]))
            models.append((f"expshift:v0={_fmt(v0)},a={_fmt(a)},b={_fmt(b)}", v0, a, b))
    # op 0 is the warm-up op of set-up: give it the weakest exp model, whose
    # rows never fail, so set-up time does not depend on which rows fail
    models[:n_exp] = sorted(models[:n_exp], key=lambda m: m[1])
    return models


def sweep_numeric(seed: int) -> list[list[list[str]]]:
    """20 sweeps per pass: 17 README-family models and the 3 hard regimes.

    Exponential-family ops cost about four times a rectangular or free one;
    14 of 20 puts the median op well inside that group, so cmd_p50_ms does
    not jump between the two groups from seed to seed.
    """
    rng = random.Random(seed)
    models = [(m, "both") for m, *_ in _exp_family(rng, 7, 7)]
    rect_v0 = _strata(rng, 2, 0.5, 10.0)
    rect_w = _strata(rng, 2, 0.5, 3.0)
    models += [(f"rect:v0={_fmt(v)},w={_fmt(w)}", "numeric") for v, w in zip(rect_v0, rect_w)]
    models.append(("free", "numeric"))
    models += [(m, "both" if m.startswith("exp") else "numeric") for m in HARD_MODELS]
    # the README sweep runs from E = 0.01 to 5; its low-E rows fail for v0
    # above about 5, and those failures stay in
    e_min = _strata(rng, len(models), 0.01, 0.0125, log=True)
    e_max = _strata(rng, len(models), 4.0, 5.0, log=True)
    ops = []
    for (model, method), lo, hi in zip(models, e_min, e_max):
        ops.append([[
            "sweep", "--model", model, "--emin", _fmt(lo), "--emax", _fmt(hi),
            "--n", str(SWEEP_ROWS), "--side", "both", "--method", method,
        ]])
    return ops


def closed_form(seed: int) -> list[list[list[str]]]:
    """8 groups per pass: analytic sweep, plot of it, analytic wavefunction.

    The wavefunction window ends where z = p exp(x/(2a)) reaches just under
    the series limit z = 30 and starts 24 decay lengths further left, where
    z is about 2e-4 and the oracle can check the asymptotic plane waves.
    """
    rng = random.Random(seed)
    models = _exp_family(rng, 4, 4)
    e_min = _strata(rng, len(models), 0.01, 0.05, log=True)
    e_max = _strata(rng, len(models), 2.0, 5.0, log=True)
    energies = _strata(rng, len(models), 0.05, 5.0, log=True)
    z_top = _strata(rng, len(models), 29.0, 29.8)
    ops = []
    for i, (model, v0, a, b) in enumerate(models):
        csv_path = f"{WORK_DIR}/closed-{i:02d}.csv"
        svg_path = f"{WORK_DIR}/closed-{i:02d}.svg"
        # default units hbar = 1, m = 1/2: p = sqrt(4 v0) a, z = p e^{(x-b)/(2a)}
        p = 2.0 * math.sqrt(v0) * a
        x_max = b + 2.0 * a * math.log(z_top[i] / p)
        ops.append([
            ["sweep", "--model", model, "--emin", _fmt(e_min[i]), "--emax", _fmt(e_max[i]),
             "--n", str(CLOSED_FORM_ROWS), "--method", "analytic", "--out", csv_path],
            ["plot", csv_path, "--out", svg_path],
            ["wavefunction", "--model", model, "--energy", _fmt(energies[i]),
             "--xmin", _fmt(x_max - 24.0 * a), "--xmax", _fmt(x_max - 5e-6 * a),
             "--n", str(CLOSED_FORM_SAMPLES)],
        ])
    return ops


def wavefunction_numeric(seed: int) -> list[list[list[str]]]:
    """10 numeric wavefunctions per pass on windows wider than the default.

    Exponential windows start 21-26 decay lengths left of the shift and end
    where z reaches 12-18 (the default stops at z = 12); the rectangular
    and free windows extend 0.5-3 length units past the default.  The
    eight exponential-family ops cost about twice the other two, so the
    median op stays inside that group.
    """
    rng = random.Random(seed)
    energies = _strata(rng, 10, 0.05, 5.0, log=True)
    left_pad = _strata(rng, 8, 21.0, 26.0)
    z_right = _strata(rng, 8, 12.0, 18.0)
    pads = _strata(rng, 4, 0.5, 3.0)
    sides = ["left", "right"] * 5
    rng.shuffle(sides)
    windows = []
    for i, (model, v0, a, b) in enumerate(_exp_family(rng, 4, 4)):
        p = 2.0 * math.sqrt(v0) * a
        x_max = max(b + 2.0 * a * math.log(z_right[i] / p), 0.5 * a)
        windows.append((model, b - left_pad[i] * a, x_max))
    rect_v0, rect_w = rng.uniform(0.5, 10.0), rng.uniform(0.5, 3.0)
    edge = 0.5 * float(_fmt(rect_w)) + 2.0
    windows.append((f"rect:v0={_fmt(rect_v0)},w={_fmt(rect_w)}", -(edge + pads[0]), edge + pads[1]))
    windows.append(("free", -(5.0 + pads[2]), 5.0 + pads[3]))
    return [[[
        "wavefunction", "--method", "numeric", "--model", model, "--energy", _fmt(energy),
        "--side", side, "--xmin", _fmt(x_min), "--xmax", _fmt(x_max), "--n", str(WAVE_SAMPLES),
    ]] for (model, x_min, x_max), energy, side in zip(windows, energies, sides)]


def verify(seed: int) -> list[list[list[str]]]:
    """`expscatter verify`; its inputs are fixed, so the seed is unused."""
    del seed
    return [[["verify"]]]


WORKLOADS = {
    "sweep-numeric": sweep_numeric,
    "closed-form": closed_form,
    "wavefunction-numeric": wavefunction_numeric,
    "verify": verify,
}
