"""Every bound the project states, recomputed.

``BOUNDS`` is one table: each row is a lane, a quantity, the command or
grid it is read from, and its bound.  ``test_stated_bound`` recomputes
every row, and README.md quotes the table, one table per lane, which
``test_readme_quotes_the_bounds`` holds equal to this module.

The commands run once per module, in process through ``cli.main``, with
the RK4 grids, marches and special-function calls counted.  Two tests
need fresh processes: one reruns every command in two of them, which must
write the same bytes (with the test-only packages blocked, since the
runtime needs numpy only), and one sends a write that fails past the
``--out`` check through ``python -m expscatter.cli``.
"""

import ast
import cmath
import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np
import pytest
from scipy.special import loggamma

from expscatter import cli, numeric_scatter, specfun, waves

ROOT = pathlib.Path(__file__).resolve().parent.parent
README_SWEEP = "sweep --model exp:v0=1,a=1 --emin 0.01 --emax 5 --n 200"

# name -> command line; each writes OUT/<name> plus the extension of its kind
COMMANDS = {
    "readme": README_SWEEP,
    "readme-numeric": f"{README_SWEEP} --method numeric",
    "readme-analytic": f"{README_SWEEP} --method analytic",
    "readme-plot": "plot OUT/readme.csv",
    "verify": "verify",
    # right side, window grown to z = 18; left side, grown to z = 180
    "wave-z18": "wavefunction --method numeric --model exp:v0=1,a=1 --energy 0.5 "
                "--side right --xmin -20 --xmax 4.39 --n 400",
    "wave-z180": "wavefunction --method numeric --model exp:v0=1,a=1 --energy 0.25 "
                 "--xmin -20 --xmax 9",
    "wave-analytic": "wavefunction --model exp:v0=1,a=1 --energy 0.7 --xmin -30 --xmax 5.4 "
                     "--n 300",
    "closed-form": "sweep --model expshift:v0=2.5,a=0.7,b=0.3 --emin 0.01 --emax 5 --n 3000 "
                   "--method analytic",
    "closed-form-plot": "plot OUT/closed-form.csv",
    # the first row's q = 2e-9 is at or below Q_MIN
    "row-errors": "sweep --model exp:v0=1,a=1 --emin 1e-18 --emax 1 --n 5 --method numeric",
    # u and v grow like e^28 across the barrier from the seed
    "deep-rect": "sweep --model rect:v0=50,w=4 --emin 1 --emax 40 --n 9 --spacing linear "
                 "--method numeric --side both",
    "deep-rect-wave": "wavefunction --model rect:v0=50,w=4 --energy 40 --xmin -4 --xmax 4 "
                      "--n 201",
    # q = 155 to 222.7, past q ~ 151, where e^{q pi} J_{iq} overflowed in H1
    "high-q-wave": "wavefunction --model exp:v0=1,a=1 --energy 6000 --xmin -3 --xmax 0 --n 50",
    "high-q-sweep": "sweep --model exp:v0=1,a=1 --emin 6000 --emax 12400 --n 4 "
                    "--spacing linear",
    # q = 2e-3 to 6.3e-2, the paper's long-wave limit T ~ 2 pi q
    "low-energy": "sweep --model exp:v0=1,a=1 --emin 1e-6 --emax 1e-3 --n 4",
    # depths and offsets that only translate the problem in x
    "depth-200": "sweep --model exp:v0=200,a=1 --emin 0.01 --emax 5 --n 20",
    "depth-1e4": "sweep --model exp:v0=1e4,a=1 --emin 0.01 --emax 5 --n 20",
    "offset-30": "sweep --model expshift:v0=1,a=1,b=-30 --emin 0.01 --emax 5 --n 20",
}
# every descriptor family: a sweep and a numeric wavefunction each
for _family, _method in (("exp:v0=1,a=1", "both"), ("expshift:v0=1,a=1,b=0.3", "both"),
                         ("rect:v0=1,w=2", "numeric"), ("free", "numeric")):
    _head = _family.partition(":")[0]
    COMMANDS[f"family-{_head}"] = (f"sweep --model {_family} --method {_method} --emin 0.05 "
                                   "--emax 5 --n 20")
    COMMANDS[f"family-{_head}-wave"] = (f"wavefunction --method numeric --model {_family} "
                                        "--energy 0.7 --xmin -10 --xmax 3 --n 50")


def _file(name: str) -> str:
    kind = COMMANDS[name].partition(" ")[0]
    return name + {"sweep": ".csv", "wavefunction": ".csv", "plot": ".svg", "verify": ".txt"}[kind]


def argv(name: str, out: str) -> list[str]:
    line = COMMANDS[name].replace("OUT/", out + os.sep)
    return line.split() + ["--out", os.path.join(out, _file(name))]


class Output(NamedTuple):
    code: int
    err: str
    text: str
    counts: Counter  # calls of the counted functions, and "nodes" for the grids' sizes


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, Output]:
    """Every command, run once in process, with its calls counted."""
    out = str(tmp_path_factory.mktemp("in-process"))
    found = {}
    for name in COMMANDS:
        counts, err = Counter(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
            for module, function in ((numeric_scatter, "_grid"), (numeric_scatter, "_march"),
                                     (numeric_scatter, "integrate_ends"),
                                     (specfun, "bessel_j_imag_order")):
                def counted(*args, _call=getattr(module, function), _name=function, **kwargs):
                    counts[_name] += 1
                    result = _call(*args, **kwargs)
                    if _name == "_grid":
                        counts["nodes"] += result[0].size
                    return result

                patch.setattr(module, function, counted)
            code = cli.main(argv(name, out))
        # a refused command writes nothing, which its rows and
        # test_every_command_exits_cleanly then report
        path = pathlib.Path(out, _file(name))
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        found[name] = Output(code, err.getvalue(), text, counts)
    return found


# ---- reading the outputs ---------------------------------------------------

def _lines(out, name):
    return out[name].text.splitlines()


def _table(out, name):
    return cli.parse_sweep_table(_lines(out, name))


def _refused(out, name):
    return sum(line.startswith("# row-error:") for line in _lines(out, name))


def _solved(out, name):
    return len(_table(out, name)["E"]) - _refused(out, name)


def _wave(out, name):
    return np.array([[float(cell) for cell in line.split(",")] for line in _lines(out, name)[2:]])


def _flux_spread(out, name):
    flux = _wave(out, name)[:, 4]
    return float((flux.max() - flux.min()) / abs(flux.mean()))


def _modulus_gap(out, name):
    _, re_psi, im_psi, abs_psi, _ = _wave(out, name).T
    return float(np.max(np.abs(np.hypot(re_psi, im_psi) - abs_psi) / abs_psi))


def _worst(values):
    """The largest value; nan if any is nan, or if there is none."""
    values = list(values)
    return float(np.max(values)) if values else math.nan


def _t_gap(out, name):
    table = _table(out, name)
    return _worst(abs(n - a) for n, a in zip(table["T_numeric"], table["T_analytic"]))


def _phase_gap(out, phase):
    """The numeric lane's phase against the closed form's, row by row over
    the README sweep; phi only where R >= 1e-6, where |r| is not round-off."""
    numeric, analytic = _table(out, "readme-numeric"), _table(out, "readme-analytic")
    return _worst(waves.angle_distance(n, a) for side in ("left", "right")
                  for n, a, r in zip(numeric[f"{phase}_{side}"], analytic[f"{phase}_{side}"],
                                     analytic["R_analytic"])
                  if phase == "theta" or r >= 1e-6)


def _deep_rect_t(energy: float) -> complex:
    # rect:v0=50,w=4 with m = 1/2, hbar = 1: t = e^{-ikw} / (cosh kappa w
    # + i (kappa^2 - k^2) / (2 k kappa) sinh kappa w)
    k, kappa = math.sqrt(energy), math.sqrt(50.0 - energy)
    mix = 1j * (kappa**2 - k**2) / (2.0 * k * kappa)
    return cmath.exp(-4j * k) / (math.cosh(4.0 * kappa) + mix * math.sinh(4.0 * kappa))


def _deep_rect_gaps(out):
    table = _table(out, "deep-rect")
    t_gap = theta_gap = 0.0
    for energy, t_numeric, *thetas in zip(table["E"], table["T_numeric"],
                                          table["theta_left"], table["theta_right"]):
        t = _deep_rect_t(energy)
        t_gap = max(t_gap, abs(t_numeric / abs(t) ** 2 - 1.0))
        theta_gap = max(theta_gap, *(waves.angle_distance(theta, cmath.phase(t))
                                     for theta in thetas))
    return t_gap, theta_gap


def _deep_rect_flux_gap(out):
    # the flux of a unit incident wave is T hbar k / m = 2 k T here
    t = _deep_rect_t(40.0)
    flux = _wave(out, "deep-rect-wave")[:, 4]
    return float(np.max(np.abs(flux / (2.0 * math.sqrt(40.0) * abs(t) ** 2) - 1.0)))


def _high_q_phase_gap(out):
    # p = 2, so alpha = q ln(p/2) = 0: phi_left = 2 beta + pi and
    # theta_left = beta - pi/4, with beta = Arg Gamma(1+iq) from scipy's
    # loggamma, which shares no code with complex_gamma
    table = _table(out, "high-q-sweep")
    gaps = []
    for q, phi, theta in zip(table["q"], table["phi_left"], table["theta_left"]):
        beta = float(loggamma(1.0 + 1j * q).imag)
        gaps += [waves.angle_distance(phi, 2.0 * beta + math.pi),
                 waves.angle_distance(theta, beta - 0.25 * math.pi)]
    return _worst(gaps)


def _nan_cells(out, name):
    return sum(line.count("nan") for line in _lines(out, name))


def _refs(kind: str) -> list[dict]:
    """The frozen 40-digit mpmath values of one kind, "bessel" or "gamma"."""
    with open(ROOT / "bench" / "refs" / "specfun_refs.json", encoding="utf-8") as handle:
        return json.load(handle)[kind]


def _series_gap(z: float) -> float:
    """Worst relative error of J_{iq}, J_{-iq} and H1_{iq} at z against
    the frozen values, q from 0.05 to 8."""
    rows = [row for row in _refs("bessel") if row["z"] == z]
    assert len(rows) == 7
    gaps = []
    for row in rows:
        q = row["q"]
        for key, value in (("j_plus", specfun.bessel_j_imag_order(q, z, 1).value),
                           ("j_minus", specfun.bessel_j_imag_order(q, z, -1).value),
                           ("h1", specfun.hankel_imag_order(q, z, 1).value)):
            ref = complex(*row[key])
            gaps.append(abs(value - ref) / abs(ref))
    return max(gaps)


def _gamma_gap() -> float:
    return max(abs(specfun.complex_gamma(complex(1.0, row["q"])) - complex(*row["gamma"]))
               / abs(complex(*row["gamma"])) for row in _refs("gamma"))


# ---- the table -------------------------------------------------------------

class Bound(NamedTuple):
    lane: str
    quantity: str
    source: str  # a COMMANDS name, or a grid in words
    relation: str  # "<=" or "=="
    bound: float
    measure: Callable[[dict], float]


REFS = "40-digit mpmath values, q = 0.05 to 8 (`bench/refs`)"
CLOSED, NUMERIC = "closed-form", "numeric"
BOUNDS = [
    *[Bound(CLOSED, f"relative error of J_{{+-iq}} and H1_{{iq}} at z = {z:g}", REFS, "<=",
            bound, lambda out, z=z: _series_gap(z))
      for z, bound in ((1.0, 5e-14), (12.0, 1e-11), (20.0, 1e-8), (25.0, 1e-6), (30.0, 1e-4))],
    Bound(CLOSED, "relative error of complex_gamma(1 + iq)",
          "40-digit mpmath values, q = 0.01 to 100 (`bench/refs`)", "<=", 5e-13,
          lambda out: _gamma_gap()),
    Bound(CLOSED, "rows solved", "readme-analytic", "==", 200,
          lambda out: _solved(out, "readme-analytic")),
    Bound(CLOSED, "rows solved", "closed-form", "==", 3000,
          lambda out: _solved(out, "closed-form")),
    Bound(CLOSED, "rows", "high-q-wave", "==", 50, lambda out: len(_wave(out, "high-q-wave"))),
    Bound(CLOSED, "max |flux / (hbar k / m) - 1|", "high-q-wave", "<=", 1e-9,
          lambda out: float(np.max(np.abs(_wave(out, "high-q-wave")[:, 4]
                                          / (2.0 * math.sqrt(6000.0)) - 1.0)))),
    Bound(CLOSED, "nan cells", "high-q-wave", "==", 0, lambda out: _nan_cells(out, "high-q-wave")),
    Bound(CLOSED, "max phase gap of phi_left, theta_left to scipy's loggamma", "high-q-sweep",
          "<=", 1e-10, _high_q_phase_gap),
    Bound(CLOSED, "bessel_j_imag_order calls", "verify", "==", 28,
          lambda out: out["verify"].counts["bessel_j_imag_order"]),
    Bound(NUMERIC, "rows solved", "readme", "==", 200, lambda out: _solved(out, "readme")),
    Bound(NUMERIC, "max |T_numeric - T_analytic|", "readme", "<=", 1e-12,
          lambda out: _t_gap(out, "readme")),
    *[Bound(NUMERIC, f"max {column}", "readme", "<=", 1e-12,
            lambda out, column=column: _worst(_table(out, "readme")[column]))
      for column in ("flux_imbalance", "wronskian_drift")],
    Bound(NUMERIC, "RK4 grid nodes", "readme", "<=", 1_450_000,
          lambda out: out["readme"].counts["nodes"]),
    Bound(NUMERIC, "marches (one per row, from a window end)", "readme", "==", 200,
          lambda out: out["readme"].counts["_march"]),
    Bound(NUMERIC, "rows solved", "readme-numeric", "==", 200,
          lambda out: _solved(out, "readme-numeric")),
    Bound(NUMERIC, "max |theta - theta_analytic|", "readme-numeric", "<=", 1e-7,
          lambda out: _phase_gap(out, "theta")),
    Bound(NUMERIC, "max |phi - phi_analytic| where R >= 1e-6", "readme-numeric", "<=", 1e-6,
          lambda out: _phase_gap(out, "phi")),
    *[Bound(NUMERIC, quantity, name, relation, bound, measure)
      for name, rows, spread in (("wave-z18", 400, 1e-12), ("wave-z180", 201, 1e-11))
      for quantity, relation, bound, measure in (
          ("rows", "==", rows, lambda out, name=name: len(_wave(out, name))),
          ("flux spread (max - min) / |mean|", "<=", spread,
           lambda out, name=name: _flux_spread(out, name)),
          ("max |hypot(re_psi, im_psi) - abs_psi| / abs_psi", "<=", 1e-14,
           lambda out, name=name: _modulus_gap(out, name)))],
    Bound(NUMERIC, "rows solved", "deep-rect", "==", 9, lambda out: _solved(out, "deep-rect")),
    Bound(NUMERIC, "max |T_numeric / T_exact - 1|", "deep-rect", "<=", 1e-9,
          lambda out: _deep_rect_gaps(out)[0]),
    Bound(NUMERIC, "max |theta - theta_exact|", "deep-rect", "<=", 1e-9,
          lambda out: _deep_rect_gaps(out)[1]),
    Bound(NUMERIC, "rows", "deep-rect-wave", "==", 201,
          lambda out: len(_wave(out, "deep-rect-wave"))),
    Bound(NUMERIC, "max |flux / (T hbar k / m) - 1|", "deep-rect-wave", "<=", 1e-9,
          _deep_rect_flux_gap),
    Bound(NUMERIC, "rows solved", "high-q-sweep", "==", 4,
          lambda out: _solved(out, "high-q-sweep")),
    Bound(NUMERIC, "max |T_numeric - 1|", "high-q-sweep", "<=", 1e-10,
          lambda out: _worst(abs(t - 1.0) for t in _table(out, "high-q-sweep")["T_numeric"])),
    Bound(NUMERIC, "nan cells", "high-q-sweep", "==", 0,
          lambda out: _nan_cells(out, "high-q-sweep")),
    Bound(NUMERIC, "rows solved", "low-energy", "==", 4, lambda out: _solved(out, "low-energy")),
    Bound(NUMERIC, "max |T_numeric - T_analytic|", "low-energy", "<=", 1e-12,
          lambda out: _t_gap(out, "low-energy")),
    *[Bound(NUMERIC, "rows solved", name, "==", 20, lambda out, name=name: _solved(out, name))
      for name in ("depth-200", "depth-1e4", "offset-30", "family-exp", "family-expshift",
                   "family-rect", "family-free")],
    Bound(NUMERIC, "max |T_numeric - 1|", "family-free", "<=", 1e-14,
          lambda out: _worst(abs(t - 1.0) for t in _table(out, "family-free")["T_numeric"])),
    Bound(NUMERIC, "rows refused", "row-errors", "==", 1, lambda out: _refused(out, "row-errors")),
    Bound(NUMERIC, "integrate_ends calls", "verify", "==", 20,
          lambda out: out["verify"].counts["integrate_ends"]),
]


def _shown(row: Bound) -> str:
    """The row as a line of README's table."""
    source = f"`{row.source}`" if row.source in COMMANDS else row.source
    relation = {"<=": "≤", "==": "="}[row.relation]
    if isinstance(row.bound, int):
        bound = f"{row.bound:,}"
    else:  # 1e-08 as 1e-8
        bound = re.sub(r"e(-?)\+?0*(\d)", r"e\1\2", f"{row.bound:.0e}")
    quantity = row.quantity.replace("|", "\\|")
    return f"| {quantity} | {source} | {relation} {bound} |"


def _command_line(name: str) -> str:
    """The command as a line of README's list."""
    return f"- `{name}`: `expscatter {COMMANDS[name].replace('OUT/', '')}`"


@pytest.mark.parametrize("row", BOUNDS, ids=[f"{r.lane}-{r.source}-{r.quantity}" for r in BOUNDS])
def test_stated_bound(row, outputs):
    value = row.measure(outputs)
    if row.relation == "==":
        assert value == row.bound
    else:
        assert value <= row.bound


def test_readme_quotes_the_bounds():
    # the commands, then one table per lane, each under its own heading,
    # line for line
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    header = ["| quantity | command or grid | bound |", "| --- | --- | --- |"]
    for heading, want in (
            ("### Commands", [_command_line(name) for name in COMMANDS]),
            *((heading, header + [_shown(row) for row in BOUNDS if row.lane == lane])
              for lane, heading in ((CLOSED, "### Closed-form lane"),
                                    (NUMERIC, "### Numeric lane")))):
        assert lines.count(heading) == 1, heading
        start = lines.index(heading) + 2
        end = next((k for k in range(start, len(lines)) if not lines[k].startswith(("|", "- "))),
                   len(lines))
        assert (lines[start - 1], lines[start:end]) == ("", want), heading


def test_every_command_exits_cleanly(outputs):
    # verify's exit 0 says all of its checks pass
    assert {name: (output.code, output.err) for name, output in outputs.items()} == {
        name: (0, "") for name in COMMANDS}


_DRIVER = """
import json, sys
# the runtime needs numpy only
for name in ("scipy", "mpmath", "hypothesis", "pytest"):
    sys.modules[name] = None
from expscatter import cli
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_fresh_processes_print_the_same_bytes(outputs, tmp_path):
    # two processes with different hash seeds, run side by side, each
    # rerunning every command: the bytes of both equal the in-process run's
    runs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        out.mkdir()
        commands = [argv(name, str(out)) for name in COMMANDS]
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONWARNINGS": "error"}
        runs.append(subprocess.Popen([sys.executable, "-c", _DRIVER, json.dumps(commands)],
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                     env=env))
    for run in runs:
        stdout, stderr = run.communicate(timeout=120)
        assert (run.returncode, stderr, json.loads(stdout)) == (0, "", [0] * len(COMMANDS))
    for name, output in outputs.items():
        for seed in ("1", "2"):
            assert (tmp_path / seed / _file(name)).read_text(encoding="utf-8") == output.text, name


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_exits_1_through_python_m():
    # /dev/full passes the --out check and fails the write itself
    run = subprocess.run([sys.executable, "-m", "expscatter.cli", "sweep", "--model",
                          "exp:v0=1,a=1", "--emin", "0.1", "--emax", "1", "--n", "3",
                          "--out", "/dev/full"], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (
        1, "", "error: cannot write '/dev/full': No space left on device\n")


def test_workflow_runs_no_check_outside_tier1():
    # a check written inline in the workflow is one Tier-1 never runs
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert not re.search(r"python3?\s+-(\s|c\b)", workflow)
    assert not re.search(r"python3?\s+-m\s+expscatter", workflow)


def test_src_parses_as_the_oldest_python_it_declares():
    # pyproject.toml declares requires-python >= 3.10 and the workflow runs
    # 3.11 only: newer syntax, such as except*, is refused here
    declared = re.search(r'requires-python = ">=3\.(\d+)"',
                         (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    oldest = (3, int(declared.group(1)))
    assert oldest == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=oldest)
    files = sorted((ROOT / "src").rglob("*.py"))
    assert len(files) >= 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest)
