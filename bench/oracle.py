"""Independent checks of every `expscatter` output the benchmark produces.

Nothing here imports the package.  Expected values come from textbook
forms recomputed from the argv each command received:

* exponential family: q = 2ka, T = 1 - e^{-2 pi q}, R = e^{-2 pi q},
  phi_right = -pi/2 (eq. 23), and far to the left of the drop the
  left-incidence wave is e^{ikx} + r e^{-ikx} with
  r = -e^{-pi q} (p/2)^{-2iq} Gamma(1+iq) / Gamma(1-iq);
* rectangular barrier: the closed T for E below, at and above V0;
* free particle: T = 1, psi = e^{+-ikx}.

Tolerances are the acceptance gate's pinned ones: 1e-12 for closed-form
identities, 1e-6 for numeric against closed form, 1e-8 for the
rectangular oracle, Wronskian drift, flux imbalance and flux constancy.

Two kinds of failure are kept apart.  A *contract* failure (bad exit
code, malformed table, wrong column layout, NA where a number belongs, a
closed-form value off its identity, a plot that does not match its table,
non-deterministic bytes) makes the op failed and the run incorrect.  A
*row* failure (a row the program refused with `# row-error:`, or a numeric
value outside its tolerance) counts toward failed_share and keeps the row
out of ok_rows; it never aborts the run.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import Counter

SWEEP_HEADER = (
    "E,q,T_analytic,R_analytic,T_numeric,R_numeric,phi_left,theta_left,"
    "phi_right,theta_right,flux_imbalance,wronskian_drift"
)
WAVE_HEADER = "x,re_psi,im_psi,abs_psi,flux"
VERIFY_CHECKS = (
    "eq14-unitarity", "eq14-endpoints", "eq14-numeric-agreement", "reciprocity",
    "eq18-phase-relation", "eq23-right-amplitude", "v0-independence",
    "flux-wronskian-rk4", "gamma-identity", "eq12-identities",
    "rect-barrier-oracle", "eq13-flux-ratios", "cli-determinism",
)

TOL_EXACT = 1e-12
TOL_NUMERIC = 1e-6
TOL_RECT = 1e-8
TOL_DRIFT = 1e-8
TOL_FLUX = 1e-8
# left-tail samples with z = p e^{(x-b)/2a} below this are asymptotic to
# O(z^2 / 4) <= 2.5e-7, inside TOL_NUMERIC
Z_ASYMPTOTIC = 1e-3


class ContractError(Exception):
    """Output breaks the command-line contract or a closed-form identity."""


class Tally:
    """Row counts, failure reasons and accuracy maxima over checked ops."""

    def __init__(self):
        self.ops = 0
        self.failed_ops = 0
        self.rows = 0
        self.ok_rows = 0
        self.reasons = Counter()
        self.worst = {}

    def note(self, key: str, value: float) -> None:
        self.worst[key] = max(self.worst.get(key, 0.0), value)

    def row(self, problems: list[str]) -> None:
        self.rows += 1
        if problems:
            self.reasons.update(problems)
        else:
            self.ok_rows += 1

    def check_op(self, commands: list[list[str]], results: list[tuple[int, str, str]]) -> None:
        """Check one op; a contract failure marks it failed and is recorded."""
        self.ops += 1
        try:
            sweep_rows = None
            for argv, (rc, out, err) in zip(commands, results):
                if argv[0] == "sweep":
                    sweep_rows = _check_sweep(self, argv, rc, out)
                elif argv[0] == "plot":
                    _check_plot(argv, rc, sweep_rows)
                elif argv[0] == "wavefunction":
                    _check_wavefunction(self, argv, rc, out, err)
                elif argv[0] == "verify":
                    _check_verify(self, rc, out)
                else:
                    raise ContractError(f"no oracle for command {argv[0]!r}")
        except ContractError as exc:
            self.failed_ops += 1
            self.reasons[f"contract: {exc}"] += 1


def read_out(argv: list[str], stdout: str) -> str:
    """What a command wrote: its --out file if it names one, else stdout."""
    path = _flags(argv).get("--out")
    if path is None:
        return stdout
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except OSError as exc:
        raise ContractError(f"cannot read {argv[0]} output: {exc}") from None


def mask_timings(text: str) -> str:
    """verify prints the elapsed time of one check; blank it for comparisons."""
    return re.sub(r"\d+\.\d+s\b", "<t>s", text)


# --- physics -----------------------------------------------------------------

def parse_model(text: str) -> dict:
    if text == "free":
        return {"kind": "free"}
    head, _, tail = text.partition(":")
    fields = {k: float(v) for k, v in (piece.split("=") for piece in tail.split(","))}
    fields["kind"] = head
    if head == "exp":
        fields["b"] = 0.0
    return fields


def transmission(model: dict, energy: float, mass: float, hbar: float) -> tuple[float, float, float]:
    """(T, R, q) from textbook forms; q is nan outside the exponential family."""
    k = math.sqrt(2.0 * mass * energy) / hbar
    kind = model["kind"]
    if kind in ("exp", "expshift"):
        q = 2.0 * k * model["a"]
        return -math.expm1(-2.0 * math.pi * q), math.exp(-2.0 * math.pi * q), q
    if kind == "free":
        return 1.0, 0.0, math.nan
    v0, width = model["v0"], model["w"]
    gap = energy - v0
    if gap == 0.0:
        t = 1.0 / (1.0 + mass * v0 * width**2 / (2.0 * hbar**2))
    elif gap < 0.0:
        kappa = math.sqrt(-2.0 * mass * gap) / hbar
        t = 1.0 / (1.0 + v0**2 * math.sinh(kappa * width) ** 2 / (4.0 * energy * -gap))
    else:
        kk = math.sqrt(2.0 * mass * gap) / hbar
        t = 1.0 / (1.0 + v0**2 * math.sin(kk * width) ** 2 / (4.0 * energy * gap))
    return t, 1.0 - t, math.nan


def arg_gamma_1_iq(q: float) -> float:
    """Im log Gamma(1 + iq): recurrence up by 16, then Stirling's series."""
    z = complex(1.0, q)
    shift = sum(cmath.log(z + j).imag for j in range(16))
    w = z + 16
    series = (
        (w - 0.5) * cmath.log(w) - w + 1.0 / (12 * w) - 1.0 / (360 * w**3)
        + 1.0 / (1260 * w**5) - 1.0 / (1680 * w**7) + 1.0 / (1188 * w**9)
    )
    return series.imag - shift


def exp_p(model: dict, mass: float, hbar: float) -> float:
    """p of the unshifted equivalent -v0 e^{-b/a} e^{x/a}."""
    v0_eff = model["v0"] * math.exp(-model["b"] / model["a"])
    return math.sqrt(8.0 * mass * v0_eff) * model["a"] / hbar


def angle_gap(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


# --- per-command checks ----------------------------------------------------------

def _flags(argv: list[str]) -> dict:
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def _units(line: str) -> tuple[float, float]:
    m = re.fullmatch(r"# hbar=(\S+) mass=(\S+)", line)
    if not m:
        raise ContractError(f"bad units line {line[:60]!r}")
    return float(m.group(2)), float(m.group(1))


def _lines(text: str) -> list[str]:
    if not text.endswith("\n") or "\r" in text:
        raise ContractError("output must be LF-terminated lines")
    return text[:-1].split("\n")


_CELL = r"(?:NA|-?\d\.\d{16}e[+-]\d\d\d?)"
_ROW = {n: re.compile(",".join([_CELL] * n)) for n in (5, 12)}


def _numbers(line: str, n: int) -> list:
    """The n cells of a table row as floats (None for NA); %.16e or NA only."""
    if not _ROW[n].fullmatch(line):
        raise ContractError(f"row {line[:40]!r}... is not {n} cells of %.16e or NA")
    return [None if cell == "NA" else float(cell) for cell in line.split(",")]


def _check_sweep(tally: Tally, argv: list[str], rc: int, out: str) -> list[dict]:
    flags = _flags(argv)
    model = parse_model(flags["--model"])
    n = int(flags.get("--n", "50"))
    e_lo, e_hi = float(flags["--emin"]), float(flags["--emax"])
    side = flags.get("--side", "both")
    method = flags.get("--method", "both")
    exp_family = model["kind"] in ("exp", "expshift")
    analytic = method in ("analytic", "both")
    numeric = method in ("numeric", "both")
    if rc not in (0, 2):
        raise ContractError(f"sweep exit code {rc}")
    lines = _lines(read_out(argv, out))
    mass, hbar = _units(lines[0])
    if lines[1] != SWEEP_HEADER:
        raise ContractError("sweep header differs from the 12-column schema")

    rows = []
    body = lines[2:]
    i = 0
    while i < len(body):
        vals = _numbers(body[i], 12)
        refused = i + 1 < len(body) and body[i + 1].startswith("# row-error: ")
        i += 2 if refused else 1
        rows.append(vals)
        energy = vals[0]
        idx = len(rows) - 1
        grid = 10.0 ** (math.log10(e_lo) + idx * (math.log10(e_hi) - math.log10(e_lo)) / (n - 1))
        if energy is None or abs(energy - grid) > 1e-12 * grid:
            raise ContractError(f"row {idx} energy {energy!r} is not grid point {grid:.6g}")
        t_or, r_or, q_or = transmission(model, energy, mass, hbar)
        if exp_family:
            if vals[1] is None or abs(vals[1] - q_or) > TOL_EXACT * max(1.0, q_or):
                raise ContractError(f"q={vals[1]!r} but 2ka={q_or:.16e}")
        elif vals[1] is not None:
            raise ContractError("q must be NA outside the exponential family")
        if refused:
            if any(v is not None for v in vals[2:]):
                raise ContractError("refused row must be NA past E and q")
            tally.row(["refused: " + body[i - 1].split(" ", 3)[-1][:48]])
            continue
        _check_sweep_row(tally, vals, t_or, r_or, analytic, numeric, side, model)

    if len(rows) != n:
        raise ContractError(f"sweep printed {len(rows)} rows, want {n}")
    all_refused = all(v[2] is None and v[4] is None for v in rows)
    if rc != (2 if all_refused else 0):
        raise ContractError(f"sweep exit code {rc} with {'all' if all_refused else 'some'} rows solved")
    names = SWEEP_HEADER.split(",")
    return [dict(zip(names, v)) for v in rows]


def _present(value, wanted: bool, name: str) -> None:
    if (value is not None) != wanted:
        raise ContractError(f"{name} {'missing' if wanted else 'should be NA'}")


def _check_sweep_row(tally, vals, t_or, r_or, analytic, numeric, side, model):
    (_, _, t_an, r_an, t_num, r_num, phi_l, theta_l, phi_r, theta_r, imbalance, drift) = vals
    _present(t_an, analytic, "T_analytic")
    _present(r_an, analytic, "R_analytic")
    for name, value in (("T_numeric", t_num), ("R_numeric", r_num),
                        ("flux_imbalance", imbalance), ("wronskian_drift", drift)):
        _present(value, numeric, name)
    _present(phi_l, side in ("left", "both"), "phi_left")
    _present(theta_l, side in ("left", "both"), "theta_left")
    _present(phi_r, side in ("right", "both"), "phi_right")
    _present(theta_r, side in ("right", "both"), "theta_right")

    if analytic:
        gap = max(abs(t_an - t_or), abs(r_an - r_or), abs(t_an + r_an - 1.0))
        if gap > TOL_EXACT:
            raise ContractError(f"T/R_analytic off 1 - e^(-2 pi q) by {gap:.3e}")
        if phi_r is not None and angle_gap(phi_r, -0.5 * math.pi) > TOL_EXACT:
            raise ContractError(f"phi_right={phi_r!r} is not -pi/2 (eq. 23)")

    problems = []
    if numeric:
        d_t = abs(t_num - t_or)
        tally.note("max_dT_numeric", d_t)
        tally.note("max_flux_imbalance", imbalance)
        tally.note("max_wronskian_drift", drift)
        tol = TOL_RECT if model["kind"] in ("rect", "free") else TOL_NUMERIC
        if d_t > tol or abs(r_num - r_or) > tol:
            problems.append(f"numeric T/R off the oracle by more than {tol:g}")
        if imbalance > TOL_FLUX:
            problems.append(f"flux imbalance above {TOL_FLUX:g}")
        if drift > TOL_DRIFT:
            problems.append(f"Wronskian drift above {TOL_DRIFT:g}")
    tally.row(problems)


def _check_plot(argv: list[str], rc: int, table) -> None:
    if rc != 0:
        raise ContractError(f"plot exit code {rc}")
    if table is None:
        raise ContractError("plot ran without a sweep table in the same op")
    svg = read_out(argv, "")
    if not svg.startswith("<svg ") or not svg.endswith("</svg>\n"):
        raise ContractError("plot output is not one SVG document")
    polylines = re.findall(r'<polyline [^>]*points="([^"]*)"', svg)
    if len(polylines) != 2:
        raise ContractError(f"plot has {len(polylines)} polylines, want 2 (T, R)")
    for label, points, col_a, col_n in zip("TR", polylines, ("T_analytic", "R_analytic"),
                                            ("T_numeric", "R_numeric")):
        want = sum(1 for row in table if row[col_a] is not None or row[col_n] is not None)
        xy = [tuple(map(float, p.split(","))) for p in points.split()]
        if len(xy) != want:
            raise ContractError(f"{label} polyline has {len(xy)} points, table has {want}")
        if any(not (0.0 <= x <= 720.0 and 0.0 <= y <= 480.0) for x, y in xy):
            raise ContractError(f"{label} polyline leaves the canvas")
        if any(b[0] <= a[0] for a, b in zip(xy, xy[1:])):
            raise ContractError(f"{label} polyline is not ordered by energy")


def _check_wavefunction(tally: Tally, argv: list[str], rc: int, out: str, err: str) -> None:
    flags = _flags(argv)
    model = parse_model(flags["--model"])
    n = int(flags.get("--n", "201"))
    energy = float(flags["--energy"])
    x_lo, x_hi = float(flags["--xmin"]), float(flags["--xmax"])
    side = flags.get("--side", "left")
    exp_family = model["kind"] in ("exp", "expshift")
    analytic = flags.get("--method", "analytic" if exp_family else "numeric") == "analytic"
    if rc != 0:
        # a refused wavefunction loses every sample it was asked for
        if rc not in (1, 2) or out or not err.startswith("error: "):
            raise ContractError(f"wavefunction exit code {rc} without a clean error")
        for _ in range(n):
            tally.row(["refused: " + err[7:55]])
        return
    lines = _lines(read_out(argv, out))
    mass, hbar = _units(lines[0])
    if lines[1] != WAVE_HEADER:
        raise ContractError("wavefunction header differs from x,re_psi,im_psi,abs_psi,flux")
    samples = []
    for line in lines[2:]:
        samples.append(_numbers(line, 5))
        if None in samples[-1]:
            raise ContractError("wavefunction row must hold 5 numbers")
    if not samples or len(samples) > n or (analytic and len(samples) != n):
        raise ContractError(f"wavefunction printed {len(samples)} samples for --n {n}")
    xs = [s[0] for s in samples]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ContractError("wavefunction x is not strictly ascending")
    slack = 1e-9 * max(1.0, abs(x_lo), abs(x_hi)) if analytic else 1e-2
    if xs[0] < x_lo - slack or xs[-1] > x_hi + slack:
        raise ContractError("wavefunction samples leave [xmin, xmax]")
    for _, re_psi, im_psi, abs_psi, _ in samples:
        if abs(math.hypot(re_psi, im_psi) - abs_psi) > 1e-14 * max(abs_psi, 1e-300):
            raise ContractError("abs_psi differs from |re_psi + i im_psi|")

    t_or, _, q = transmission(model, energy, mass, hbar)
    k = math.sqrt(2.0 * mass * energy) / hbar
    if side == "left":
        j_want = hbar * k / mass * t_or
    elif exp_family:
        j_want = -hbar * exp_p(model, mass, hbar) / (2.0 * mass * model["a"]) * t_or
    else:
        j_want = -hbar * k / mass * t_or
    fluxes = sorted(s[4] for s in samples)
    j_mid = fluxes[len(fluxes) // 2]
    mean = sum(fluxes) / len(fluxes)
    tally.note("max_flux_spread", (fluxes[-1] - fluxes[0]) / abs(mean))
    level_ok = abs(j_mid - j_want) <= TOL_NUMERIC * abs(j_want)

    if side == "left" and exp_family:
        p, a = exp_p(model, mass, hbar), model["a"]
        r = -math.exp(-math.pi * q) * cmath.exp(2j * (arg_gamma_1_iq(q) - q * math.log(0.5 * p)))

    def asymptote(x: float):
        """psi where the potential is negligible, None where it is not known."""
        if model["kind"] == "free":
            return cmath.exp((1j if side == "left" else -1j) * k * x)
        if side == "left" and exp_family and p * math.exp(x / (2.0 * a)) <= Z_ASYMPTOTIC:
            return cmath.exp(1j * k * x) + r * cmath.exp(-1j * k * x)
        return None

    for x, re_psi, im_psi, _, j in samples:
        problems = []
        if not level_ok:
            problems.append(f"flux level off the T oracle by more than {TOL_NUMERIC:g}")
        if abs(j - j_mid) > TOL_FLUX * abs(j_mid):
            problems.append(f"flux not constant to {TOL_FLUX:g}")
        want = asymptote(x)
        if want is not None and abs(complex(re_psi, im_psi) - want) > TOL_NUMERIC:
            problems.append(f"far-left psi off e^(ikx) + r e^(-ikx) by more than {TOL_NUMERIC:g}")
        tally.row(problems)


def _check_verify(tally: Tally, rc: int, out: str) -> None:
    lines = _lines(out)
    if len(lines) != len(VERIFY_CHECKS) + 1:
        raise ContractError(f"verify printed {len(lines)} lines, want {len(VERIFY_CHECKS) + 1}")
    failed = 0
    for name, line in zip(VERIFY_CHECKS, lines):
        m = re.match(r"(PASS|FAIL) (\S+) residual=(\S+) tol=(\S+) \(", line)
        if not m or m.group(2) != name:
            raise ContractError(f"verify line {line[:50]!r} is not check {name}")
        passed = m.group(1) == "PASS" and float(m.group(3)) < float(m.group(4))
        failed += not passed
        tally.row([] if passed else [f"verify check {name} failed"])
    total = len(VERIFY_CHECKS)
    if lines[-1] != f"{total - failed}/{total} checks passed" or rc != (3 if failed else 0):
        raise ContractError(f"verify summary {lines[-1]!r} or exit code {rc} is inconsistent")
