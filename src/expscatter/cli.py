"""Command-line interface: sweep, verify, wavefunction, plot.

Output contracts are bit-exact and deterministic: identical command lines
produce byte-identical files.  The sweep table schema is

    E,q,T_analytic,R_analytic,T_numeric,R_numeric,phi_left,theta_left,
    phi_right,theta_right,flux_imbalance,wronskian_drift

with a leading `# hbar=<v> mass=<v>` units comment (each value as %g
where that reads back to the same float, else its repr), `NA` for
inapplicable cells, numbers as %.16e, LF line endings, UTF-8.  A row
whose solve fails keeps its E and q cells, fills the rest with NA, and is
followed by a `# row-error:` comment carrying the message; the sweep
itself continues.  Analytic cells are evaluated as numpy columns over the
energy grid, and an analytic wavefunction's samples as one series call
over its whole grid, so T/R and phase cells and psi samples can differ in
their last digits from one scalar exp_barrier or specfun call per energy
or point.

A sweep table travels as its columns: one list per SWEEP_HEADER name
(None for NA) and an "error" list of row messages.  `run_sweep` returns
it, `format_sweep_csv` writes each run of rows that share their NA cells
with one %-format, and `parse_sweep_table` reads each column back with one
float pass per block of rows; the chart reads the columns it draws.

Exit codes: 0 success; 1 for a UsageError or a DomainError (a model, lane
or chart refusing its input, with its own message); 2 for an
AccuracyError (a series asked past its certified bound, or a result that
cannot vouch for its accuracy); 3 for an invariant failure from verify.
``main`` alone maps errors to these codes.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from . import exp_barrier, numeric_scatter, potentials
from .errors import AccuracyError, DomainError
from .potentials import Exponential, PotentialModel, Units

SWEEP_HEADER = (
    "E,q,T_analytic,R_analytic,T_numeric,R_numeric,phi_left,theta_left,"
    "phi_right,theta_right,flux_imbalance,wronskian_drift"
)
SWEEP_COLUMNS = tuple(SWEEP_HEADER.split(","))
WAVE_HEADER = "x,re_psi,im_psi,abs_psi,flux"
# rows parse_sweep_table reads per pass: long enough that each column's
# float pass dominates, short enough that its cell strings stay small
_PARSE_BLOCK = 256
# a negative float literal such as -1e-3 or -inf, which argparse would
# take for a flag: it takes only -1 and -.5 forms as values
_NEGATIVE_FLOAT = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                             re.IGNORECASE)

# a sweep table: each SWEEP_COLUMNS name to its column (None for NA) and,
# from run_sweep, "error" to each row's message or None
SweepTable = dict[str, list]


class UsageError(Exception):
    """Bad command line or malformed input file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no flag looks like a number, so every negative float is a value
        self._negative_number_matcher = _NEGATIVE_FLOAT

    # argparse exits with status 2 on usage problems; route through the
    # package's exit-code contract instead
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class SweepSpec:
    """One energy sweep: grid, sides, methods, units."""

    model: PotentialModel
    e_min: float
    e_max: float
    n_points: int
    spacing: str
    sides: str
    methods: str
    units: Units

    def __post_init__(self):
        _require_finite(("--emin", self.e_min), ("--emax", self.e_max))
        if not (0.0 < self.e_min < self.e_max):
            raise UsageError(
                f"need 0 < emin < emax, got emin={self.e_min!r} emax={self.e_max!r}"
            )
        if self.n_points < 2:
            raise UsageError(f"need at least 2 sweep points, got {self.n_points}")
        if self.spacing not in ("linear", "log"):
            raise UsageError(f"spacing must be linear or log, got {self.spacing!r}")
        if self.sides not in ("left", "right", "both"):
            raise UsageError(f"sides must be left, right, or both, got {self.sides!r}")
        if self.methods not in ("analytic", "numeric", "both"):
            raise UsageError(
                f"methods must be analytic, numeric, or both, got {self.methods!r}"
            )

    def energies(self) -> np.ndarray:
        if self.spacing == "linear":
            return np.linspace(self.e_min, self.e_max, self.n_points)
        return np.logspace(
            math.log10(self.e_min), math.log10(self.e_max), self.n_points
        )


def _rectangle(v0: float, w: float) -> PotentialModel:
    """rect:v0,w takes the full width w, refused under its own name."""
    if not (math.isfinite(w) and w > 0.0):
        raise UsageError(f"w must be finite and > 0, got {w!r}")
    if w / 2.0 == 0.0:
        raise UsageError(f"w = {w!r} is too small: its half width w/2 underflows to 0")
    return potentials.rectangular(v0, w / 2.0)


# descriptor head -> (field names, constructor taking them as keywords)
_GRAMMAR = {
    "exp": (("v0", "a"), potentials.exponential),
    "expshift": (("v0", "a", "b"), potentials.exponential),
    "rect": (("v0", "w"), _rectangle),
    "free": ((), potentials.free),
}


def parse_model(text: str) -> PotentialModel:
    """Model descriptor grammar.

    exp:v0=<f>,a=<f> | expshift:v0=<f>,a=<f>,b=<f> | rect:v0=<f>,w=<f> | free
    where w is the full width of the rectangular region.
    """
    text = text.strip()
    head, sep, tail = text.partition(":")
    names, build = _GRAMMAR.get(head, ((), None))
    if build is None or bool(sep) != bool(names):
        raise UsageError(
            f"cannot parse model {text!r}; expected exp:v0=<f>,a=<f> | "
            "expshift:v0=<f>,a=<f>,b=<f> | rect:v0=<f>,w=<f> | free"
        )
    fields = {}
    for piece in tail.split(",") if sep else ():
        key, eq, raw = piece.partition("=")
        key = key.strip()
        if not eq or key not in names:
            raise UsageError(f"bad model field {piece!r} for {head!r}")
        if key in fields:
            raise UsageError(f"model field {key!r} is given twice in {text!r}")
        try:
            fields[key] = float(raw)
        except ValueError:
            raise UsageError(f"bad numeric value in model field {piece!r}") from None
    missing = [name for name in names if name not in fields]
    if missing:
        raise UsageError(f"model {head!r} is missing fields: {', '.join(missing)}")
    return build(**fields)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Compute every row; failures mark their row instead of aborting.

    For exponential models q and the analytic cells are computed once, as
    numpy columns over the whole energy grid; only the numeric solve runs
    row by row, each row on its own default window and grid.
    """
    energies = spec.energies()
    blank = [None] * energies.size
    table = {"E": energies.tolist(), **dict.fromkeys(SWEEP_COLUMNS[1:], blank), "error": blank}
    if isinstance(spec.model, Exponential):
        table.update(_analytic_columns(spec, energies))
    if spec.methods == "analytic":
        return table
    # the numeric cells are filled in place, so no column may be shared
    table = {name: list(column) for name, column in table.items()}
    for i, error in enumerate(table["error"]):
        if error is None:
            _sweep_row(spec, table, i)
    return table


def _analytic_columns(spec: SweepSpec, energies: np.ndarray) -> SweepTable:
    """q for every row and, unless the sweep is numeric only, the analytic
    cells; a row the closed forms refuse gets NA cells and the message its
    scalar call raises."""
    d = exp_barrier.reduce_params(spec.model, energies, spec.units)
    columns = {"q": d.q.tolist()}
    if spec.methods == "numeric":
        return columns
    accepted = exp_barrier.closed_form_domain(d.p, d.q)
    if accepted.any():
        q = d.q[accepted]
        found = {}
        for side in ("left", "right") if spec.sides == "both" else (spec.sides,):
            data = exp_barrier.amplitudes(d.p, q, side)
            found.update({"T_analytic": data.t_coeff, "R_analytic": data.r_coeff,
                          f"phi_{side}": data.phi, f"theta_{side}": data.theta})
        for name, values in found.items():
            column = np.full(energies.size, None, dtype=object)
            column[accepted] = values.tolist()
            columns[name] = column.tolist()
    columns["error"] = [None] * energies.size
    for k in np.flatnonzero(~accepted).tolist():
        columns["error"][k] = _refusal(spec, columns["q"][k])
    return columns


def _refusal(spec: SweepSpec, q: float) -> str:
    """The message the closed forms refuse a row's q with, naming the E
    bound that passes."""
    try:
        exp_barrier.check_q(spec.model, q, spec.units)
    except DomainError as exc:
        return str(exc)
    raise AssertionError(f"closed forms accept q = {q!r} outside closed_form_domain")


def _sweep_row(spec: SweepSpec, table: SweepTable, i: int) -> None:
    """Fill row i's numeric cells; on failure every cell but E and q is NA
    and the row carries the message."""
    sides = ("left", "right") if spec.sides == "both" else (spec.sides,)
    try:
        basis = numeric_scatter.integrate_ends(spec.model, table["E"][i], spec.units)
        results = [numeric_scatter.match(basis, s) for s in sides]
    except (DomainError, AccuracyError) as exc:
        for name in SWEEP_COLUMNS[2:]:
            table[name][i] = None
        table["error"][i] = str(exc)
        return
    cells = {
        "T_numeric": results[0].t_coeff,
        "R_numeric": results[0].r_coeff,
        "flux_imbalance": max(r.flux_imbalance for r in results),
        "wronskian_drift": basis.drift,
    }
    for s, result in zip(sides, results):
        # analytic phases take precedence when both methods run
        if table[f"phi_{s}"][i] is None:
            cells[f"phi_{s}"] = result.phi
            cells[f"theta_{s}"] = result.theta
    for name, value in cells.items():
        table[name][i] = value


def _units_comment(units: Units) -> str:
    """`# hbar=<v> mass=<v>`, each value as %g where that reads back to it."""

    def text(value: float) -> str:
        short = f"{value:g}"
        return short if float(short) == value else repr(float(value))

    return f"# hbar={text(units.hbar)} mass={text(units.mass)}"


def format_sweep_csv(spec: SweepSpec, table: SweepTable) -> str:
    """The table's text: each run of rows that share their NA cells, and
    that ends at a row error or at the next change of them, is one
    %-format over a repeated row template."""
    columns = [table[name] for name in SWEEP_COLUMNS]
    errors = table["error"]
    n = len(columns[0])
    ends = {n, *(i + 1 for i, error in enumerate(errors) if error is not None)}
    mixed = [column for column in columns if None in column and column.count(None) != n]
    if mixed:
        na = list(zip(*[[cell is None for cell in column] for column in mixed]))
        ends.update(i for i in range(1, n) if na[i] != na[i - 1])
    lines = [_units_comment(spec.units), SWEEP_HEADER]
    start = 0
    for end in sorted(ends - {0}):  # an empty table has no run
        first = [column[start] for column in columns]
        template = ",".join(["NA" if cell is None else "%.16e" for cell in first])
        filled = [column[start:end] for column, cell in zip(columns, first) if cell is not None]
        # row-major, every value the float object it was
        lines.append("\n".join([template] * (end - start))
                     % tuple(chain.from_iterable(zip(*filled))))
        if errors[end - 1] is not None:
            lines.append(f"# row-error: E={columns[0][end - 1]:.16e} {errors[end - 1]}")
        start = end
    # the empty last line ends the text in a newline, with no copy of it
    return "\n".join([*lines, ""])


def parse_sweep_table(lines: Sequence[str]) -> SweepTable:
    """Parse what format_sweep_csv emits into its columns (row errors are
    comments, so there is no "error" column); errors carry 1-based line
    numbers and name the first fault in row-major order."""
    # blank and comment lines are skipped
    numbered = [(lineno, line.rstrip("\n")) for lineno, line in enumerate(lines, start=1)
                if line.lstrip()[:1] not in "#"]
    if not numbered:
        raise UsageError("line 1: input has no sweep header")
    lineno, header = numbered[0]
    if header != SWEEP_HEADER:
        raise UsageError(f"line {lineno}: expected sweep header, got {header!r}")
    width = len(SWEEP_COLUMNS)
    table = {name: [] for name in SWEEP_COLUMNS}
    # a block of rows at a time, so that only one block's cell strings
    # are alive at once
    for first in range(1, len(numbered), _PARSE_BLOCK):
        block = numbered[first:first + _PARSE_BLOCK]
        rows = [line.split(",") for _, line in block]
        # only rows above the first one of the wrong width are read, so a
        # bad cell found there comes before it
        short = next((k for k, cells in enumerate(rows) if len(cells) != width), len(rows))
        bad = []
        for j, cells in enumerate(zip(*rows[:short])):
            column = _column(cells)
            if isinstance(column, int):
                bad.append((column, j, cells[column]))
            else:
                table[SWEEP_COLUMNS[j]] += column
        if bad:
            k, j, cell = min(bad)
            raise UsageError(f"line {block[k][0]}: bad number {cell!r} in column "
                             f"{SWEEP_COLUMNS[j]}")
        if short < len(rows):
            raise UsageError(f"line {block[short][0]}: expected {width} cells, "
                             f"got {len(rows[short])}")
    return table


def _column(cells: Sequence[str]) -> list | int:
    """The cells as floats, NA as None; or, if a cell is neither, the index
    of the first such cell."""
    try:
        return list(map(float, cells))  # a column with no NA cell
    except ValueError:
        pass
    column = []
    for k, cell in enumerate(cells):
        try:
            column.append(None if cell == "NA" else float(cell))
        except ValueError:
            return k
    return column


def render_sweep_chart(table: SweepTable, log_x: bool) -> str:
    """Chart of T and R over E, preferring analytic cells, else numeric;
    rows with no E are left out."""
    energies = table["E"]
    t_vals, r_vals = (
        [numeric if analytic is None else analytic
         for analytic, numeric in zip(table[f"{v}_analytic"], table[f"{v}_numeric"])]
        for v in "TR"
    )
    if None in energies:
        kept = [k for k, energy in enumerate(energies) if energy is not None]
        energies, t_vals, r_vals = ([column[k] for k in kept]
                                    for column in (energies, t_vals, r_vals))
    have_data = any(v is not None for v in t_vals) or any(v is not None for v in r_vals)
    if not energies or not have_data:
        raise UsageError("empty data region: no plottable rows in the input table")
    from . import chart  # loaded on use: only plot draws a chart

    return chart.render_probability_chart(energies, t_vals, r_vals, log_x=log_x)


def build_parser() -> _Parser:
    parser = _Parser(prog="expscatter", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="tabulate T, R, phases over an energy grid")
    _add_model_flags(sweep)
    sweep.add_argument("--emin", type=float, required=True)
    sweep.add_argument("--emax", type=float, required=True)
    sweep.add_argument("--n", type=int, default=50, help="grid points (default 50)")
    sweep.add_argument("--spacing", choices=("linear", "log"), default="log")
    sweep.add_argument("--side", choices=("left", "right", "both"), default="both")
    sweep.add_argument("--method", choices=("analytic", "numeric", "both"), default="both")
    sweep.add_argument("--out", help="output file (default stdout)")

    verify = sub.add_parser("verify", help="run the named invariant checks")
    verify.add_argument("--out", help="report file (default stdout)")

    wave = sub.add_parser("wavefunction", help="sample psi on a grid")
    _add_model_flags(wave)
    wave.add_argument("--energy", type=float, required=True)
    wave.add_argument("--side", choices=("left", "right"), default="left")
    wave.add_argument("--method", choices=("analytic", "numeric"), default=None,
                      help="default: analytic for exponential models, else numeric")
    wave.add_argument("--xmin", type=float, required=True)
    wave.add_argument("--xmax", type=float, required=True)
    wave.add_argument("--n", type=int, default=201,
                      help="grid points on [xmin, xmax] (default 201), each distinct x "
                           "printed once; the numeric method reads each by one RK4 step "
                           "from the integration node at or below it")
    wave.add_argument("--out", help="output file (default stdout)")

    plot = sub.add_parser("plot", help="render a sweep table as an SVG chart")
    plot.add_argument("input", help="sweep table file")
    plot.add_argument("--spacing", choices=("linear", "log"), default="log",
                      help="x-axis scale (default log)")
    plot.add_argument("--out", required=True, help="output SVG file")
    return parser


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True,
                     help="exp:v0=<f>,a=<f> | expshift:v0=<f>,a=<f>,b=<f> | rect:v0=<f>,w=<f> | free")
    sub.add_argument("--hbar", type=float, default=1.0)
    sub.add_argument("--mass", type=float, default=0.5)


def _require_exponential(descriptor: str, model: PotentialModel, what: str) -> None:
    """Refuse an analytic ``what`` for a model the closed forms do not
    cover, named by the descriptor's head as the user wrote it."""
    if not isinstance(model, Exponential):
        head = descriptor.strip().partition(":")[0]
        raise UsageError(f"{what} is not defined for the {head!r} model")


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        model=parse_model(args.model),
        e_min=args.emin,
        e_max=args.emax,
        n_points=args.n,
        spacing=args.spacing,
        sides=args.side,
        methods=args.method,
        units=Units(mass=args.mass, hbar=args.hbar),
    )
    if spec.methods != "numeric":
        _require_exponential(args.model, spec.model, "analytic method")
    table = run_sweep(spec)
    _emit(format_sweep_csv(spec, table), args.out)
    if None not in table["error"]:
        print("error: every sweep row failed", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    from . import verification  # loaded on use: only verify runs the checks

    results = verification.run_all()
    _emit(verification.format_report(results) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 3


def cmd_wavefunction(args) -> int:
    model = parse_model(args.model)
    units = Units(mass=args.mass, hbar=args.hbar)
    method = args.method or ("analytic" if isinstance(model, Exponential) else "numeric")
    if method == "analytic":
        _require_exponential(args.model, model, "analytic wavefunction")
    _require_finite(("--xmin", args.xmin), ("--xmax", args.xmax))
    if not (args.xmin < args.xmax):
        raise UsageError(f"need xmin < xmax, got {args.xmin!r}, {args.xmax!r}")
    if args.n < 2:
        raise UsageError(f"need at least 2 grid points, got {args.n}")

    # linspace repeats an x where [xmin, xmax] holds fewer than n doubles;
    # keep each x once (np.unique would import numpy.ma on its first call)
    xs = np.linspace(args.xmin, args.xmax, args.n)
    xs = xs[np.append(True, np.diff(xs) > 0)]
    if method == "analytic":
        d = exp_barrier.reduce_params(model, args.energy, units)
        exp_barrier.check_q(model, d.q, units)
        wave = exp_barrier.exact_wavefunction(d.p, d.q, args.side, xs / model.a)
        incident = exp_barrier.incident_amplitude(d.p, d.q, args.side)
        psi = wave.psi / incident
        re, im = psi.real, psi.imag
        # exact_wavefunction fluxes use hbar/m = 1 and d/d(x/a)
        flux_scale = units.hbar / (units.mass * model.a * abs(incident) ** 2)
        flux_vals = wave.flux_profile * flux_scale
    else:
        # the numeric lane's window at this energy, grown to cover
        # [xmin, xmax], seeded at the transmitted end, so that the basis
        # grows as psi does; every requested x is read by one RK4 step from
        # the node at or below it
        transmitted = "right" if args.side == "left" else "left"
        basis = numeric_scatter.integrate_ends(model, args.energy, units, xs, seed=transmitted)
        result = numeric_scatter.match(basis, args.side)
        u, _, v, _ = basis.nodes
        # psi = a_u u + a_v v on the real basis, a = c / incident, in real
        # arithmetic; its flux Im(conj(a_u) a_v) W[u, v], W as the march
        # carries it, does not cancel |psi|^2 down to T in front of a deep
        # barrier, as Im(conj(psi) psi') would
        a_u, a_v = result.c_u / result.incident, result.c_v / result.incident
        re, im = a_u.real * u + a_v.real * v, a_u.imag * u + a_v.imag * v
        im_uv = a_u.real * a_v.imag - a_u.imag * a_v.real
        flux_vals = (units.hbar / units.mass) * im_uv * basis.w_uv

    # np.hypot is abs(complex(re, im)) bit for bit: both are libm's hypot
    cells = np.column_stack((xs, re, im, np.hypot(re, im), flux_vals)).ravel().tolist()
    block = "\n".join(["%.16e,%.16e,%.16e,%.16e,%.16e"] * xs.size) % tuple(cells)
    _emit("\n".join([_units_comment(units), WAVE_HEADER, block, ""]), args.out)
    return 0


def cmd_plot(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.input!r}: {exc}") from None
    table = parse_sweep_table(lines)
    svg = render_sweep_chart(table, log_x=(args.spacing == "log"))
    _emit(svg, args.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out(args.out)
        handler = {
            "sweep": cmd_sweep,
            "verify": cmd_verify,
            "wavefunction": cmd_wavefunction,
            "plot": cmd_plot,
        }[args.command]
        return handler(args)
    except AccuracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _require_finite(*flags: tuple[str, float]) -> None:
    for flag, value in flags:
        if not math.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value!r}")


def _check_out(out: Optional[str]) -> None:
    """Refuse an --out before any work if its directory is missing, if it is a
    directory, or if it or its directory is not writable; creates nothing."""
    if out is None:
        return
    directory = os.path.dirname(out) or os.curdir
    if not os.path.isdir(directory):
        reason = "No such file or directory"
    elif os.path.isdir(out):
        reason = "Is a directory"
    elif not os.access(out if os.path.exists(out) else directory, os.W_OK):
        reason = "Permission denied"
    else:
        return
    raise UsageError(f"cannot write {out!r}: {reason}")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out!r}: {exc.strerror}") from None


if __name__ == "__main__":
    sys.exit(main())
