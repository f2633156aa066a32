"""Command-line interface: sweep, verify, wavefunction, plot.

Output contracts are bit-exact and deterministic: identical command lines
produce byte-identical files.  The sweep table schema is

    E,q,T_analytic,R_analytic,T_numeric,R_numeric,phi_left,theta_left,
    phi_right,theta_right,flux_imbalance,wronskian_drift

with a leading `# hbar=<v> mass=<v>` units comment, `NA` for inapplicable
cells, numbers as %.16e, LF line endings, UTF-8.  A row whose solve fails
keeps its E and q cells, fills the rest with NA, and is followed by a
`# row-error:` comment carrying the message; the sweep itself continues.

Exit codes: 0 success, 1 usage error, 2 numerical-accuracy failure,
3 invariant failure from verify.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import chart, exp_barrier, numeric_scatter, potentials, verification
from .errors import AccuracyError, DomainError, SeriesRangeError
from .exp_barrier import PhysicalParams
from .potentials import PotentialModel

SWEEP_HEADER = (
    "E,q,T_analytic,R_analytic,T_numeric,R_numeric,phi_left,theta_left,"
    "phi_right,theta_right,flux_imbalance,wronskian_drift"
)
WAVE_HEADER = "x,re_psi,im_psi,abs_psi,flux"


class UsageError(Exception):
    """Bad command line or malformed input file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
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
    units: PhysicalParams

    def __post_init__(self):
        for flag, value in (("--emin", self.e_min), ("--emax", self.e_max)):
            if not math.isfinite(value):
                raise UsageError(f"{flag} must be finite, got {value!r}")
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
        if self.methods != "numeric" and self.model.kind != "exponential":
            raise UsageError(
                f"analytic method is not defined for the {self.model.kind!r} model"
            )

    def energies(self) -> np.ndarray:
        if self.spacing == "linear":
            return np.linspace(self.e_min, self.e_max, self.n_points)
        return np.logspace(
            math.log10(self.e_min), math.log10(self.e_max), self.n_points
        )


@dataclass(frozen=True)
class SweepRow:
    energy: float
    q: Optional[float]
    t_analytic: Optional[float]
    r_analytic: Optional[float]
    t_numeric: Optional[float]
    r_numeric: Optional[float]
    phi_left: Optional[float]
    theta_left: Optional[float]
    phi_right: Optional[float]
    theta_right: Optional[float]
    flux_imbalance: Optional[float]
    wronskian_drift: Optional[float]
    error: Optional[str] = None


# descriptor head -> (field names, constructor taking them as keywords)
_GRAMMAR = {
    "exp": (("v0", "a"), potentials.exponential),
    "expshift": (("v0", "a", "b"), potentials.exponential),
    "rect": (("v0", "w"), lambda v0, w: potentials.rectangular(v0, w / 2.0)),
    "free": ((), potentials.free),
}


def parse_model(text: str, overrides: Optional[dict[str, float]] = None) -> PotentialModel:
    """Model descriptor grammar.

    exp:v0=<f>,a=<f> | expshift:v0=<f>,a=<f>,b=<f> | rect:v0=<f>,w=<f> | free
    where w is the full width of the rectangular region.  ``overrides`` (the
    --v0/--a flags) replace descriptor fields before the model is built; a
    field the model lacks is refused.
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
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(names))
    if unknown:
        raise UsageError(f"flags {unknown} do not apply to the {head!r} model")
    try:
        return build(**{**fields, **overrides})
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Compute every row; failures mark their row instead of aborting."""
    rows = []
    for energy in spec.energies():
        rows.append(_sweep_row(spec, float(energy)))
    return rows


def _sweep_row(spec: SweepSpec, energy: float) -> SweepRow:
    q = None
    dimless = None
    if spec.model.kind == "exponential":
        v0_eff, a = potentials.effective_exponential(spec.model)
        params = PhysicalParams(
            v0=v0_eff, a=a, mass=spec.units.mass, hbar=spec.units.hbar
        )
        dimless = exp_barrier.reduce_params(params, energy)
        q = dimless.q

    cells = dict(
        t_analytic=None, r_analytic=None, t_numeric=None, r_numeric=None,
        phi_left=None, theta_left=None, phi_right=None, theta_right=None,
        flux_imbalance=None, wronskian_drift=None,
    )
    try:
        if spec.methods in ("analytic", "both"):
            cells["t_analytic"], cells["r_analytic"] = exp_barrier.transmission_reflection(q)
            if spec.sides in ("left", "both"):
                phi, theta, _, _ = exp_barrier.phase_shifts(dimless.p, q, "left")
                cells["phi_left"], cells["theta_left"] = phi, theta
            if spec.sides in ("right", "both"):
                phi, theta, _, _ = exp_barrier.phase_shifts(dimless.p, q, "right")
                cells["phi_right"], cells["theta_right"] = phi, theta
        if spec.methods in ("numeric", "both"):
            sides = ("left", "right") if spec.sides == "both" else (spec.sides,)
            config = numeric_scatter.default_config(spec.model, spec.units)
            basis = numeric_scatter.integrate_basis(spec.model, energy, config, spec.units)
            results = [numeric_scatter.match(basis, s) for s in sides]
            cells["t_numeric"] = results[0].t_coeff
            cells["r_numeric"] = results[0].r_coeff
            cells["flux_imbalance"] = max(r.flux_imbalance for r in results)
            cells["wronskian_drift"] = max(r.wronskian_drift for r in results)
            for s, result in zip(sides, results):
                # analytic phases take precedence when both methods run
                if cells[f"phi_{s}"] is None:
                    cells[f"phi_{s}"] = result.phi
                    cells[f"theta_{s}"] = result.theta
        return SweepRow(energy=energy, q=q, **cells)
    except (DomainError, AccuracyError) as exc:
        blank = {key: None for key in cells}
        return SweepRow(energy=energy, q=q, error=str(exc), **blank)


def format_sweep_csv(spec: SweepSpec, rows: Sequence[SweepRow]) -> str:
    lines = [f"# hbar={spec.units.hbar:g} mass={spec.units.mass:g}", SWEEP_HEADER]
    for row in rows:
        cells = [
            _cell(row.energy), _cell(row.q),
            _cell(row.t_analytic), _cell(row.r_analytic),
            _cell(row.t_numeric), _cell(row.r_numeric),
            _cell(row.phi_left), _cell(row.theta_left),
            _cell(row.phi_right), _cell(row.theta_right),
            _cell(row.flux_imbalance), _cell(row.wronskian_drift),
        ]
        lines.append(",".join(cells))
        if row.error is not None:
            lines.append(f"# row-error: E={row.energy:.16e} {row.error}")
    return "\n".join(lines) + "\n"


def parse_sweep_table(lines: Sequence[str]) -> list[dict[str, Optional[float]]]:
    """Parse what format_sweep_csv emits; errors carry 1-based line numbers."""
    names = SWEEP_HEADER.split(",")
    rows = []
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if not header_seen:
            if line != SWEEP_HEADER:
                raise UsageError(f"line {lineno}: expected sweep header, got {line!r}")
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise UsageError(
                f"line {lineno}: expected {len(names)} cells, got {len(cells)}"
            )
        row: dict[str, Optional[float]] = {}
        for name, cell in zip(names, cells):
            if cell == "NA":
                row[name] = None
                continue
            try:
                row[name] = float(cell)
            except ValueError:
                raise UsageError(f"line {lineno}: bad number {cell!r} in column {name}") from None
        rows.append(row)
    if not header_seen:
        raise UsageError("line 1: input has no sweep header")
    return rows


def render_sweep_chart(table: list[dict[str, Optional[float]]], log_x: bool) -> str:
    """Chart of T and R over E, preferring analytic cells, else numeric."""
    energies, t_vals, r_vals = [], [], []
    for row in table:
        if row["E"] is None:
            continue
        energies.append(row["E"])
        t_vals.append(row["T_analytic"] if row["T_analytic"] is not None else row["T_numeric"])
        r_vals.append(row["R_analytic"] if row["R_analytic"] is not None else row["R_numeric"])
    have_data = any(v is not None for v in t_vals) or any(v is not None for v in r_vals)
    if not energies or not have_data:
        raise UsageError("empty data region: no plottable rows in the input table")
    try:
        return chart.render_probability_chart(energies, t_vals, r_vals, log_x=log_x)
    except DomainError as exc:
        raise UsageError(str(exc)) from None


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
    wave.add_argument("--n", type=int, default=201)
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
    sub.add_argument("--v0", type=float, default=None, help="override the model's v0")
    sub.add_argument("--a", type=float, default=None, help="override the model's a")
    sub.add_argument("--hbar", type=float, default=1.0)
    sub.add_argument("--mass", type=float, default=0.5)


def _resolve_model(args) -> PotentialModel:
    flags = {"v0": args.v0, "a": args.a}
    return parse_model(args.model, {k: v for k, v in flags.items() if v is not None})


def _resolve_units(args) -> PhysicalParams:
    try:
        return PhysicalParams(v0=1.0, a=1.0, mass=args.mass, hbar=args.hbar)
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        model=_resolve_model(args),
        e_min=args.emin,
        e_max=args.emax,
        n_points=args.n,
        spacing=args.spacing,
        sides=args.side,
        methods=args.method,
        units=_resolve_units(args),
    )
    rows = run_sweep(spec)
    _emit(format_sweep_csv(spec, rows), args.out)
    if all(row.error is not None for row in rows):
        print("error: every sweep row failed", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    results = verification.run_all()
    _emit(verification.format_report(results) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 3


def cmd_wavefunction(args) -> int:
    model = _resolve_model(args)
    units = _resolve_units(args)
    exp_family = model.kind == "exponential"
    method = args.method or ("analytic" if exp_family else "numeric")
    if method == "analytic" and not exp_family:
        raise UsageError(f"analytic wavefunction is not defined for the {model.kind!r} model")
    if not (args.xmin < args.xmax):
        raise UsageError(f"need xmin < xmax, got {args.xmin!r}, {args.xmax!r}")
    if args.n < 2:
        raise UsageError(f"need at least 2 grid points, got {args.n}")
    if not (isinstance(args.energy, float) and math.isfinite(args.energy) and args.energy > 0):
        raise UsageError(f"energy must be finite and > 0, got {args.energy!r}")

    if method == "analytic":
        # v0_eff folds in the offset b: V(x) = -v0_eff exp(x/a)
        v0_eff, a = potentials.effective_exponential(model)
        params = PhysicalParams(v0=v0_eff, a=a, mass=units.mass, hbar=units.hbar)
        d = exp_barrier.reduce_params(params, args.energy)
        grid_xi = np.linspace(args.xmin, args.xmax, args.n) / a
        wave = exp_barrier.exact_wavefunction(d.p, d.q, args.side, grid_xi)
        incident = exp_barrier.incident_amplitude(d.p, d.q, args.side)
        psi = wave.psi / incident
        xs = grid_xi * a
        # exact_wavefunction fluxes use hbar/m = 1 and d/d(x/a)
        flux_scale = units.hbar / (units.mass * a * abs(incident) ** 2)
        flux_vals = wave.flux_profile * flux_scale
    else:
        # the default window, grown to cover [xmin, xmax]
        base = numeric_scatter.default_config(model, units)
        config = replace(
            base, x_left=min(base.x_left, args.xmin), x_right=max(base.x_right, args.xmax)
        )
        basis = numeric_scatter.integrate_basis(model, args.energy, config, units)
        result = numeric_scatter.match(basis, args.side)
        wave = numeric_scatter.scattering_wavefunction(basis, result)
        # snap the requested grid to integration nodes; x reports the node
        request = np.linspace(args.xmin, args.xmax, args.n)
        idx = np.unique(np.searchsorted(wave.grid, request).clip(0, wave.grid.size - 1))
        xs = wave.grid[idx]
        psi = wave.psi[idx]
        flux_vals = wave.flux_profile[idx]

    lines = [f"# hbar={units.hbar:g} mass={units.mass:g}", WAVE_HEADER]
    for x, value, j in zip(xs, psi, flux_vals):
        lines.append(
            ",".join(
                (
                    _cell(float(x)),
                    _cell(float(value.real)),
                    _cell(float(value.imag)),
                    _cell(abs(value)),
                    _cell(float(j)),
                )
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_plot(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read {args.input!r}: {exc}") from None
    table = parse_sweep_table(lines)
    svg = render_sweep_chart(table, log_x=(args.spacing == "log"))
    _emit(svg, args.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "sweep": cmd_sweep,
            "verify": cmd_verify,
            "wavefunction": cmd_wavefunction,
            "plot": cmd_plot,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SeriesRangeError, AccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cell(value: Optional[float]) -> str:
    if value is None:
        return "NA"
    return f"{value:.16e}"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


if __name__ == "__main__":
    sys.exit(main())
