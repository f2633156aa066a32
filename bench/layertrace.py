"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces every public function of the package's modules
with a timing wrapper, in every module namespace that binds it (so
`numeric_scatter.reduce_params`, imported by name from `exp_barrier`, is
wrapped too), and `uninstall` puts the originals back.  Each call becomes
one span: name, start, end, parent span, op id, whether it raised, and a
work count taken at the boundary (RK4 nodes, potential samples, series
terms, wavefunction points, SVG bytes, flux points).  Spans stay in memory
until the run writes them out.

The layers are the package modules; `errors` has no behaviour.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = ("cli", "numeric_scatter", "potentials", "specfun", "exp_barrier", "waves", "chart", "verification")


# span name -> work count read off the result
_WORK = {
    "numeric_scatter.integrate_basis": lambda res: res.u.grid.size,
    "potentials.evaluate": lambda res: int(getattr(res, "size", 1)),
    "specfun.bessel_j_imag_order": lambda res: res.terms_used,
    "exp_barrier.exact_wavefunction": lambda res: res.grid.size,
    "chart.render_probability_chart": lambda res: len(res.encode("utf-8")),
    "waves.flux": lambda res: int(getattr(res, "size", 1)),
}


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self):
        self.modules = [importlib.import_module("expscatter")]
        self.modules += [importlib.import_module(f"expscatter.{name}") for name in LAYERS]
        self.evaluate = importlib.import_module("expscatter.potentials").evaluate
        self.spans = []  # [name, t0, t1, parent, op, failed, work, flat, label]
        self.op = -1
        self._stack = []
        self._depth = {}
        self._wrappers = {}
        self._saved = []

    def install(self) -> None:
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("expscatter.")):
                    continue
                if obj not in self._wrappers:
                    name = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
                    self._wrappers[obj] = self._wrap(obj, name)
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack, depth = self.spans, self._stack, self._depth
        work = _WORK.get(name)
        basis = name == "numeric_scatter.integrate_basis"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = depth.get(name, 0) == 0
            # work -1 marks a span nested in one of the same name: its time
            # is already inside the outer span's
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, 0 if outer else -1, 0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            depth[name] = depth.get(name, 0) + 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                depth[name] -= 1
            if work is not None and outer:
                span[6] = work(result)
            if basis:
                # nodes where the potential is already flat: |V| <= 1e-6 E
                v = self.evaluate(result.potential, result.u.grid)
                span[7] = int((abs(v) <= 1e-6 * result.energy).sum())
            if hasattr(result, "passed") and hasattr(result, "name"):
                span[8] = result.name
            return result

        return wrapper


def aggregate(spans: list) -> dict:
    """Per-name call counts, inclusive and self time, failures and work counts."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    names = {}
    for i, (name, t0, t1, _, _, failed, work, flat, label) in enumerate(spans):
        key = f"verification.{label}" if label else name
        agg = names.setdefault(key, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "failed": 0, "work": 0, "flat": 0})
        agg["calls"] += 1
        agg["self_ms"] += 1e3 * (t1 - t0 - child[i])
        agg["failed"] += failed
        if work >= 0:
            agg["ms"] += 1e3 * (t1 - t0)
            agg["work"] += work
            agg["flat"] += flat
    return names


def _get(names: dict, key: str, field: str) -> float:
    return names.get(key, {}).get(field, 0.0)


def layer_metrics(names: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from aggregated spans."""
    m = {}

    def put(metric, value, unit):
        m[metric] = (float(value), unit)

    ib = "numeric_scatter.integrate_basis"
    nodes, ms = _get(names, ib, "work"), _get(names, ib, "ms")
    put(f"{ib}.calls", _get(names, ib, "calls"), "count")
    put(f"{ib}.ms", ms, "ms")
    put(f"{ib}.nodes", nodes, "count")
    put(f"{ib}.nodes_per_s", nodes / (ms / 1e3) if ms else 0.0, "1/s")
    put(f"{ib}.flat_node_share", _get(names, ib, "flat") / nodes if nodes else 0.0, "fraction")
    put(f"{ib}.failed", _get(names, ib, "failed"), "count")
    for fn in ("match_hankel_basis", "match_plane_waves", "solve"):
        key = f"numeric_scatter.{fn}"
        put(f"{key}.calls", _get(names, key, "calls"), "count")
        put(f"{key}.ms", _get(names, key, "ms"), "ms")
        put(f"{key}.failed", _get(names, key, "failed"), "count")
    key = "numeric_scatter.scattering_wavefunction"
    put(f"{key}.calls", _get(names, key, "calls"), "count")
    put(f"{key}.ms", _get(names, key, "ms"), "ms")
    key = "potentials.evaluate"
    put(f"{key}.calls", _get(names, key, "calls"), "count")
    put(f"{key}.samples", _get(names, key, "work"), "count")
    put(f"{key}.ms", _get(names, key, "ms"), "ms")
    for fn in ("complex_gamma", "bessel_j_imag_order", "hankel_imag_order"):
        key = f"specfun.{fn}"
        put(f"{key}.calls", _get(names, key, "calls"), "count")
        put(f"{key}.ms", _get(names, key, "ms"), "ms")
    put("specfun.bessel_j_imag_order.terms", _get(names, "specfun.bessel_j_imag_order", "work"), "count")
    for fn in ("reduce_params", "transmission_reflection", "phase_shifts", "exact_wavefunction"):
        key = f"exp_barrier.{fn}"
        put(f"{key}.calls", _get(names, key, "calls"), "count")
        put(f"{key}.ms", _get(names, key, "ms"), "ms")
    put("exp_barrier.exact_wavefunction.points", _get(names, "exp_barrier.exact_wavefunction", "work"), "count")
    put("cli.main.self_ms", _get(names, "cli.main", "self_ms"), "ms")
    for fn in ("format_sweep_csv", "parse_sweep_table", "render_sweep_chart"):
        put(f"cli.{fn}.ms", _get(names, f"cli.{fn}", "ms"), "ms")
    key = "chart.render_probability_chart"
    put(f"{key}.calls", _get(names, key, "calls"), "count")
    put(f"{key}.ms", _get(names, key, "ms"), "ms")
    put(f"{key}.svg_bytes", _get(names, key, "work"), "bytes")
    put("waves.flux.calls", _get(names, "waves.flux", "calls"), "count")
    put("waves.flux.points", _get(names, "waves.flux", "work"), "count")
    put("waves.flux.ms", _get(names, "waves.flux", "ms"), "ms")
    for layer in LAYERS:
        own = sum(agg["self_ms"] for key, agg in names.items() if key.split(".", 1)[0] == layer)
        put(f"{layer}.self_ms", own, "ms")
    return m


def specfun_errors(refs: dict) -> dict:
    """Relative errors of the package's special functions on frozen references."""
    specfun = importlib.import_module("expscatter.specfun")
    by_z = {}
    for row in refs["bessel"]:
        q, z = row["q"], row["z"]
        got = {
            "j_plus": specfun.bessel_j_imag_order(q, z, sign=1).value,
            "j_minus": specfun.bessel_j_imag_order(q, z, sign=-1).value,
            "h1": specfun.hankel_imag_order(q, z, kind=1).value,
            "h2": specfun.hankel_imag_order(q, z, kind=2).value,
        }
        for key, value in got.items():
            ref = complex(*row[key])
            by_z[z] = max(by_z.get(z, 0.0), abs(value - ref) / abs(ref))
    gamma_err = 0.0
    for row in refs["gamma"]:
        ref = complex(*row["gamma"])
        gamma_err = max(gamma_err, abs(specfun.complex_gamma(complex(1.0, row["q"])) - ref) / abs(ref))
    out = {"specfun.series_max_rel_err": (max(by_z.values()), "rel")}
    for z, err in sorted(by_z.items()):
        out[f"specfun.series_max_rel_err.z{z:g}"] = (err, "rel")
    out["specfun.complex_gamma.max_rel_err"] = (gamma_err, "rel")
    return out
