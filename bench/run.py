"""The expscatter benchmark: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload sweep-numeric --seed 1 --seconds 20 --trace 0

A closed loop with one client: every op calls `expscatter.cli.main(argv)`
in this process and finishes before the next starts.  The seed generates
the argv lists (bench/workloads.py); every output goes through the oracle
(bench/oracle.py).  The run repeats whole passes over the op list until
`--seconds` of measured time has passed.  A fixed calibration kernel
(bench/calibrate.py) runs after every op, for about a tenth of its time,
and times are reported scaled to its reference speed, so the machine's
drifting speed cancels out.

`--trace 0` reports the end-to-end metrics.  `--trace 1` traces the
second pass and reports the per-layer metrics from it (bench/layertrace.py)
plus the tracing overhead against the untraced passes.  The last line of
stdout is the JSON result; the full record, with the machine and the argv
of every op, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import calibrate
import layertrace
import oracle
from workloads import WORK_DIR, WORKLOADS

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
RESULTS_DIR = BENCH / "results"


class Setup:
    """Cold import of the package, input generation and one warm-up op.

    `seconds` is the raw set-up time; `calib` is the calibration kernel's
    time measured right after it, in the same fresh process.
    """

    def __init__(self, workload: str, seed: int):
        src = ROOT / "src"
        if not (src / "expscatter" / "__init__.py").is_file():
            raise SystemExit(f"error: no package source at {src / 'expscatter'}")
        sys.path.insert(0, str(src))
        # one thread: numpy reads these when it is first imported, just below
        os.environ.update({var: "1" for var in THREAD_VARS})
        t0 = time.perf_counter()
        import expscatter.cli
        t1 = time.perf_counter()
        package = pathlib.Path(sys.modules["expscatter"].__file__).resolve()
        if src.resolve() not in package.parents:
            raise SystemExit(f"error: imported expscatter from {package}, not from {src}")
        self.cli = expscatter.cli
        self.ops = WORKLOADS[workload](seed)
        t2 = time.perf_counter()
        (ROOT / WORK_DIR).mkdir(parents=True, exist_ok=True)
        self.warm = texts(self.ops[0], run_op(self.cli, self.ops[0]))
        self.seconds = time.perf_counter() - t0
        self.parts = {"import_s": t1 - t0, "generate_s": t2 - t1, "warmup_s": self.seconds - (t2 - t0)}
        self.calib = calibrate.speed()


def run_op(cli, commands: list[list[str]]) -> list[tuple[int, str, str]]:
    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # an escaped exception is a contract failure, not a crash
                rc = -1
                err.write(f"uncaught {type(exc).__name__}: {exc}")
        results.append((rc, out.getvalue(), err.getvalue()))
    return results


def _written(argv: list[str], rc: int, out: str, err: str) -> str:
    """A command's output if it succeeded, else its error message."""
    if rc != 0:
        return err
    try:
        return oracle.read_out(argv, out)
    except oracle.ContractError as exc:  # already counted by the oracle
        return str(exc)


def texts(commands, results) -> list[str]:
    """Everything an op wrote, for the byte-identical rerun check."""
    return [oracle.mask_timings(_written(argv, *res)) for argv, res in zip(commands, results)]


def bytes_out(commands, results) -> int:
    return sum(len(_written(argv, *res).encode("utf-8"))
               for argv, res in zip(commands, results) if res[0] == 0)


class Loop:
    """Whole passes over the op list; outputs are checked after each pass.

    An untraced pass runs the calibration kernel after each op, outside the
    op's latency.  Each op is scaled by the mean kernel time of the runs
    just before and just after it (for the first op, set-up's own).
    """

    def __init__(self, setup: Setup, tracer=None):
        self.setup = setup
        self.tracer = tracer
        self.tally = oracle.Tally()
        self.latencies = []  # raw op latencies of the untraced passes
        self.scaled = []  # the same, scaled to the reference speed
        self.scaled_walls = []  # one per untraced pass
        self.calibs = []  # mean kernel time of each untraced pass
        self.kernel = [setup.calib]  # kernel times since the last op
        self.calib_s = 0.0
        self.walls = {False: [], True: []}
        self.ops_run = 0
        self.pass_bytes = 0
        self.deterministic = None

    def run_pass(self, traced: bool) -> None:
        ops, cli = self.setup.ops, self.setup.cli
        if traced:
            self.tracer.install()
        results, lat, scaled, kernel = [], [], [], []
        for commands in ops:
            if traced:
                self.tracer.op = self.ops_run
            self.ops_run += 1
            t = time.perf_counter()
            results.append(run_op(cli, commands))
            lat.append(time.perf_counter() - t)
            if not traced:
                before, self.kernel = self.kernel, calibrate.after(lat[-1])
                scaled.append(lat[-1] * calibrate.REFERENCE_S / statistics.fmean(before + self.kernel))
                kernel += self.kernel
        if traced:
            self.tracer.uninstall()
            kernel = self.kernel = calibrate.after(0.0)
        self.walls[traced].append(sum(lat))
        self.calib_s += sum(kernel)
        if not traced:
            self.latencies += lat
            self.scaled += scaled
            self.scaled_walls.append(sum(scaled))
            self.calibs.append(statistics.fmean(kernel))
        for commands, res in zip(ops, results):
            self.tally.check_op(commands, res)
        if self.deterministic is None:
            self.deterministic = texts(ops[0], results[0]) == self.setup.warm
            self.pass_bytes = sum(bytes_out(c, r) for c, r in zip(ops, results))

    def elapsed(self) -> float:
        return sum(self.walls[False]) + sum(self.walls[True]) + self.calib_s


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with 10 ops beyond it.

    That is the 11th slowest op, at percentile 100 (n - 10) / n.  It moves
    smoothly with the op count n, which varies with the machine's speed,
    where a fixed ladder of percentiles would jump between rungs.  With 20
    ops or fewer it would not be above the median, and the median is
    returned.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def setup_probes(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """(set-up time, kernel time) of `count` fresh interpreters, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()[-300:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((probe["setup_s"], probe["calib_s"]))
    return out


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "commit": commit,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def end_to_end(setup: list[tuple[float, float]], loop: Loop) -> tuple[dict, dict]:
    """(metrics, extra): the gated metrics and the raw times and accuracy figures printed beside them.

    Times are scaled to the calibration kernel's reference speed: an op by
    the kernel runs around it (see Loop), a set-up by the kernel time of
    its own process.
    """
    ref = calibrate.REFERENCE_S
    walls, latencies = loop.scaled_walls, loop.scaled
    pct, tail_s = tail(latencies)
    t = loop.tally
    metrics = {
        "setup_s": (statistics.median(sec * ref / calib for sec, calib in setup), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "cmd_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "cmd_tail_ms": (1e3 * tail_s, "ms"),
        "ok_rows_per_s": (t.ok_rows / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "setup_s_raw": (statistics.median(sec for sec, _ in setup), "s"),
        "wall_s_raw": (statistics.fmean(loop.walls[False]), "s"),
        "cmd_p50_ms_raw": (1e3 * statistics.median(loop.latencies), "ms"),
        "machine_slowdown": (statistics.median(loop.calibs) / ref, "x"),
        "cmd_tail_percentile": (pct, "%"),
        "cmd_tail_ops": (len(latencies), "count"),
        "failed_share": ((t.rows - t.ok_rows) / t.rows if t.rows else 0.0, "fraction"),
    }
    for key in ("max_dT_numeric", "max_flux_imbalance", "max_wronskian_drift", "max_flux_spread"):
        if key in t.worst:
            extra[key] = (t.worst[key], "1")
    return metrics, extra


def per_layer(loop: Loop, tracer: layertrace.Tracer) -> dict:
    names = layertrace.aggregate(tracer.spans)
    metrics = layertrace.layer_metrics(names)
    for check in oracle.VERIFY_CHECKS:
        metrics[f"verification.{check}.ms"] = (names.get(f"verification.{check}", {}).get("ms", 0.0), "ms")
    with open(BENCH / "refs" / "specfun_refs.json", encoding="utf-8") as handle:
        metrics.update(layertrace.specfun_errors(json.load(handle)))
    metrics["cli.bytes_out"] = (float(loop.pass_bytes), "bytes")
    metrics["trace.spans"] = (float(len(tracer.spans)), "count")
    metrics["trace.overhead_s"] = (loop.walls[True][0] - statistics.median(loop.walls[False]), "s")
    return metrics


def write_spans(path: pathlib.Path, spans: list, origin: float) -> None:
    """Tab-separated spans, one per line, times in seconds from the run start."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write("name\tstart_s\tend_s\tparent\top\tfailed\twork\tflat\tlabel\n")
        for name, t0, t1, parent, op, failed, work, flat, label in spans:
            handle.write(f"{name}\t{t0 - origin:.7f}\t{t1 - origin:.7f}\t{parent}\t{op}\t"
                         f"{int(failed)}\t{work}\t{flat}\t{label or ''}\n")


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              setup_repeats: int = SETUP_REPEATS, max_ops: int = 0) -> dict:
    """Run one workload and return the result record; max_ops > 0 trims the op list."""
    origin = time.perf_counter()
    setup = Setup(workload, seed)
    if max_ops:
        setup.ops = setup.ops[:max_ops]
    setup_s = [(setup.seconds, setup.calib)]
    if not trace:
        setup_s += setup_probes(workload, seed, setup_repeats - 1)
    tracer = layertrace.Tracer() if trace else None
    loop = Loop(setup, tracer)
    # in traced mode the second pass is the one traced pass; a closed-form
    # pass alone records about 270k spans
    while not (loop.walls[False] and (loop.walls[True] or not trace)) or loop.elapsed() < seconds:
        loop.run_pass(traced=trace and len(loop.walls[False]) == 1 and not loop.walls[True])

    t = loop.tally
    correct = t.failed_ops == 0 and bool(loop.deterministic)
    if not loop.deterministic:
        t.reasons["contract: op 0 output differs from its warm-up run"] += 1
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(),
        "setup": {"samples_s": [sec for sec, _ in setup_s], "calib_s": [c for _, c in setup_s],
                  "parent": setup.parts},
        "passes": {"untraced_s": loop.walls[False], "traced_s": loop.walls[True],
                   "scaled_s": loop.scaled_walls, "calib_s": loop.calibs},
        "ops": setup.ops,
        "rows": {"attempted": t.rows, "ok": t.ok_rows},
        "failures": dict(t.reasons.most_common()),
        "correct": correct, "attempted": t.ops, "failed": t.failed_ops,
    }
    if trace:
        record["metrics"] = per_layer(loop, tracer)
        RESULTS_DIR.mkdir(exist_ok=True)
        write_spans(RESULTS_DIR / f"{workload}.spans.tsv.gz", tracer.spans, origin)
    else:
        record["metrics"], record["extra"] = end_to_end(setup_s, loop)
    return record


def report(record: dict) -> None:
    m = record["machine"]
    print(f"# workload={record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    print(f"# nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} numpy={m['numpy']} "
          f"commit={m['commit']} " + " ".join(f"{k}={v}" for k, v in m["threads"].items()))
    print(f"# {len(record['ops'])} ops per pass; passes untraced={len(record['passes']['untraced_s'])} "
          f"traced={len(record['passes']['traced_s'])}; ops checked={record['attempted']} "
          f"contract failures={record['failed']}; rows={record['rows']['attempted']} "
          f"ok={record['rows']['ok']}")
    for name, (value, unit) in {**record["metrics"], **record.get("extra", {})}.items():
        print(f"{name:<52} {value:.6g} {unit}")
    for reason, count in record["failures"].items():
        print(f"# failed x{count}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.setup_probe:
        setup = Setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup.seconds, "calib_s": setup.calib}))
        return 0
    record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    report(record)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
