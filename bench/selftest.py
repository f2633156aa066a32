"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Checks that the generator is a function of the seed, that the oracle's own
arg Gamma(1+iq) matches the frozen mpmath values, and that one op of every
workload, untraced and traced, passes the oracle and emits exactly the
metrics BENCHMARK.json names, with their units.  Exits 1 on the first
mismatch.
"""

from __future__ import annotations

import cmath
import json
import os
import sys

import oracle
import run
from workloads import WORKLOADS


def fail(message: str) -> None:
    print(f"selftest: FAIL {message}")
    raise SystemExit(1)


def main() -> int:
    os.chdir(run.ROOT)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from bench/workloads.py")

    for name, generate in WORKLOADS.items():
        if generate(7) != generate(7):
            fail(f"{name}: same seed gave different ops")
        if (generate(7) == generate(8)) != (name == "verify"):
            fail(f"{name}: seeds 7 and 8 should {'' if name == 'verify' else 'not '}give the same ops")

    with open(run.BENCH / "refs" / "specfun_refs.json", encoding="utf-8") as handle:
        for row in json.load(handle)["gamma"]:
            gap = oracle.angle_gap(oracle.arg_gamma_1_iq(row["q"]), cmath.phase(complex(*row["gamma"])))
            if gap > 1e-12:
                fail(f"oracle arg Gamma(1+{row['q']}i) off mpmath by {gap:.2e}")

    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            record = run.benchmark(name, seed=1, seconds=0.0, trace=trace, setup_repeats=1, max_ops=1)
            got = {metric: unit for metric, (_, unit) in record["metrics"].items()}
            if got != want:
                fail(f"{name} trace={int(trace)}: metrics differ from BENCHMARK.json {key}: "
                     f"{sorted(set(got.items()) ^ set(want.items()))[:4]}")
            if not record["correct"] or record["attempted"] < 1:
                fail(f"{name} trace={int(trace)}: {record['failures']}")
            print(f"selftest: {name} trace={int(trace)} ok ({record['attempted']} ops, {len(got)} metrics)")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
