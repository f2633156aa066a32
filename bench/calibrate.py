"""Machine-speed calibration: a fixed kernel timed next to the program.

The benchmark shares a few cores of a host whose speed for this process
drifts by +-25% over tens of seconds to minutes, in wall and CPU time
alike, so raw times of the same code differ between runs by more than the
bounds allow.  The kernel below is fixed code of the benchmark's own,
never of the package: a pure-Python RK4 march over a list (the program's
hot loop), float formatting (its CSV writer) and a few numpy array passes.
It runs after every timed op, long enough to take about SHARE of the op's
time; each pass's times are divided by the pass's mean kernel time and
multiplied by REFERENCE_S, which gives seconds at the reference speed.  A change to the program moves the scaled times as it
moves the raw ones, while a slow phase of the machine moves the kernel too.
The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# kernel time on a 2-CPU Xeon at 2.1 GHz, Python 3.11, numpy 2.4, in its
# fast phase: times are reported as if the machine always ran at that speed
REFERENCE_S = 0.015
# calibration time after an op, as a share of the op's own time
SHARE = 0.1

_STEPS = 16000


def kernel() -> float:
    """The fixed work; returns a value computed from all of it."""
    g = [0.5 * math.sin(1e-3 * i) - 1.0 for i in range(3 * _STEPS)]
    u, du, h = 0.0, 1.0, 1e-3
    for i in range(_STEPS):
        g0, g1, g2 = g[3 * i], g[3 * i + 1], g[3 * i + 2]
        k1u, k1d = du, g0 * u
        k2u, k2d = du + 0.5 * h * k1d, g1 * (u + 0.5 * h * k1u)
        k3u, k3d = du + 0.5 * h * k2d, g1 * (u + 0.5 * h * k2u)
        k4u, k4d = du + h * k3d, g2 * (u + h * k3u)
        u += h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        du += h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    text = ",".join(f"{x:.9e}" for x in g[:1500])
    x = np.linspace(0.0, 1.0, 60000)
    y = np.cumsum(np.exp(-x) * np.sin(40.0 * x))
    return u + len(text) + float(y[-1])


def measure() -> float:
    """Seconds of one kernel run."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def after(seconds: float) -> list[float]:
    """Kernel times of enough runs to take about SHARE of `seconds`; at least one."""
    return [measure() for _ in range(max(1, round(SHARE * seconds / REFERENCE_S)))]


def speed(repeats: int = 5) -> float:
    """Median kernel time over `repeats` runs, after one untimed run."""
    kernel()
    return statistics.median(measure() for _ in range(repeats))
