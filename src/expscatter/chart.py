"""Hand-rolled SVG chart for transmission/reflection sweeps.

No plotting dependency: the output must be byte-identical across reruns,
which rules out libraries that embed ids, timestamps, or version strings.
The picture is two curves over energy with a log or linear abscissa.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError

_WIDTH, _HEIGHT = 720.0, 480.0
_ML, _MR, _MT, _MB = 76.0, 24.0, 28.0, 64.0
_PLOT_W = _WIDTH - _ML - _MR
_PLOT_H = _HEIGHT - _MT - _MB
_T_COLOR = "#1f6fb4"
_R_COLOR = "#c23b22"
# polyline points per %: one % over a 3,000-point polyline kept its 6,000
# floats alive at once and raised peak RSS by about 0.5 MB
_BLOCK = 256


def render_probability_chart(
    energies: Sequence[float],
    t_values: Sequence[Optional[float]],
    r_values: Sequence[Optional[float]],
    log_x: bool = True,
) -> str:
    """SVG text with exactly two polylines (T first, then R) over energy.

    None or non-finite samples are dropped from their polyline only; the
    energy axis spans every energy given, plotted or not, so every energy
    must be finite.
    """
    if not (len(energies) == len(t_values) == len(r_values)):
        raise DomainError("energies, t_values, r_values must have equal length")
    if len(energies) == 0:
        raise DomainError("nothing to plot")
    xs = [float(e) for e in energies]
    for x in xs:
        if not math.isfinite(x):
            raise DomainError(f"energies must be finite, got {x!r}")
    if log_x and any(x <= 0.0 for x in xs):
        raise DomainError("log axis needs all energies > 0")

    # each energy's axis coordinate, and its pixel column, once for both
    # curves; numpy forms each pixel by the scalar formula's IEEE operations
    # in the same order, so to the same bits
    coords = [math.log10(x) for x in xs] if log_x else xs
    lo, hi = min(coords), max(coords)
    if not math.isfinite(hi - lo):
        raise DomainError(f"energies {lo!r} and {hi!r} are too far apart: their span overflows")
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    columns = _ML + (np.array(coords) - lo) / (hi - lo) * _PLOT_W

    def points(vals: Sequence[Optional[float]]) -> str:
        # None reads as nan, and non-finite samples are dropped; y clamped
        # to [0, 1], then to its pixel row; one % per block of points, so
        # only one block's floats are alive at once
        ys = np.array(vals, dtype=float)
        kept = np.isfinite(ys)
        xy = np.stack([columns[kept], _MT + (1.0 - np.clip(ys[kept], 0.0, 1.0)) * _PLOT_H], 1)
        blocks = [xy[i:i + _BLOCK].ravel() for i in range(0, len(xy), _BLOCK)]
        return " ".join([" ".join(["%.2f,%.2f"] * (block.size // 2)) % tuple(block.tolist())
                         for block in blocks])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="#ffffff"/>',
        '<g font-family="sans-serif" font-size="13" fill="#222222">',
    ]

    x0, x1 = _ML, _ML + _PLOT_W
    y0, y1 = _MT, _MT + _PLOT_H
    parts.append(
        f'<path d="M {x0:.2f} {y0:.2f} L {x0:.2f} {y1:.2f} L {x1:.2f} {y1:.2f}" '
        'fill="none" stroke="#222222" stroke-width="1"/>'
    )

    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yy = _MT + (1.0 - frac) * _PLOT_H
        parts.append(
            f'<line x1="{x0 - 5:.2f}" y1="{yy:.2f}" x2="{x0:.2f}" y2="{yy:.2f}" '
            'stroke="#222222" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 9:.2f}" y="{yy + 4:.2f}" text-anchor="end">{frac:g}</text>'
        )

    for tick, label in _x_ticks(lo, hi, log_x):
        xx = _ML + (tick - lo) / (hi - lo) * _PLOT_W
        parts.append(
            f'<line x1="{xx:.2f}" y1="{y1:.2f}" x2="{xx:.2f}" y2="{y1 + 5:.2f}" '
            'stroke="#222222" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{y1 + 20:.2f}" text-anchor="middle">{label}</text>'
        )

    parts.append(
        f'<text x="{_ML + _PLOT_W / 2:.2f}" y="{_HEIGHT - 18:.2f}" '
        'text-anchor="middle">E</text>'
    )
    parts.append(
        f'<text x="20" y="{_MT + _PLOT_H / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_MT + _PLOT_H / 2:.2f})">probability</text>'
    )

    parts.append(
        f'<polyline fill="none" stroke="{_T_COLOR}" stroke-width="1.8" '
        f'points="{points(t_values)}"/>'
    )
    parts.append(
        f'<polyline fill="none" stroke="{_R_COLOR}" stroke-width="1.8" '
        f'points="{points(r_values)}"/>'
    )

    lx = x0 + 12
    parts.append(
        f'<line x1="{lx:.2f}" y1="{_MT + 14:.2f}" x2="{lx + 26:.2f}" y2="{_MT + 14:.2f}" '
        f'stroke="{_T_COLOR}" stroke-width="1.8"/>'
    )
    parts.append(f'<text x="{lx + 32:.2f}" y="{_MT + 18:.2f}">T</text>')
    parts.append(
        f'<line x1="{lx:.2f}" y1="{_MT + 32:.2f}" x2="{lx + 26:.2f}" y2="{_MT + 32:.2f}" '
        f'stroke="{_R_COLOR}" stroke-width="1.8"/>'
    )
    parts.append(f'<text x="{lx + 32:.2f}" y="{_MT + 36:.2f}">R</text>')

    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _x_ticks(lo: float, hi: float, log_x: bool) -> list[tuple[float, str]]:
    """Tick positions in transformed coordinates with their labels."""
    if log_x:
        ticks = []
        for d in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1):
            ticks.append((float(d), _fmt_pow10(d)))
        if len(ticks) >= 2:
            return ticks
    span = hi - lo
    ticks = []
    for i in range(5):
        t = lo + span * i / 4.0
        label = f"{10.0 ** t:.3g}" if log_x else f"{t:.3g}"
        ticks.append((t, label))
    return ticks


def _fmt_pow10(d: int) -> str:
    if -3 <= d <= 3:
        return f"{10.0 ** d:g}"
    return f"1e{d:d}"
