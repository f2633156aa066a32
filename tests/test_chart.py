"""SVG chart rendering: structure, determinism, and input validation."""

import math
import re

import numpy as np
import pytest

from expscatter import chart
from expscatter.errors import DomainError


def render(**kwargs):
    energies = [0.1, 0.5, 1.0, 2.0]
    t_vals = [0.2, 0.6, 0.9, 0.99]
    r_vals = [0.8, 0.4, 0.1, 0.01]
    return chart.render_probability_chart(energies, t_vals, r_vals, **kwargs)


class TestStructure:
    def test_exactly_two_series(self):
        svg = render(log_x=True)
        assert svg.count("<polyline") == 2
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.endswith("\n")

    def test_axis_labels_present(self):
        svg = render(log_x=False)
        assert ">E<" in svg
        assert "probability" in svg

    def test_deterministic(self):
        assert render(log_x=True) == render(log_x=True)

    def test_missing_samples_break_polyline(self):
        svg = chart.render_probability_chart(
            [0.1, 0.5, 1.0], [0.2, None, 0.9], [0.8, 0.4, 0.1], log_x=False
        )
        assert svg.count("<polyline") == 2

    def test_clips_outside_unit_interval(self):
        svg = chart.render_probability_chart(
            [0.1, 1.0], [1.5, 0.5], [-0.2, 0.4], log_x=False
        )
        assert svg.count("<polyline") == 2
        # 1.5 is drawn at the top (y = 1), -0.2 at the bottom (y = 0)
        assert re.findall(r'points="([^"]*)"', svg) == ["76.00,28.00 696.00,222.00",
                                                         "76.00,416.00 696.00,260.80"]


def per_point_polylines(energies, t_values, r_values, log_x):
    """The points of both polylines as the per-point formatter wrote them:
    one f-string per pixel column, one % per point."""
    coords = [math.log10(e) for e in energies] if log_x else list(energies)
    lo, hi = min(coords), max(coords)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    cells = [f"{76.0 + (c - lo) / (hi - lo) * 620.0:.2f}" for c in coords]
    return [" ".join(["%s,%.2f" % (cell, 28.0 + (1.0 - min(max(y, 0.0), 1.0)) * 388.0)
                      for cell, y in zip(cells, vals) if y is not None and math.isfinite(y)])
            for vals in (t_values, r_values)]


class TestPolylineBytes:
    @pytest.mark.parametrize("log_x", [True, False])
    def test_matches_the_per_point_formatter(self, log_x):
        # None, nan and inf cells dropped, cells clamped from both sides,
        # -0.0 and the smallest subnormal, on a log and a linear axis
        rng = np.random.default_rng(37)
        for n in (1, 2, 7, 300, 3000):
            energies = np.sort(10.0 ** rng.uniform(-6.0, 6.0, n)).tolist()
            if not log_x:
                energies = rng.uniform(-1e3, 1e3, n).tolist()
            t_values = rng.uniform(-0.5, 1.5, n).tolist()
            t_values[:9] = [None, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.5, -0.2,
                            1.0 - 2.0**-53][:n]
            r_values = t_values[::-1]
            svg = chart.render_probability_chart(energies, t_values, r_values, log_x=log_x)
            assert re.findall(r'points="([^"]*)"', svg) == per_point_polylines(
                energies, t_values, r_values, log_x)

    def test_one_energy_and_equal_energies(self):
        for energies in ([2.0], [3.0, 3.0, 3.0]):
            values = [0.5, None, 0.25][:len(energies)]
            for log_x in (True, False):
                svg = chart.render_probability_chart(energies, values, values, log_x=log_x)
                assert re.findall(r'points="([^"]*)"', svg) == per_point_polylines(
                    energies, values, values, log_x)


class TestAxis:
    def test_axis_spans_unplotted_energies(self):
        # E = 0.01 has neither T nor R: it draws no point, yet the energy
        # axis starts there, so the first plotted point leaves the left edge
        def first_points(svg):
            return [line.split(" ")[0] for line in re.findall(r'points="([^"]*)"', svg)]

        assert first_points(render(log_x=True)) == ["76.00,338.40", "76.00,105.60"]
        svg = chart.render_probability_chart(
            [0.01, 0.1, 0.5, 1.0, 2.0], [None, 0.2, 0.6, 0.9, 0.99],
            [math.nan, 0.8, 0.4, 0.1, 0.01], log_x=True)
        assert first_points(svg) == ["345.44,338.40", "345.44,105.60"]
        assert ">0.01</text>" in svg


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            chart.render_probability_chart([1.0], [0.5, 0.6], [0.5], log_x=False)

    def test_empty_input(self):
        with pytest.raises(DomainError):
            chart.render_probability_chart([], [], [], log_x=False)

    def test_log_axis_needs_positive_energies(self):
        with pytest.raises(DomainError):
            chart.render_probability_chart([0.0, 1.0], [0.5, 0.6], [0.5, 0.4], log_x=True)
