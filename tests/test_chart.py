"""SVG chart rendering: structure, determinism, and input validation."""

import math
import re

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
