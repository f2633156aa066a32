"""Potential catalog: constructors, evaluation, the exponential offset."""

import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest

from expscatter import cli, numeric_scatter, potentials
from expscatter.errors import DomainError


class TestConstructors:
    def test_exponential_fields(self):
        m = potentials.exponential(2.0, 0.5)
        assert type(m) is potentials.Exponential
        assert [f.name for f in dataclasses.fields(m)] == ["v0", "a"]
        assert m.v0 == 2.0 and m.a == 0.5

    def test_rectangular_fields(self):
        m = potentials.rectangular(-1.5, 0.25)
        assert type(m) is potentials.Rectangular
        assert [f.name for f in dataclasses.fields(m)] == ["v0", "half_width"]
        assert m.v0 == -1.5 and m.half_width == 0.25

    def test_tail_and_jumps(self):
        # the two facts about V the numeric lane reads besides V: the
        # exponential fades over a to the left and never jumps; a rectangle
        # jumps at its edges and is flat off them
        exp = potentials.exponential(2.0, 0.7, 1.3)
        assert exp.tail == 0.7 and exp.jumps == ()
        xs = np.linspace(-10.0, 2.0, 13)
        np.testing.assert_allclose(potentials.evaluate(exp, xs),
                                   potentials.evaluate(exp, 0.0) * np.exp(xs / exp.tail),
                                   rtol=1e-14)
        rect = potentials.rectangular(-3.0, 0.2)
        assert rect.tail == math.inf and rect.jumps == (-0.2, 0.2)
        assert potentials.free().tail == math.inf and potentials.free().jumps == (-3.0, 3.0)
        left, right = rect.jumps
        before = [float(np.nextafter(left, -math.inf)), float(np.nextafter(right, math.inf))]
        assert potentials.evaluate(rect, np.array([left, right])).tolist() == [-3.0, -3.0]
        assert potentials.evaluate(rect, np.array(before)).tolist() == [0.0, 0.0]

    def test_positive_scale_required(self):
        with pytest.raises(DomainError):
            potentials.exponential(1.0, 0.0)
        with pytest.raises(DomainError):
            potentials.exponential(-1.0, 1.0)
        with pytest.raises(DomainError):
            potentials.rectangular(1.0, -0.5)

    @pytest.mark.parametrize("a", [1e155, 1e200, 1e-200])
    def test_rejects_unrepresentable_square_of_range(self, a):
        # both lanes square a; a^2 must neither overflow nor vanish
        with pytest.raises(DomainError, match="a\\^2 must be a finite float > 0"):
            potentials.exponential(1.0, a)
        assert potentials.exponential(1.0, 1e154).a == 1e154

    def test_rectangular_signed_height(self):
        barrier = potentials.rectangular(1.0, 1.0)
        well = potentials.rectangular(-1.0, 1.0)
        assert potentials.evaluate(barrier, 0.0) == 1.0
        assert potentials.evaluate(well, 0.0) == -1.0


class TestEvaluate:
    def test_exponential_values(self):
        m = potentials.exponential(1.0, 1.0)
        assert potentials.evaluate(m, 0.0) == pytest.approx(-1.0)
        assert potentials.evaluate(m, 1.0) == pytest.approx(-math.e)
        assert potentials.evaluate(m, -50.0) == pytest.approx(0.0, abs=1e-20)

    def test_shift_is_translation(self):
        base = potentials.exponential(1.0, 2.0)
        shifted = potentials.exponential(1.0, 2.0, 3.0)
        xs = np.linspace(-5.0, 5.0, 11)
        np.testing.assert_allclose(
            potentials.evaluate(shifted, xs + 3.0),
            potentials.evaluate(base, xs),
            rtol=1e-15,
        )

    def test_rectangular_support(self):
        m = potentials.rectangular(2.0, 1.5)
        xs = np.array([-2.0, -1.5, 0.0, 1.5, 2.0])
        np.testing.assert_array_equal(
            potentials.evaluate(m, xs), [0.0, 2.0, 2.0, 2.0, 0.0]
        )

    def test_free_is_zero(self):
        m = potentials.free()
        assert potentials.evaluate(m, 123.0) == 0.0

    def test_scalar_in_scalar_out(self):
        m = potentials.exponential(1.0, 1.0)
        out = potentials.evaluate(m, 0.5)
        assert isinstance(out, float)

    def test_far_right_overflows_quietly_to_inf(self):
        # the divergence is real; evaluate falls through to IEEE -inf with
        # no warning, and the solver refuses non-finite grids downstream
        m = potentials.exponential(1.0, 1.0)
        out = potentials.evaluate(m, np.array([1e5]))
        assert out[0] == -math.inf


class TestOffsetFold:
    def test_shift_folds_into_strength(self):
        # v0 e^{(x-b)/a} = (v0 e^{-b/a}) e^{x/a}
        m = potentials.exponential(2.0, 1.0, 1.0)
        assert m == potentials.Exponential(2.0 * math.exp(-1.0), 1.0)

    def test_zero_offset_is_exact(self):
        # b = 0 must leave v0 and every sample bit-for-bit unchanged
        for b in (0.0, -0.0, 0):
            m = potentials.exponential(0.7, 1.3, b)
            assert m == potentials.Exponential(0.7, 1.3)
            xs = np.linspace(-30.0, 5.0, 101)
            np.testing.assert_array_equal(potentials.evaluate(m, xs), -0.7 * np.exp(xs / 1.3))

    @pytest.mark.parametrize("b", [-800.0, 1e308, math.inf, math.nan])
    def test_rejects_unrepresentable_depth(self, b):
        # v0 e^{-b/a} overflows (b = -800) or underflows to 0 (b = 1e308)
        with pytest.raises(DomainError, match="offset b"):
            potentials.exponential(1.0, 1.0, b)


class TestUnits:
    @pytest.mark.parametrize(
        "mass, hbar, message",
        [
            (-1.0, 1.0, "mass must be finite and > 0, got -1.0"),
            (0.0, 1.0, "mass must be finite and > 0, got 0.0"),
            (math.inf, 1.0, "mass must be finite and > 0, got inf"),
            (0.5, math.nan, "hbar must be finite and > 0, got nan"),
            (0.5, 1e200, "hbar = 1e+200 is out of range: hbar^2 must be a finite float > 0"),
            (0.5, 1e-200, "hbar = 1e-200 is out of range: hbar^2 must be a finite float > 0"),
        ],
    )
    def test_refuses_with_the_flag_messages(self, mass, hbar, message):
        # the CLI prints these for a bad --mass or --hbar
        with pytest.raises(DomainError) as info:
            potentials.Units(mass=mass, hbar=hbar)
        assert str(info.value) == message


@pytest.mark.parametrize("module", [potentials, numeric_scatter, cli], ids=lambda m: m.__name__)
def test_no_model_kind_is_read(module):
    # a model is its record type: no code branches on a kind attribute
    tree = ast.parse(inspect.getsource(module))
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert reads == []
