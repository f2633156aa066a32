"""Potential catalog: constructors, evaluation, the exponential offset."""

import math

import numpy as np
import pytest

from expscatter import potentials
from expscatter.errors import DomainError


class TestConstructors:
    def test_exponential_fields(self):
        m = potentials.exponential(2.0, 0.5)
        assert m.kind == "exponential"
        assert m.v0 == 2.0 and m.a == 0.5 and m.b == 0.0

    def test_positive_scale_required(self):
        with pytest.raises(DomainError):
            potentials.exponential(1.0, 0.0)
        with pytest.raises(DomainError):
            potentials.exponential(-1.0, 1.0)
        with pytest.raises(DomainError):
            potentials.rectangular(1.0, -0.5)

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


class TestEffectiveExponential:
    def test_shift_folds_into_strength(self):
        # v0 e^{(x-b)/a} = (v0 e^{-b/a}) e^{x/a}
        m = potentials.exponential(2.0, 1.0, 1.0)
        v0_eff, a = potentials.effective_exponential(m)
        assert v0_eff == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)
        assert a == 1.0

    def test_zero_offset_is_exact(self):
        # b = 0 must leave v0 and every sample bit-for-bit unchanged
        m = potentials.exponential(0.7, 1.3)
        assert potentials.effective_exponential(m) == (0.7, 1.3)
        xs = np.linspace(-30.0, 5.0, 101)
        np.testing.assert_array_equal(potentials.evaluate(m, xs), -0.7 * np.exp(xs / 1.3))

    @pytest.mark.parametrize("b", [-800.0, 1e308, math.inf, math.nan])
    def test_rejects_unrepresentable_depth(self, b):
        # v0 e^{-b/a} overflows (b = -800) or underflows to 0 (b = 1e308)
        with pytest.raises(DomainError, match="offset b"):
            potentials.exponential(1.0, 1.0, b)
