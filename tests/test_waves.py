"""Shared wave utilities: angle arithmetic."""

import math

import numpy as np
import pytest

from expscatter import waves


class TestAngles:
    def test_principal_range(self):
        for theta in (-10.0, -math.pi, 0.0, math.pi, 10.0, 123.456):
            out = waves.principal_angle(theta)
            assert -math.pi < out <= math.pi
            # same angle mod 2 pi
            assert abs(math.remainder(out - theta, 2.0 * math.pi)) < 1e-12

    def test_pi_maps_to_positive_pi(self):
        assert waves.principal_angle(math.pi) == pytest.approx(math.pi)
        assert waves.principal_angle(-math.pi) == pytest.approx(math.pi)

    def test_array_and_scalar_bits_match_remainder(self):
        # the exact representative in (-pi, pi], bit for bit: both ends,
        # odd multiples of pi, round-half-even ties of angle / 2 pi, zeros
        def by_remainder(angle):
            r = math.remainder(angle, waves.TWO_PI)
            return r + waves.TWO_PI if r <= -math.pi else r

        rng = np.random.default_rng(11)
        angles = [k * math.pi for k in range(-41, 42)]
        angles += [(k + 0.5) * waves.TWO_PI for k in range(-50, 50)]
        angles += [math.pi, -math.pi, math.nextafter(math.pi, 4.0),
                   math.nextafter(-math.pi, -4.0), 0.0, -0.0, -waves.TWO_PI, 1e300, 5e-324]
        angles += rng.uniform(-1e3, 1e3, 20000).tolist() + rng.uniform(-8, 8, 20000).tolist()
        want = [by_remainder(a).hex() for a in angles]
        scalar = [waves.principal_angle(a) for a in angles]
        assert all(type(s) is float for s in scalar)
        assert [s.hex() for s in scalar] == want
        assert [a.hex() for a in waves.principal_angle(np.array(angles)).tolist()] == want

    def test_angle_distance_wraps(self):
        assert waves.angle_distance(0.1, 2.0 * math.pi + 0.1) < 1e-12
        assert waves.angle_distance(-math.pi / 2, 3.0 * math.pi / 2) < 1e-12
        assert waves.angle_distance(0.0, math.pi) == pytest.approx(math.pi)
