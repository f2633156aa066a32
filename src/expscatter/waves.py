"""Sampled wavefunctions and probability flux.

The probability flux of a stationary state psi is

    J = (hbar/m) * Im(conj(psi) * dpsi/dx)

with the time convention psi * exp(-i E t / hbar), so positive flux means
rightward motion.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


class WaveSolution(NamedTuple):
    """A closed-form wavefunction sampled on an ascending grid.

    Attributes
    ----------
    grid : ndarray
        Sample positions, strictly ascending.
    psi : ndarray of complex
        Wavefunction values.
    dpsi : ndarray of complex
        Derivative of psi at the same positions.
    flux_profile : ndarray of float
        Probability flux at each sample, constant for a solution of the
        stationary equation.
    """

    grid: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    flux_profile: np.ndarray


def principal_angle(angle):
    """Reduce an angle, or an array of angles, to the interval (-pi, pi].

    fmod is exact and so is the one shift by 2 pi (Sterbenz), so every
    element comes out as the exact representative, the bits
    math.remainder would give.  Subtracting the shift keeps the sign of a
    zero.
    """
    fmod = np.fmod if isinstance(angle, np.ndarray) else math.fmod
    r = fmod(angle, TWO_PI)
    return r - (TWO_PI * (r > math.pi) - TWO_PI * (r <= -math.pi))


def angle_distance(a: float, b: float) -> float:
    """Distance between two angles modulo 2*pi, in [0, pi]."""
    return abs(math.remainder(a - b, TWO_PI))
