"""Catalog of 1-D potentials the solver knows how to scatter off, and the
units both lanes share.

A model is a frozen record of just the fields its physics reads,
``Exponential(v0, a)`` or ``Rectangular(v0, half_width)``; ``evaluate``
returns V(x).  Each also states the two facts about V that the numeric lane
reads besides V: ``tail``, the length over which V's tail fades (infinite
where V is flat off its jumps), and ``jumps``, the points where V jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Units:
    """Particle mass and hbar, both finite and > 0; the numeric lane squares hbar."""

    mass: float
    hbar: float

    def __post_init__(self):
        _require_positive("mass", self.mass)
        _require_positive("hbar", self.hbar)
        if not 0.0 < self.hbar * self.hbar < math.inf:
            raise DomainError(
                f"hbar = {self.hbar!r} is out of range: hbar^2 must be a finite float > 0"
            )


@dataclass(frozen=True)
class Exponential:
    """V(x) = -v0 * exp(x/a), whose tail fades over a to the left and which
    never jumps; build it with ``exponential``."""

    v0: float
    a: float
    tail = property(lambda self: self.a)
    jumps = ()


@dataclass(frozen=True)
class Rectangular:
    """V(x) = v0 for |x| <= half_width, else 0: it jumps at its edges and is
    flat off them, an infinite tail length; build it with ``rectangular``."""

    v0: float
    half_width: float
    tail = math.inf
    jumps = property(lambda self: (-self.half_width, self.half_width))


PotentialModel = Exponential | Rectangular


def exponential(v0: float, a: float, b: float = 0.0) -> Exponential:
    """V(x) = -v0 * exp((x-b)/a): vanishes to the left, dives to -inf on the right.

    The offset b only relabels the origin, so it is folded into the depth:
    the record is Exponential(v0 * exp(-b/a), a), with v0 itself at b = 0.

    Args:
        v0: depth scale, must be > 0.
        a: range, must be > 0 with a^2 finite and > 0 (the numeric lane squares it).
        b: offset, finite, such that the depth v0 * exp(-b/a) at x = 0 is
            finite and > 0.
    """
    _require_positive("v0", v0)
    _require_positive("a", a)
    if not 0.0 < a * a < math.inf:
        raise DomainError(f"a = {a!r} is out of range: a^2 must be a finite float > 0")
    if not (isinstance(b, (int, float)) and math.isfinite(b)):
        raise DomainError(f"offset b must be finite, got {b!r}")
    try:
        depth = float(v0) * math.exp(-float(b) / float(a))
    except OverflowError:
        depth = math.inf
    if not (math.isfinite(depth) and depth > 0.0):
        raise DomainError(
            f"offset b = {b!r} makes the depth v0 * exp(-b/a) = {depth!r}; "
            "it must be finite and > 0, so move b toward 0"
        )
    return Exponential(depth, float(a))


def rectangular(v0: float, half_width: float) -> Rectangular:
    """V(x) = v0 for |x| <= half_width, else 0.

    Args:
        v0: signed height; > 0 is a barrier, < 0 a well.
        half_width: must be > 0.
    """
    if not math.isfinite(v0):
        raise DomainError(f"v0 must be finite, got {v0!r}")
    _require_positive("half_width", half_width)
    return Rectangular(float(v0), float(half_width))


def free() -> Rectangular:
    """V(x) = 0 everywhere: a rectangle of zero height, whose default
    numeric window is [-5, 5], stepped at kh min(10, 1/k)."""
    return rectangular(0.0, 3.0)


def evaluate(model: PotentialModel, x):
    """V(x) for a scalar or ndarray x.

    The exponential saturates to -inf, without a warning, once exp or its
    product with v0 overflows; the solver treats non-finite values as out
    of domain.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(model, Exponential):
        with np.errstate(over="ignore"):
            grow = np.exp(x / model.a)
            # a scalar x gives a float, as the rectangle's does
            return -model.v0 * (grow if grow.ndim else float(grow))
    v = np.where(np.abs(x) <= model.half_width, model.v0, 0.0)
    return v if v.ndim else float(v)


def _require_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")


DEFAULT_UNITS = Units(mass=0.5, hbar=1.0)
