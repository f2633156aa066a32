"""Catalog of 1-D potentials the solver knows how to scatter off, and the
units both lanes share.

Each model is a frozen value object; ``evaluate`` returns V(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
class PotentialModel:
    """A potential from the catalog.

    kind is "exponential" or "rectangular"; unused parameters stay None.
    """

    kind: str
    v0: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    half_width: Optional[float] = None


def exponential(v0: float, a: float, b: float = 0.0) -> PotentialModel:
    """V(x) = -v0 * exp((x-b)/a): vanishes to the left, dives to -inf on the right.

    The offset b only relabels the origin: this is the potential
    exponential(v0 * exp(-b/a), a), so observables cannot depend on it.

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
    model = PotentialModel(kind="exponential", v0=float(v0), a=float(a), b=float(b))
    try:
        depth, _ = effective_exponential(model)
    except OverflowError:
        depth = math.inf
    if not (math.isfinite(depth) and depth > 0.0):
        raise DomainError(
            f"offset b = {b!r} makes the depth v0 * exp(-b/a) = {depth!r}; "
            "it must be finite and > 0, so move b toward 0"
        )
    return model


def exponential_p(model: PotentialModel, units: Units) -> float:
    """p = sqrt(8 m v0 e^(-b/a)) a / hbar of an exponential model, which
    enters only through z = p exp(x/(2a)); refused where it overflows or
    vanishes."""
    v0_eff, a = effective_exponential(model)
    p = math.sqrt(8.0 * units.mass * v0_eff) * a / units.hbar
    if not 0.0 < p < math.inf:
        raise DomainError(
            f"p = sqrt(8 m v0 e^(-b/a)) a / hbar = {p!r} is out of range; "
            "it must be a finite float > 0, so rescale v0, a, mass or hbar"
        )
    return p


def rectangular(v0: float, half_width: float) -> PotentialModel:
    """V(x) = v0 for |x| <= half_width, else 0.

    Args:
        v0: signed height; > 0 is a barrier, < 0 a well.
        half_width: must be > 0.
    """
    if not math.isfinite(v0):
        raise DomainError(f"v0 must be finite, got {v0!r}")
    _require_positive("half_width", half_width)
    return PotentialModel(kind="rectangular", v0=float(v0), half_width=float(half_width))


def free() -> PotentialModel:
    """V(x) = 0 everywhere: a rectangle of zero height, whose default
    numeric window is [-5, 5] at step 5e-4."""
    return rectangular(0.0, 3.0)


def evaluate(model: PotentialModel, x):
    """V(x) for a scalar or ndarray x.

    The exponential saturates to -inf once exp overflows; the solver
    treats non-finite values as out of domain.
    """
    if model.kind == "exponential":
        return -model.v0 * _safe_exp((np.asarray(x, dtype=float) - model.b) / model.a)
    if model.kind == "rectangular":
        xarr = np.asarray(x, dtype=float)
        v = np.where(np.abs(xarr) <= model.half_width, model.v0, 0.0)
        return v if v.ndim else float(v)
    raise DomainError(f"unknown potential kind {model.kind!r}")


def effective_exponential(model: PotentialModel) -> tuple[float, float]:
    """(v0 * exp(-b/a), a): the exponential model rewritten with b = 0."""
    return model.v0 * math.exp(-model.b / model.a), model.a


def _safe_exp(arg):
    arr = np.asarray(arg, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(arr)
    return out if out.ndim else float(out)


def _require_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")


DEFAULT_UNITS = Units(mass=0.5, hbar=1.0)
