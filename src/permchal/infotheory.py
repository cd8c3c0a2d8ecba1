"""KL divergence over explicit finite distributions, in nats.

All logarithms are natural. Arithmetic is double precision. A mass
vector must sum to 1 within ``MASS_TOL`` (1e-12); ``IDENTITY_TOL``
(1e-10) is the tolerance for identities that are exact in real
arithmetic.

Conventions:

* ``0 * ln(0)`` and ``0 * ln(0/0)`` are 0.
* A KL divergence whose first argument puts mass outside the support of
  the second is ``INFINITE`` (``float('inf')``), a distinguished value
  rather than an exception; it compares larger than any finite real.

Each check runs once, where the data enters: a constructor checks a
frozen copy of the mass, and what reads it later does not check again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

IDENTITY_TOL = 1e-10
MASS_TOL = 1e-12

INFINITE = math.inf


def _as_float_array(values, what: str) -> np.ndarray:
    """A float copy of ``values``; non-numeric or ragged input is a ValidationError."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what}: values must be numbers in a regular array") from None


def _as_mass_array(mass, what: str, shape: tuple) -> np.ndarray:
    """Frozen float copy of ``mass``: of ``shape``, non-negative, summing to 1.

    The sum test is written so that a NaN total fails it.
    """
    arr = _as_float_array(mass, what)
    if arr.shape != shape:
        raise ValidationError(f"{what}: mass has shape {arr.shape}, expected {shape}")
    if (arr < 0).any():
        raise ValidationError(f"{what}: negative mass")
    total = float(np.add.reduce(arr, axis=None))
    if not abs(total - 1.0) <= MASS_TOL:
        raise ValidationError(f"{what}: masses sum to {total!r}, not 1")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Probability mass over an ordered, enumerated finite support."""

    support: tuple
    mass: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        if len(set(support)) != len(support):
            raise ValidationError("FiniteDistribution: support labels must be distinct")
        arr = _as_mass_array(self.mass, "FiniteDistribution", (len(support),))
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", arr)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint probability mass over named axes with per-axis supports.

    The table is stored as an ndarray whose shape matches the per-axis
    support sizes, so projection onto any axis subset is a sum over the
    remaining axes.
    """

    axes: tuple
    supports: tuple
    table: np.ndarray

    def __post_init__(self):
        axes = tuple(self.axes)
        supports = tuple(tuple(s) for s in self.supports)
        if len(axes) != len(supports) or not axes:
            raise ValidationError("JointDistribution: need one support per axis")
        if len(set(axes)) != len(axes):
            raise ValidationError("JointDistribution: axis names must be distinct")
        for ax, sup in zip(axes, supports):
            if len(set(sup)) != len(sup) or not sup:
                raise ValidationError(f"JointDistribution: axis {ax!r} support invalid")
        table = _as_mass_array(self.table, "JointDistribution", tuple(len(s) for s in supports))
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "table", table)


def kl_divergence(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """KL(p || q) over an aligned support; INFINITE on support violation."""
    if p.support != q.support:
        raise ValidationError("kl_divergence: mismatched support orderings")
    sel = p.mass > 0
    if np.any(q.mass[sel] == 0):
        return INFINITE
    pp, qq = p.mass[sel], q.mass[sel]
    return float((pp * np.log(pp / qq)).sum())


def kl_bernoulli(p: float, q: float) -> float:
    """KL between Bernoulli(p) and Bernoulli(q); INFINITE when q in {0,1}, p != q."""
    if not (0.0 <= p <= 1.0) or not (0.0 <= q <= 1.0):
        raise ValidationError("kl_bernoulli: arguments must lie in [0, 1]")
    total = 0.0
    if p > 0:
        if q == 0:
            return INFINITE
        total += p * math.log(p / q)
    if p < 1:
        if q == 1:
            return INFINITE
        total += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return total

