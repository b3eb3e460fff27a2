"""Projection onto the nonnegative orthant of R^n and its derivative structure.

The projection clamps negative coordinates to zero.  Its differentiability
at a point is governed entirely by the point's sign pattern: strictly
positive points see the identity, strictly negative points the zero map,
mixed-sign points (no zero coordinate) a coordinate mask, and any point
with a zero coordinate admits only a positively homogeneous directional
derivative — no Fréchet derivative, which :func:`cone_refute_frechet`
certifies numerically.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .vectors import Vector, as_points, as_vector, _same_dim
from .verify import FD_STEP, Refutation, refute_linearity


class SignPartition(NamedTuple):
    """Disjoint read-only boolean masks of the coordinates by exact sign, equal and hashed by
    identity (comparing mask arrays elementwise would have no single truth value)."""

    plus: np.ndarray
    minus: np.ndarray
    zero: np.ndarray

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def region(self) -> ConeRegion:
        if self.zero.any():
            return ConeRegion.HAS_ZERO
        if not self.minus.any():
            return ConeRegion.INTERIOR
        return ConeRegion.MIXED_SIGNS if self.plus.any() else ConeRegion.NEGATIVE_INTERIOR


def sign_partition(x) -> SignPartition:
    return _partition(as_vector(x))


def _partition(x: Vector) -> SignPartition:
    """``sign_partition`` on a checked x, unchecked."""
    plus, minus = x > 0.0, x < 0.0
    zero = ~(plus | minus)
    plus.flags.writeable = minus.flags.writeable = zero.flags.writeable = False
    return SignPartition(plus=plus, minus=minus, zero=zero)


class ConeRegion(Enum):
    INTERIOR = "interior"  # every coordinate strictly positive
    NEGATIVE_INTERIOR = "negative_interior"  # every coordinate strictly negative
    MIXED_SIGNS = "mixed_signs"  # both signs present, no zero coordinate
    HAS_ZERO = "has_zero"  # at least one zero coordinate


def project_cone(x) -> Vector:
    """Nearest point of the nonnegative orthant (coordinatewise clamp), row by row for a stack."""
    return _clamp(as_points(x))


def _clamp(x: Vector) -> Vector:
    """``project_cone`` on a finite float64 (n,) or (S, n) array, unchecked."""
    return np.maximum(x, 0.0)


class ConeDerivKind(Enum):
    IDENTITY = "identity"
    ZERO = "zero"
    MASK = "mask"
    DIRECTIONAL_ONLY = "directional_only"


class ConeDeriv(NamedTuple):
    """Derivative structure of the orthant projection at a base point.

    The first three kinds are strict Fréchet derivatives (linear maps).
    ``DIRECTIONAL_ONLY`` marks points with a zero coordinate: ``apply``
    still works — it evaluates the one-sided directional derivative, which
    keeps positive-side growth on zero coordinates — but the map is only
    positively homogeneous, not additive, so it has no matrix.
    ``smooth_radius`` is min |x_i|: the open ball of that radius around x keeps every sign
    of x, so the projection is affine on it; it is 0 exactly where a coordinate is zero.
    """

    kind: ConeDerivKind
    partition: SignPartition
    smooth_radius: float

    @property
    def is_linear(self) -> bool:
        return self.kind is not ConeDerivKind.DIRECTIONAL_ONLY

    def apply(self, w) -> Vector:
        """The action on one direction (n,) or on each row of a stack (S, n)."""
        return self._apply(_same_dim(self.partition.plus, as_points(w)))

    def _apply(self, w: Vector) -> Vector:
        """``apply`` on a finite float64 (n,) or (S, n) array of x's dimension, unchecked."""
        plus, zero = self.partition.plus, self.partition.zero
        if self.kind is ConeDerivKind.IDENTITY:
            return w
        if self.kind is ConeDerivKind.ZERO:
            return np.zeros_like(w)
        if self.kind is ConeDerivKind.MASK:
            return w * plus
        return w * plus + np.maximum(w, 0.0) * zero


def cone_frechet_derivative(x) -> ConeDeriv:
    """Derivative structure at x, chosen by sign pattern."""
    return _cone_deriv(as_vector(x))


def _cone_deriv(x: Vector) -> ConeDeriv:
    """``cone_frechet_derivative`` on a checked x, unchecked."""
    partition = _partition(x)
    kind = {
        ConeRegion.INTERIOR: ConeDerivKind.IDENTITY,
        ConeRegion.NEGATIVE_INTERIOR: ConeDerivKind.ZERO,
        ConeRegion.MIXED_SIGNS: ConeDerivKind.MASK,
        ConeRegion.HAS_ZERO: ConeDerivKind.DIRECTIONAL_ONLY,
    }[partition.region]
    return ConeDeriv(kind, partition, float(np.min(np.abs(x))))


def cone_refute_frechet(x, step: float = FD_STEP) -> Refutation:
    """Refute Fréchet differentiability at a point with a zero coordinate.

    Probes along the coordinate axis of the smallest zero index: the clamp
    ramps with slope 1 on the positive side and stays flat on the negative
    side, so the two one-sided derivatives disagree by a unit vector.
    """
    partition = sign_partition(x)  # coerces and checks x
    if not partition.zero.any():
        raise ValueError("refutation needs a zero coordinate in the sign partition")
    direction = np.zeros(partition.zero.size)
    direction[np.argmax(partition.zero)] = 1.0
    return refute_linearity(_clamp, x, direction, step)  # x + t·d is checked there
