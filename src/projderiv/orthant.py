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

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .vectors import Vector, as_vector, _same_dim
from .verify import _one_sided_pair


def zero_tolerance(x) -> float:
    """Half-width of the band around 0 treated as a zero coordinate."""
    x = as_vector(x)
    return 1e-12 * (1.0 + float(np.max(np.abs(x))))


@dataclass(frozen=True)
class SignPartition:
    """Disjoint index sets (0-based) by coordinate sign, zero-band aware."""

    plus: frozenset[int]
    minus: frozenset[int]
    zero: frozenset[int]
    n: int


def _indices(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def sign_partition(x) -> SignPartition:
    x = as_vector(x)
    zero = np.abs(x) <= zero_tolerance(x)
    plus = ~zero & (x > 0.0)
    return SignPartition(
        plus=_indices(plus), minus=_indices(~(zero | plus)), zero=_indices(zero), n=x.size
    )


class ConeRegion(Enum):
    INTERIOR = "interior"  # every coordinate strictly positive
    NEGATIVE_INTERIOR = "negative_interior"  # every coordinate strictly negative
    MIXED_SIGNS = "mixed_signs"  # both signs present, no zero coordinate
    HAS_ZERO = "has_zero"  # at least one zero coordinate


def classify_cone(x) -> ConeRegion:
    return _region_of(sign_partition(x))


def _region_of(partition: SignPartition) -> ConeRegion:
    if partition.zero:
        return ConeRegion.HAS_ZERO
    if not partition.minus:
        return ConeRegion.INTERIOR
    if not partition.plus:
        return ConeRegion.NEGATIVE_INTERIOR
    return ConeRegion.MIXED_SIGNS


def project_cone(x) -> Vector:
    """Nearest point of the nonnegative orthant (coordinatewise clamp)."""
    return np.maximum(as_vector(x), 0.0)


class ConeDerivKind(Enum):
    IDENTITY = "identity"
    ZERO = "zero"
    MASK = "mask"
    DIRECTIONAL_ONLY = "directional_only"


@dataclass(frozen=True)
class ConeDeriv:
    """Derivative structure of the orthant projection at a base point.

    The first three kinds are strict Fréchet derivatives (linear maps).
    ``DIRECTIONAL_ONLY`` marks points with a zero coordinate: ``apply``
    still works — it evaluates the one-sided directional derivative, which
    keeps positive-side growth on zero coordinates — but the map is only
    positively homogeneous, not additive, so it has no matrix.
    """

    kind: ConeDerivKind
    partition: SignPartition

    @property
    def is_linear(self) -> bool:
        return self.kind is not ConeDerivKind.DIRECTIONAL_ONLY

    def _indicator(self, indices: frozenset[int]) -> np.ndarray:
        out = np.zeros(self.partition.n)
        out[np.fromiter(indices, dtype=np.intp, count=len(indices))] = 1.0
        return out

    def apply(self, w) -> Vector:
        w = as_vector(w)
        if w.size != self.partition.n:
            raise ValueError(f"dimension mismatch: {w.size} vs {self.partition.n}")
        if self.kind is ConeDerivKind.IDENTITY:
            return w
        if self.kind is ConeDerivKind.ZERO:
            return np.zeros_like(w)
        if self.kind is ConeDerivKind.MASK:
            return w * self._indicator(self.partition.plus)
        keep = w * self._indicator(self.partition.plus)
        ramp = np.maximum(w, 0.0) * self._indicator(self.partition.zero)
        return keep + ramp

    def as_matrix(self) -> np.ndarray:
        if self.kind is ConeDerivKind.DIRECTIONAL_ONLY:
            raise ValueError("directional derivative at a zero coordinate is not linear")
        if self.kind is ConeDerivKind.IDENTITY:
            return np.eye(self.partition.n)
        if self.kind is ConeDerivKind.ZERO:
            return np.zeros((self.partition.n, self.partition.n))
        return np.diag(self._indicator(self.partition.plus))


def cone_frechet_derivative(x) -> ConeDeriv:
    """Derivative structure at x, chosen by sign pattern."""
    partition = sign_partition(x)
    region = _region_of(partition)
    kind = {
        ConeRegion.INTERIOR: ConeDerivKind.IDENTITY,
        ConeRegion.NEGATIVE_INTERIOR: ConeDerivKind.ZERO,
        ConeRegion.MIXED_SIGNS: ConeDerivKind.MASK,
        ConeRegion.HAS_ZERO: ConeDerivKind.DIRECTIONAL_ONLY,
    }[region]
    return ConeDeriv(kind=kind, partition=partition)


def cone_gateaux(x, w) -> Vector:
    """One-sided directional derivative of the orthant projection.

    Defined everywhere; at the origin it reduces to the projection itself.
    """
    x, w = as_vector(x), as_vector(w)
    _same_dim(x, w)
    return cone_frechet_derivative(x).apply(w)


def guarded_fd_step(x) -> float:
    """Difference step, at most 1e-5, small enough to keep every nonzero coordinate's sign."""
    x = as_vector(x)
    nonzero = np.abs(x[x != 0.0])
    if nonzero.size == 0:
        return 1e-5
    guard = float(nonzero.min()) / 4.0
    return min(1e-5, guard / 4.0)


@dataclass(frozen=True)
class ConeRefutation:
    """Certificate that no linear map matches both one-sided derivatives.

    ``forward_limit`` and ``backward_limit`` are the two values a putative
    Fréchet derivative would be forced to assign to ``direction`` by probing
    from either side; a nonzero ``gap`` between them is the contradiction.
    """

    direction: Vector
    forward_limit: Vector
    backward_limit: Vector
    gap: float


def cone_refute_frechet(x, steps: Sequence[float] = (1e-3, 1e-4, 1e-5)) -> ConeRefutation:
    """Refute Fréchet differentiability at a point with a zero coordinate.

    Probes along the coordinate axis of the smallest zero index: the clamp
    ramps with slope 1 on the positive side and stays flat on the negative
    side, so the two one-sided derivatives disagree by a unit vector.
    """
    x = as_vector(x)
    partition = sign_partition(x)
    if not partition.zero:
        raise ValueError("refutation needs a zero coordinate in the sign partition")
    k = min(partition.zero)
    direction = np.zeros(x.size)
    direction[k] = 1.0
    forward, along_minus = _one_sided_pair(project_cone, x, direction, steps)
    backward = -along_minus  # the value A(direction) = -A(-direction) would force
    gap = float(np.linalg.norm(forward - backward))
    return ConeRefutation(
        direction=direction, forward_limit=forward, backward_limit=backward, gap=gap
    )
