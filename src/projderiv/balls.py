"""Metric projection onto a closed ball and its derivative operator.

The projection is the identity inside the ball and the radial pull-back
onto the sphere outside.  Its derivative splits into three regimes:

* interior points: the identity map,
* exterior points: a scaled rank-one-deficient map that kills the radial
  component and shrinks the rest by radius / distance-to-center,
* sphere points: no Fréchet derivative exists; only direction-dependent
  one-sided (Gâteaux) derivatives, served by :func:`ball_gateaux_sphere`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .vectors import Vector, as_points, as_vector, norm, _same_dim, _scaled


@dataclass(frozen=True)
class Ball:
    """Closed ball with the given center and positive radius."""

    center: Vector
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        r = float(self.radius)
        if not np.isfinite(r) or r <= 0.0:
            raise ValueError("radius must be finite and positive")
        object.__setattr__(self, "radius", r)


class BallRegionTag(Enum):
    INTERIOR = "interior"
    EXTERIOR = "exterior"
    SPHERE = "sphere"


@dataclass(frozen=True)
class BallRegion:
    tag: BallRegionTag
    signed_gap: float  # ‖x - center‖ - radius


def sphere_tolerance(radius: float) -> float:
    """Width of the band around the sphere that classifies as on-sphere (relative, so
    2^k times a ball and a point classify alike)."""
    return 1e-12 * radius


def classify_ball(ball: Ball, x) -> BallRegion:
    """Classify x as interior / exterior / on the sphere, with ties to sphere."""
    x = as_vector(x)
    _same_dim(ball.center, x)
    gap = float(norm(x - ball.center)) - ball.radius
    if abs(gap) <= sphere_tolerance(ball.radius):
        tag = BallRegionTag.SPHERE
    elif gap < 0.0:
        tag = BallRegionTag.INTERIOR
    else:
        tag = BallRegionTag.EXTERIOR
    return BallRegion(tag=tag, signed_gap=gap)


def project_ball(ball: Ball, x) -> Vector:
    """Nearest point of the closed ball, row by row: x inside, radial pull-back outside."""
    x = as_points(x)
    _same_dim(ball.center, x)
    d = x - ball.center
    dist = norm(d)
    outside = dist > ball.radius
    count = np.count_nonzero(outside)
    if count == 0:
        return x
    huge = np.isinf(dist)
    if huge.any():  # ‖d‖ beyond the float range: pull back along d / 2^k (exact) instead
        s = np.ldexp(d, -np.frexp(np.max(np.abs(d), axis=-1, keepdims=True))[1])
        d, dist = np.where(huge[..., None], s, d), np.where(huge, norm(s), dist)
    if count == outside.size:
        return ball.center + (ball.radius / dist)[..., None] * d
    # rows on both sides: only outside rows divide, so a center row raises no warning
    scale = np.divide(ball.radius, dist, out=np.zeros_like(dist), where=outside)
    return np.where(outside[:, None], ball.center + scale[:, None] * d, x)


class BallDerivKind(Enum):
    IDENTITY = "identity"
    EXTERIOR = "exterior"
    NOT_FRECHET = "not_frechet"


@dataclass(frozen=True)
class BallDeriv:
    """Derivative of the ball projection at a base point.

    ``IDENTITY`` and ``EXTERIOR`` are genuine (strict) Fréchet derivatives
    and support :meth:`apply`.  ``NOT_FRECHET`` records a sphere point where
    no linear derivative exists; querying its action is an error.
    """

    kind: BallDerivKind
    dim: int
    anchor: Vector | None = None  # x - center, exterior points only
    scaled_anchor: Vector | None = None  # anchor / 2^k (see _scaled)
    scale: float | None = None  # radius / ‖anchor‖

    @property
    def is_linear(self) -> bool:
        return self.kind is not BallDerivKind.NOT_FRECHET

    def apply(self, w) -> Vector:
        """The linear action on one direction (n,) or on each row of a stack (S, n)."""
        w = as_points(w)
        if w.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: {w.shape[-1]} vs {self.dim}")
        if self.kind is BallDerivKind.IDENTITY:
            return w
        if self.kind is BallDerivKind.EXTERIOR:
            a = self.scaled_anchor
            radial = (np.vecdot(w, a) / float(np.dot(a, a)))[..., None] * a
            return self.scale * (w - radial)
        raise ValueError("no linear derivative exists at a sphere point")


def ball_frechet_derivative(ball: Ball, x) -> BallDeriv:
    """Derivative operator of the ball projection at x, by region.

    Sphere points return a ``NOT_FRECHET`` marker value rather than raising:
    non-differentiability there is a result, not a failure.
    """
    x = as_vector(x)
    region = classify_ball(ball, x)
    if region.tag is BallRegionTag.INTERIOR:
        return BallDeriv(kind=BallDerivKind.IDENTITY, dim=x.size)
    if region.tag is BallRegionTag.EXTERIOR:
        anchor = x - ball.center
        scaled, k = _scaled(anchor)
        scale = math.ldexp(ball.radius / float(norm(scaled)), -k)
        anchor.flags.writeable = scaled.flags.writeable = False
        return BallDeriv(
            kind=BallDerivKind.EXTERIOR, dim=x.size, anchor=anchor, scaled_anchor=scaled, scale=scale
        )
    return BallDeriv(kind=BallDerivKind.NOT_FRECHET, dim=x.size)


def ball_gateaux_sphere(ball: Ball, x, w) -> Vector:
    """One-sided directional derivative of the projection at a sphere point.

    Directions pointing outward or tangent (⟨x - c, w⟩ ≥ 0) feel the sphere's
    curvature and lose their radial growth; inward directions re-enter the
    ball, where the projection is the identity.
    """
    x, w = as_vector(x), as_vector(w)
    region = classify_ball(ball, x)
    if region.tag is not BallRegionTag.SPHERE:
        raise ValueError("base point must lie on the sphere")
    _same_dim(x, w)
    a, k = _scaled(x - ball.center)  # r² under- or overflows at radii beyond about 1e±154
    r = math.ldexp(ball.radius, -k)
    s = float(np.dot(a, w))
    if s >= 0.0:
        return w - (s / (r * r)) * a
    return w
