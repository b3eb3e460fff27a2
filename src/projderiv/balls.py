"""Metric projection onto a closed ball and its derivative operator.

The projection is the identity inside the ball and the radial pull-back
onto the sphere outside.  Its derivative splits into three regimes:

* interior points: the identity map,
* exterior points: a scaled rank-one-deficient map that kills the radial
  component and shrinks the rest by radius / distance-to-center,
* sphere points: no Fréchet derivative exists; :meth:`BallDeriv.apply` there
  is the one-sided (Gâteaux) derivative, which depends on the direction.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .vectors import Vector, as_points, as_vector, norm, _same_dim, _scaled, _Value


class Ball(_Value):
    """Closed ball with the given center and positive radius, equal and hashed by value."""

    __slots__ = ("center", "radius")

    def __init__(self, center: Vector, radius: float):
        self._set(as_vector(center), radius)

    def __eq__(self, other) -> bool:  # by value: the same radius and equal centers
        same = isinstance(other, Ball) and self.radius == other.radius
        return same and np.array_equal(self.center, other.center)

    def __hash__(self) -> int:  # agrees with ==, as hash(-0.0) == hash(0.0)
        return hash((self.radius, *self.center.tolist()))

    @classmethod
    def _parsed(cls, center: Vector, radius: float) -> Ball:
        """The ball on a center its caller has parsed into a finite 1-D float64 array, which
        is kept (read-only) with no second copy and check."""
        (ball := cls.__new__(cls))._set(center, radius)
        return ball

    def _set(self, center: Vector, radius) -> None:
        r = float(radius)
        if not np.isfinite(r) or r <= 0.0:
            raise ValueError("radius must be finite and positive")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", r)


class BallRegionTag(Enum):
    INTERIOR = "interior"
    EXTERIOR = "exterior"
    SPHERE = "sphere"


class BallRegion(NamedTuple):
    tag: BallRegionTag
    signed_gap: float  # ‖x - center‖ - radius


def sphere_tolerance(radius: float) -> float:
    """Width of the band around the sphere that classifies as on-sphere (relative, so
    2^k times a ball and a point classify alike)."""
    return 1e-12 * radius


def classify_ball(ball: Ball, x) -> BallRegion:
    """Classify x as interior / exterior / on the sphere, with ties to sphere."""
    x = _same_dim(ball.center, as_vector(x))
    gap = float(norm(_offset(ball, x))) - ball.radius
    if abs(gap) <= sphere_tolerance(ball.radius):
        return BallRegion(tag=BallRegionTag.SPHERE, signed_gap=gap)
    tag = BallRegionTag.INTERIOR if gap < 0.0 else BallRegionTag.EXTERIOR
    return BallRegion(tag=tag, signed_gap=gap)


def project_ball(ball: Ball, x) -> Vector:
    """Nearest point of the closed ball, row by row: x inside, radial pull-back outside."""
    return _project_ball(ball, _same_dim(ball.center, as_points(x)))


def _project_ball(ball: Ball, x: Vector) -> Vector:
    """``project_ball`` on a finite float64 (n,) or (S, n) array of the ball's dimension, unchecked."""
    d = _offset(ball, x)
    dist = norm(d)
    outside = dist > ball.radius
    count = np.count_nonzero(outside)
    if count == 0:
        return x
    far = dist * 2.0**-1022 > ball.radius
    if far.any():  # ‖d‖ is inf or r/‖d‖ subnormal: pull back along s = (x − c)/2^k instead,
        s = _scaled_offset(ball, x, d)[0]  # as the unit s/‖s‖, since r/‖s‖ overflows at r ≈ 1e308
        d = np.where(far[..., None], s / np.where(far, norm(s), 1.0)[..., None], d)
        dist = np.where(far, 1.0, dist)
    if count == outside.size:
        return ball.center + (ball.radius / dist)[..., None] * d
    # rows on both sides: only outside rows divide, so a center row raises no warning
    scale = np.divide(ball.radius, dist, out=np.zeros_like(dist), where=outside)
    return np.where(outside[:, None], ball.center + scale[:, None] * d, x)


def _offset(ball: Ball, x: Vector) -> Vector:
    """x − c, with inf where x and c are too far apart for the float range."""
    with np.errstate(over="ignore"):
        return x - ball.center


def _scaled_offset(ball: Ball, x: Vector, d: Vector) -> tuple[Vector, Vector]:
    """_scaled(d) for d = _offset(ball, x); rows where d overflowed are scaled from x/2 − c/2
    (only they are halved, so subnormal inputs elsewhere keep every bit)."""
    if np.isfinite(d).all():
        return _scaled(d)
    far = np.isinf(d).any(axis=-1)
    s, k = _scaled(np.where(far[..., None], x / 2 - ball.center / 2, d))
    return s, k + far


_HUGE = float(np.finfo(np.float64).max)


class BallDerivKind(Enum):
    IDENTITY = "identity"
    EXTERIOR = "exterior"
    NOT_FRECHET = "not_frechet"


class BallDeriv(NamedTuple):
    """Derivative of the ball projection at a base point.

    ``IDENTITY`` and ``EXTERIOR`` are genuine (strict) Fréchet derivatives.  At a sphere
    point (``NOT_FRECHET``) ``apply`` is the one-sided derivative, w − (⟨w, a⟩/r²)·a where
    ⟨w, a⟩ ≥ 0 (a = x − c) and w otherwise: positively homogeneous, not additive.
    """

    kind: BallDerivKind
    dim: int
    anchor: Vector | None = None  # x - center, exterior and sphere points
    scaled_anchor: Vector | None = None  # anchor / 2^k (see _scaled): r² fails beyond ~1e±154
    scale: float | None = None  # radius / ‖anchor‖, exterior points only
    scaled_radius: float | None = None  # radius / 2^k, sphere points only
    smooth_radius: float = 0.0  # δ = |‖x − c‖ − r| off the sphere; the map is C¹ on B(x, δ)

    @property
    def is_linear(self) -> bool:
        return self.kind is not BallDerivKind.NOT_FRECHET

    def apply(self, w) -> Vector:
        """The action on one direction (n,) or on each row of a stack (S, n)."""
        return self._apply(_same_dim(self.dim, as_points(w)))

    def _apply(self, w: Vector) -> Vector:
        """``apply`` on a finite float64 (n,) or (S, n) array of dimension ``dim``, unchecked."""
        if self.kind is BallDerivKind.IDENTITY:
            return w
        # ‖a‖∞ ∈ [1/2, 1) and ⟨a, a⟩, r_s² ≥ 1/4, so no step exceeds (4n + 1)·‖w‖∞
        if abs(w).max() <= _HUGE / (4 * self.dim + 1):
            return self._act(w)
        # apply(w) = 2^j·apply(w/2^j), on the rows where the unscaled product overflows
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._act(w)
            s, j = _scaled(w)
            bad = ~np.isfinite(out).all(axis=-1, keepdims=True)
            return np.where(bad, np.ldexp(self._act(s), j[..., None]), out)

    def _act(self, w: Vector) -> Vector:
        """``apply``'s formula on a coerced w, with w as given."""
        a = self.scaled_anchor
        if self.kind is BallDerivKind.EXTERIOR:
            radial = (np.vecdot(w, a) / float(np.dot(a, a)))[..., None] * a
            return self.scale * (w - radial)
        radial = np.vecdot(w, a)[..., None] / (self.scaled_radius * self.scaled_radius) * a
        return np.where(self._outward(w)[..., None], w - radial, w)  # inward rows keep w

    def _outward(self, w: Vector) -> Vector:
        """⟨w, a⟩ ≥ 0 row by row, decided on w/2^j (see _scaled): exact, and with |w/2^j| and
        |a| below 1 the sum cannot overflow, where ⟨w, a⟩ itself can (to nan) near 1e308."""
        return np.vecdot(_scaled(w)[0], self.scaled_anchor) >= 0.0


def ball_frechet_derivative(ball: Ball, x) -> BallDeriv:
    """Derivative operator of the ball projection at x, by region; ``NOT_FRECHET`` at sphere
    points rather than an error, as non-differentiability there is a result, not a failure."""
    region = classify_ball(ball, x)  # checks x, so it is read below with no second copy
    x = np.asarray(x, dtype=np.float64)
    gap = abs(region.signed_gap)  # the smooth radius off the sphere
    if region.tag is BallRegionTag.INTERIOR:
        return BallDeriv(BallDerivKind.IDENTITY, x.size, smooth_radius=gap)
    anchor = _offset(ball, x)
    scaled, k = _scaled_offset(ball, x, anchor)
    anchor.flags.writeable = scaled.flags.writeable = False
    if region.tag is BallRegionTag.SPHERE:
        r = math.ldexp(ball.radius, -int(k))
        return BallDeriv(BallDerivKind.NOT_FRECHET, x.size, anchor, scaled, scaled_radius=r)
    scale = math.ldexp(ball.radius / float(norm(scaled)), -int(k))
    return BallDeriv(BallDerivKind.EXTERIOR, x.size, anchor, scaled, scale, smooth_radius=gap)


def ball_gateaux_sphere(ball: Ball, x, w) -> Vector:
    """One-sided derivative at a sphere point: ``apply`` of its derivative, refused off the sphere."""
    deriv = ball_frechet_derivative(ball, x)  # checks x, and x and the center share a dimension
    if deriv.is_linear:
        raise ValueError("base point must lie on the sphere")
    return deriv._apply(_same_dim(ball.center, as_vector(w)))
