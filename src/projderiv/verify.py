"""Numerical harness for checking claimed derivative operators.

Three independent instruments:

* forward-difference directional derivatives (:func:`fd_directional`),
* residual scans over shrinking neighborhoods that certify strict-Fréchet
  behavior by residual decay (:func:`strict_residual_scan`),
* a projected-gradient solver for the nearest-point problem
  (:func:`qp_projection_oracle`) kept deliberately separate from the
  closed-form projections so the two can cross-check each other.

All sampling is seeded and single-threaded; reports are deterministic for a
given seed regardless of how callers schedule the sample evaluations,
because samples are drawn up front in index order and merged by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .balls import Ball
from .vectors import Vector, as_vector

_EPS = float(np.finfo(np.float64).eps)
# Redraws of a sample pair that collapsed onto one point before the scan
# gives up: a usable radius collapses a pair with probability ~0.
_MAX_REDRAWS = 100


@dataclass(frozen=True)
class FDEstimate:
    """Forward-difference directional derivative estimates.

    ``value`` is the quotient at the smallest step.  When a claimed
    derivative value is supplied, ``errors_vs_claim[i]`` is the distance of
    the i-th quotient from the claim.
    """

    value: Vector
    steps: tuple[float, ...]
    quotients: tuple[Vector, ...]
    errors_vs_claim: tuple[float, ...] | None = None


def fd_directional(
    f: Callable[[Vector], Vector],
    x,
    w,
    steps: Sequence[float] = (1e-3, 1e-4, 1e-5),
    claim=None,
) -> FDEstimate:
    """One-sided difference quotients (f(x + t w) - f(x)) / t for each step t."""
    x, w = as_vector(x), as_vector(w)
    steps = tuple(float(t) for t in steps)
    if not steps or any(t <= 0.0 or not np.isfinite(t) for t in steps):
        raise ValueError("steps must be positive and finite")
    fx = np.asarray(f(x), dtype=np.float64)
    quotients = tuple((np.asarray(f(x + t * w), dtype=np.float64) - fx) / t for t in steps)
    value = quotients[steps.index(min(steps))]
    errors = None
    if claim is not None:
        claim = as_vector(claim)
        errors = tuple(float(np.linalg.norm(q - claim)) for q in quotients)
    return FDEstimate(value=value, steps=steps, quotients=quotients, errors_vs_claim=errors)


@dataclass(frozen=True)
class ResidualScan:
    radii: tuple[float, ...]
    residuals: tuple[float, ...]

    def worst_decay_ratio(self) -> float:
        """Largest consecutive residual ratio (identically-zero pairs count as 0)."""
        worst = 0.0
        for earlier, later in zip(self.residuals, self.residuals[1:]):
            if earlier == 0.0:
                worst = max(worst, 0.0 if later == 0.0 else float("inf"))
            else:
                worst = max(worst, later / earlier)
        return worst


def _uniform_ball_point(rng: np.random.Generator, dim: int) -> Vector:
    # Gaussian direction scaled by U^(1/dim): exact uniform sampling that stays
    # usable at dim 16, where cube rejection accepts ~4e-6 of draws.
    while True:
        g = rng.standard_normal(dim)
        n = float(np.linalg.norm(g))
        if n > 0.0:
            return (g / n) * rng.random() ** (1.0 / dim)


def strict_residual_scan(
    f: Callable[[Vector], Vector],
    deriv: Callable[[Vector], Vector],
    base,
    radii: Sequence[float] = (1e-2, 1e-3, 1e-4, 1e-5),
    samples_per_radius: int = 64,
    seed: int = 0,
) -> ResidualScan:
    """Max normalized residual ‖f(u) - f(v) - A(u - v)‖ / ‖u - v‖ per radius.

    Both u and v are drawn uniformly from the ball of the given radius
    around the base point.  A derivative candidate A passes when residuals
    decay toward zero with the radius; a genuine strict-Fréchet derivative
    decays linearly (one decade of radius costs one decade of residual).
    A radius too small to move the base point in floating point is refused
    with ValueError, since every pair would collapse onto the base point.
    """
    base = as_vector(base)
    radii = tuple(float(r) for r in radii)
    if not radii or any(r <= 0.0 or not np.isfinite(r) for r in radii):
        raise ValueError("radii must be positive and finite")
    if samples_per_radius < 1:
        raise ValueError("samples_per_radius must be at least 1")
    rng = np.random.default_rng(seed)
    dim = base.size
    residuals = []
    for radius in radii:
        worst = 0.0
        for _ in range(samples_per_radius):
            for _ in range(_MAX_REDRAWS):
                u = base + radius * _uniform_ball_point(rng, dim)
                v = base + radius * _uniform_ball_point(rng, dim)
                gap = float(np.linalg.norm(u - v))
                if gap > 0.0:
                    break
            else:
                raise ValueError(
                    f"scan radius {radius:.17g} does not move the base point in floating point"
                )
            num = np.asarray(f(u), dtype=np.float64) - np.asarray(f(v), dtype=np.float64)
            num = num - np.asarray(deriv(u - v), dtype=np.float64)
            worst = max(worst, float(np.linalg.norm(num)) / gap)
        residuals.append(worst)
    return ResidualScan(radii=radii, residuals=tuple(residuals))


def _one_sided_pair(f, x, d, steps) -> tuple[Vector, Vector]:
    """Forward-difference one-sided derivatives of f at x along +d and -d."""
    return fd_directional(f, x, d, steps).value, fd_directional(f, x, -d, steps).value


def refute_linearity(
    f: Callable[[Vector], Vector],
    x,
    d,
    steps: Sequence[float] = (1e-3, 1e-4, 1e-5),
) -> float:
    """Violation of A(d) = -A(-d) for the one-sided derivatives of f at x.

    Returns ‖deriv₊ + deriv₋‖ where deriv± are forward-difference one-sided
    derivatives along +d and -d.  Any linear derivative candidate must make
    this zero; a gap certifies that no Fréchet derivative exists.
    """
    fwd, bwd = _one_sided_pair(f, x, as_vector(d), steps)
    return float(np.linalg.norm(fwd + bwd))


def refutation_threshold(x, d, steps: Sequence[float] = (1e-3, 1e-4, 1e-5)) -> float:
    """Gap size above which refute_linearity counts as a refutation.

    100x a conservative forward-difference error budget at the smallest
    step: curvature (O(t ‖d‖²)) plus roundoff (O(eps (1 + ‖x‖ + ‖d‖) / t)).
    """
    x, d = as_vector(x), as_vector(d)
    t = min(float(s) for s in steps)
    nd = float(np.linalg.norm(d))
    nx = float(np.linalg.norm(x))
    return 100.0 * (t * nd**2 + _EPS * (1.0 + nx + nd) / t)


class OracleConvergenceError(RuntimeError):
    """Projected-gradient oracle ran out of iterations; carries the last iterate."""

    def __init__(self, message: str, last_iterate: Vector):
        super().__init__(message)
        self.last_iterate = last_iterate


def qp_projection_oracle(
    feasible: Ball | str,
    x,
    iters: int = 500,
    tol: float = 1e-10,
    step: float = 0.5,
) -> Vector:
    """Nearest feasible point via projected gradient on ½‖z - x‖².

    ``feasible`` is a Ball or the string ``"orthant"`` (nonnegative
    coordinates).  The feasibility clamps below are written inline on
    purpose: this code path shares nothing with the closed-form projection
    functions it is used to audit.  With step η the update is a (1 - η)
    contraction whose unique fixed point is the true nearest point, so the
    step-change tolerance bounds the final error by tol (1 - η) / η.
    """
    x = as_vector(x)
    if not 0.0 < step < 1.0:
        raise ValueError("step must lie in (0, 1)")

    if isinstance(feasible, Ball):
        center, radius = feasible.center, feasible.radius
        if center.size != x.size:
            raise ValueError(f"dimension mismatch: {x.size} vs {center.size}")

        def clamp(z: Vector) -> Vector:
            d = z - center
            dist = float(np.linalg.norm(d))
            if dist <= radius:
                return z
            return center + (radius / dist) * d

    elif feasible == "orthant":

        def clamp(z: Vector) -> Vector:
            return np.maximum(z, 0.0)

    else:
        raise ValueError("feasible must be a Ball or 'orthant'")

    z = clamp(x)
    change = float("inf")
    for _ in range(iters):
        z_next = clamp((1.0 - step) * z + step * x)
        change = float(np.linalg.norm(z_next - z))
        z = z_next
        if change <= tol:
            return z
    raise OracleConvergenceError(
        f"no convergence within {iters} iterations (last change {change:.3e})", z
    )
