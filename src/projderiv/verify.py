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
because each stack of samples is drawn up front in index order, before any
of it is evaluated, and merged by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .balls import Ball
from .vectors import Vector, as_vector, _same_dim

_EPS = float(np.finfo(np.float64).eps)
# Redraws of a sample pair that collapsed onto one point before the scan
# gives up: a usable radius collapses a pair with probability ~0.
_MAX_REDRAWS = 100
# Coordinates per (pairs, n) stack of the residual scan, whatever samples_per_radius is
_CHUNK_COORDS = 2**16
# Projected-gradient oracle: iteration budget, step-change tolerance, step η in (0, 1)
_ORACLE_ITERS = 500
_ORACLE_TOL = 1e-10
_ORACLE_STEP = 0.5


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


def _sample_pairs(rng: np.random.Generator, base: Vector, radius: float, count: int):
    """u, v, u - v, ‖u - v‖ and usability (distinct, nonzero Gaussians) of ``count`` pairs.

    Points are drawn one at a time, u before v, as a Gaussian direction scaled by
    U^(1/n): exact, and usable at n = 16, where cube rejection accepts ~4e-6 of draws.
    """
    dim = base.size
    g = np.empty((count, 2, dim))
    radial = []
    for row in g.reshape(-1, dim):
        rng.standard_normal(out=row)
        radial.append(rng.random() ** (1.0 / dim))  # Python **: np.power rounds differently
    norm = np.sqrt(np.vecdot(g, g))[..., None]
    drawn = norm > 0.0
    g /= np.where(drawn, norm, 1.0)  # an all-zero draw stays zero, without a 0/0 warning
    g *= np.array(radial).reshape(count, 2, 1)
    points = base + radius * g
    u, v = points[:, 0], points[:, 1]
    diff = u - v
    gap = np.sqrt(np.vecdot(diff, diff))
    return u, v, diff, gap, (gap > 0.0) & drawn.all(axis=(1, 2))


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
    ``f`` and ``deriv`` receive and return (S, n) stacks, one point or
    difference per row, once per radius and chunk of ≤ ``_CHUNK_COORDS``
    coordinates.  Collapsed pairs are redrawn after their chunk; a radius too
    small to move the base point in floating point is refused with ValueError.
    """
    base = as_vector(base)
    radii = tuple(float(r) for r in radii)
    if not radii or any(r <= 0.0 or not np.isfinite(r) for r in radii):
        raise ValueError("radii must be positive and finite")
    if samples_per_radius < 1:
        raise ValueError("samples_per_radius must be at least 1")
    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_COORDS // base.size)
    residuals = []
    for radius in radii:
        worst = 0.0
        for start in range(0, samples_per_radius, chunk):
            count = min(chunk, samples_per_radius - start)
            u, v, diff, gap, usable = _sample_pairs(rng, base, radius, count)
            for i in np.flatnonzero(~usable):
                for _ in range(_MAX_REDRAWS - 1):
                    *pair, ok = _sample_pairs(rng, base, radius, 1)
                    if ok[0]:
                        break
                else:
                    raise ValueError(
                        f"scan radius {radius:.17g} does not move the base point in floating point"
                    )
                u[i], v[i], diff[i], gap[i] = (a[0] for a in pair)
            num = np.asarray(f(u), dtype=np.float64) - np.asarray(f(v), dtype=np.float64)
            num = num - np.asarray(deriv(diff), dtype=np.float64)
            # fmax: a NaN quotient (inf - inf in f) is skipped, not propagated
            ratios = np.sqrt(np.vecdot(num, num)) / gap
            worst = max(worst, float(np.fmax.reduce(ratios, initial=0.0)))
        residuals.append(worst)
    return ResidualScan(radii=radii, residuals=tuple(residuals))


@dataclass(frozen=True)
class Refutation:
    """Certificate that no linear map matches both one-sided derivatives.

    ``forward_limit`` is the one-sided derivative along ``direction`` and
    ``backward_limit`` the value A(direction) = -A(-direction) that the one
    along -direction forces on a linear A; a nonzero ``gap`` is the contradiction.
    """

    direction: Vector
    forward_limit: Vector
    backward_limit: Vector
    gap: float


def refute_linearity(
    f: Callable[[Vector], Vector],
    x,
    d,
    steps: Sequence[float] = (1e-3, 1e-4, 1e-5),
) -> Refutation:
    """Probe f at x from both sides of d with forward differences.

    Any linear derivative candidate makes the gap zero; a gap certifies that
    no Fréchet derivative exists.
    """
    d = as_vector(d)
    forward = fd_directional(f, x, d, steps).value
    backward = -fd_directional(f, x, -d, steps).value
    gap = float(np.linalg.norm(forward - backward))
    return Refutation(direction=d, forward_limit=forward, backward_limit=backward, gap=gap)


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
    """Projected-gradient oracle ran out of iterations."""


def qp_projection_oracle(feasible: Ball | str, x) -> Vector:
    """Nearest feasible point via projected gradient on ½‖z - x‖².

    ``feasible`` is a Ball or the string ``"orthant"`` (nonnegative
    coordinates).  The feasibility clamps below are written inline on
    purpose: this code path shares nothing with the closed-form projection
    functions it is used to audit.  With step η the update is a (1 - η)
    contraction whose unique fixed point is the true nearest point, so the
    step-change tolerance bounds the final error by tol (1 - η) / η.
    """
    x = as_vector(x)

    if isinstance(feasible, Ball):
        center, radius = feasible.center, feasible.radius
        _same_dim(x, center)

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
    for _ in range(_ORACLE_ITERS):
        z_next = clamp((1.0 - _ORACLE_STEP) * z + _ORACLE_STEP * x)
        change = float(np.linalg.norm(z_next - z))
        z = z_next
        if change <= _ORACLE_TOL:
            return z
    raise OracleConvergenceError(
        f"no convergence within {_ORACLE_ITERS} iterations (last change {change:.3e})"
    )
