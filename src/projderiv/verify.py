"""Numerical harness for checking claimed derivative operators.

Three independent instruments:

* forward-difference directional derivatives at one step (:func:`fd_directional`),
* residual scans over shrinking neighborhoods that certify strict-Fréchet
  behavior by residual decay (:func:`strict_residual_scan`),
* an optimality certificate for a claimed nearest point
  (:func:`qp_projection_oracle`): the variational characterisation of the
  projection, checked directly on the point, with no iteration and nothing
  shared with the closed-form projections it audits.

All sampling is seeded and single-threaded.  The residual scan draws each
chunk of sample pairs in one bulk call, before any of it is evaluated, and
reuses those unit-ball pairs at every radius (common random numbers), so a
report depends only on the seed.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .vectors import Vector, as_vector, norm, _same_dim, _scaled

if TYPE_CHECKING:
    from .balls import Ball

_EPS = float(np.finfo(np.float64).eps)
# Forward-difference step of every refutation, and the cap on verify's fd_match step
FD_STEP = 1e-5
# The residual scan draws its pairs in chunks of _CHUNK_COORDS coordinates per point (which
# fixes the random stream, and so every report) and calls f and deriv on _CALL_COORDS at most:
# a 64 KiB stack stays in L2, and no temporary passes glibc's 128 KiB mmap threshold, past
# which each goes back to the OS when freed and faults in again (~1,800 per scan at n = 1000)
_CHUNK_COORDS = 2**16
_CALL_COORDS = 2**13
# Gate of the optimality certificate, in units of 2^k just above the job scale
CERTIFICATE_GATE = 64.0 * _EPS


def fd_directional(f: Callable[[Vector], Vector], x, w, step: float = FD_STEP) -> Vector:
    """One-sided difference quotient (f(x + t w) - f(x)) / t at step t."""
    x, w = as_vector(x), as_vector(w)
    _same_dim(x, w)
    t = float(step)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("step must be positive and finite")
    with np.errstate(over="ignore"):
        moved = x + t * w
    if not np.isfinite(moved).all():
        raise ValueError(f"step {t:.17g} takes x + t·w out of the float range")
    fx = np.asarray(f(x), dtype=np.float64)
    return (np.asarray(f(moved), dtype=np.float64) - fx) / t


class ResidualScan(NamedTuple):
    radii: tuple[float, ...]
    residuals: tuple[float, ...]

    def worst_decay_ratio(self) -> float:
        """Largest consecutive residual ratio (identically-zero pairs count as 0).  Radii
        that do not strictly decrease are refused: their ratios measure no decay."""
        for wider, narrower in zip(self.radii, self.radii[1:]):
            if not narrower < wider:
                raise ValueError(
                    f"scan radii must strictly decrease, not {wider:.17g} then {narrower:.17g}"
                )
        worst = 0.0
        for earlier, later in zip(self.residuals, self.residuals[1:]):
            if earlier == 0.0:
                worst = max(worst, 0.0 if later == 0.0 else float("inf"))
            else:
                worst = max(worst, later / earlier)
        return worst


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
    Pairs are drawn in chunks of ``_CHUNK_COORDS`` coordinates per point, as
    unit-ball points ĝ = g/‖g‖·U^(1/n) (exact, and usable at n = 16, where
    cube rejection accepts ~4e-6 of draws); each radius evaluates x + ρ·ĝ.
    ``f`` and ``deriv`` take and return (S, n) stacks of at most
    ``_CALL_COORDS`` coordinates (or one row): a group of radii where a chunk
    of pairs fits (all four default radii for n ≤ 16 and 64 samples), else one
    radius and max(1, 2^13 // n) pairs (8 at n = 1000).  Each row is computed
    as it would be alone, so the blocking changes no bit.  A pair that rounds
    onto one point is skipped.  A radius is refused with ValueError where
    max|x_i| + 2ρ leaves the float range (points reach max|x_i| + ρ and their
    differences 2ρ), and where no pair moves the base point in floating point.
    """
    base = as_vector(base)
    radii = tuple(float(r) for r in radii)
    if not radii or any(r <= 0.0 or not np.isfinite(r) for r in radii):
        raise ValueError("radii must be positive and finite")
    if samples_per_radius < 1:
        raise ValueError("samples_per_radius must be at least 1")
    reach = float(np.max(np.abs(base)))
    for radius in radii:
        if not math.isfinite(reach + 2.0 * radius):  # Python floats overflow to inf silently
            raise ValueError(f"scan radius {radius:.17g} leaves the float range")
    rng = np.random.default_rng(seed)
    dim = base.size
    chunk = max(1, _CHUNK_COORDS // dim)  # pairs per draw
    rows = max(1, _CALL_COORDS // dim)  # pairs per call
    rho = np.array(radii)[:, None, None]
    # scale by 2^-e ≈ 1/radius before squaring: exact, and no overflow at any scale
    exps = -np.frexp(rho)[1]
    worst = np.zeros(len(radii))
    moved = np.zeros(len(radii), dtype=bool)
    for start in range(0, samples_per_radius, chunk):
        g = rng.standard_normal((min(chunk, samples_per_radius - start), 2, dim))
        g *= rng.random((len(g), 2, 1)) ** (1.0 / dim) / np.sqrt(np.vecdot(g, g))[..., None]
        g = g.transpose(1, 0, 2)[:, None]  # (2, 1, pairs, n): u draws, then v draws
        pairs = g.shape[2]
        group = max(1, rows // pairs)  # radii per call, where a call takes every pair
        sq = np.empty((2, len(radii), pairs))  # ‖u − v‖² and ‖residual‖², scaled by 2^2e
        for k, b in itertools.product(range(0, len(radii), group), range(0, pairs, rows)):
            ks, bs = slice(k, k + group), slice(b, b + rows)
            points = rho[ks] * g[:, :, bs]
            points += base  # (2, radii, rows, n): at most 128 KiB
            u, v = points[0].reshape(-1, dim), points[1].reshape(-1, dim)
            diff = u - v
            num = np.asarray(f(u), dtype=np.float64) - np.asarray(f(v), dtype=np.float64)
            num = num - np.asarray(deriv(diff), dtype=np.float64)
            for out, a in zip(sq, (diff, num)):
                s = np.ldexp(a.reshape(points.shape[1:]), exps[ks])
                np.vecdot(s, s, out=out[ks, bs])
        gap, top = np.sqrt(sq)
        moved |= gap.any(axis=-1)
        ratios = np.divide(top, gap, out=np.zeros_like(gap), where=gap > 0.0)
        # fmax: a NaN quotient (inf - inf in f) is skipped, not propagated
        worst = np.fmax(worst, np.fmax.reduce(ratios, axis=-1, initial=0.0))
    for radius, ok in zip(radii, moved):
        if not ok:
            raise ValueError(
                f"scan radius {radius:.17g} does not move the base point in floating point"
            )
    return ResidualScan(radii=radii, residuals=tuple(worst.tolist()))


class Refutation(NamedTuple):
    """Certificate that no linear map matches both one-sided derivatives.

    ``forward_limit`` is the one-sided derivative along ``direction`` and
    ``backward_limit`` the value A(direction) = -A(-direction) that the one
    along -direction forces on a linear A; a nonzero ``gap`` is the contradiction.
    """

    direction: Vector
    forward_limit: Vector
    backward_limit: Vector
    gap: float


def refute_linearity(f: Callable[[Vector], Vector], x, d, step: float = FD_STEP) -> Refutation:
    """Probe f at x from both sides of d with forward differences.

    Any linear derivative candidate makes the gap zero; a gap certifies that
    no Fréchet derivative exists.
    """
    d = as_vector(d)
    forward = fd_directional(f, x, d, step)
    backward = -fd_directional(f, x, -d, step)
    gap = float(norm(forward - backward))
    return Refutation(direction=d, forward_limit=forward, backward_limit=backward, gap=gap)


def refutation_threshold(ball: Ball | None, x, d, step: float = FD_STEP) -> float:
    """Gap size above which refute_linearity counts as a refutation.

    100x a forward-difference error budget at step t, in units of length (2^k
    times a job has 2^k times its threshold): t·‖d‖·(‖d‖/r) + eps·(‖x_d‖ + ‖d‖)/t.
    On a Ball of radius r, x_d = x; on the nonnegative orthant (``ball`` None) the clamp has
    no curvature term, and x_d is x on d's support (coordinates d does not move stay exact).
    """
    x, d = as_vector(x), as_vector(d)
    _same_dim(x, d)
    nd, t = float(norm(d)), float(step)
    if ball:
        return 100.0 * (t * nd * (nd / ball.radius) + _EPS * (float(norm(x)) + nd) / t)
    return 100.0 * (_EPS * (float(norm(x[d != 0.0])) + nd) / t)


def qp_projection_oracle(ball: Ball | None, x, p) -> float:
    """Optimality certificate for a claimed nearest point p of x.

    p = P_C(x) iff p ∈ C and x − p lies in the normal cone of C at p
    (Bauschke & Combettes 2017, Thm 3.16).  C is the Ball ``ball``, or the
    nonnegative orthant where ``ball`` is None.  With g = x − p:

    * ball, d = p − c: ‖d‖ ≤ r; g = λd with λ ≥ 0, measured as
      ‖ ‖g‖d − ‖d‖g ‖ / max(‖g‖, ‖d‖), which to first order is how far p must
      move for it to hold (the bare ⟨g, d⟩ forms lose all precision when
      r ≪ ‖g‖); and λ(‖d‖ − r) = 0, measured as min(‖g‖, |‖d‖ − r|);
    * orthant: p ≥ 0, g ≤ 0, and p ⊙ g = 0 as min(|p_i|, |g_i|).

    Every residual is computed on coordinates divided by 2^k, the power of
    two just above max(‖x‖∞, ‖p‖∞, ‖c‖∞, r) (a true projection lies in the
    hull of x and c, so p does not raise it), and the largest is returned in
    those units: exact, and the same at every scale.  Interior and orthant
    projections certify as exactly 0.  The name is kept from the solver this
    replaced, since benchmark traces refer to it.
    """
    x, p = as_vector(x), as_vector(p)
    _same_dim(x, p)
    rest = ()
    if ball:
        _same_dim(x, ball.center)
        rest = (ball.center, [ball.radius])
    n = x.size
    s, _ = _scaled(np.concatenate((x, p, *rest)))
    x, p = s[:n], s[n : 2 * n]
    g = x - p
    if ball:
        d = p - s[2 * n : 3 * n]
        gn, dn = float(norm(g)), float(norm(d))
        off = dn - float(s[-1])
        top = max(gn, dn)
        ray = float(norm(gn * d - dn * g)) / top if top else 0.0
        residuals = [off, min(gn, abs(off)), ray]
    else:
        residuals = np.concatenate((-p, g, np.minimum(np.abs(p), np.abs(g))))
    return float(np.max(residuals, initial=0.0)) + 0.0  # + 0.0: a zero prints 0, not -0
