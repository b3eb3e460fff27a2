"""Numerical harness for checking claimed derivative operators.

Three independent instruments:

* finite differences: forward quotients along one direction or a stack of them
  (:func:`fd_directional`), and the central-difference check :func:`fd_match`,
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

from .vectors import Vector, as_points, as_vector, norm, _same_dim, _scaled

if TYPE_CHECKING:
    from .balls import Ball

_EPS = float(np.finfo(np.float64).eps)
# Forward-difference step of every refutation, and the cap on verify's fd_match step
FD_STEP = 1e-5
# The residual scan draws its pairs in chunks of _CHUNK_COORDS coordinates per point (which
# fixes the random stream, and so every report) and works in blocks of _CALL_COORDS
# coordinates of u points (f takes them over as many of v, deriv their differences): a
# block stays in L2, and no temporary passes glibc's 128 KiB mmap threshold, past which
# each goes back to the OS when freed and faults in again (~1,800 per scan at n = 1000).
# f and deriv get read-only C-contiguous views of two buffers that the next block reuses
_CHUNK_COORDS = 2**16
_CALL_COORDS = 2**13
# Gate of the optimality certificate, in units of 2^k just above the job scale
CERTIFICATE_GATE = 64.0 * _EPS


def fd_directional(f: Callable[[Vector], Vector], x, w, step: float = FD_STEP) -> Vector:
    """One-sided difference quotient (f(x + t·w) − f(x)) / t at step t, along w (n,) or each
    row of a stack (S, n).  f is called once, on x stacked over the moved points, so it must
    map each row of a stack as it would alone, as the residual scan's f does."""
    x, w = as_vector(x), as_points(w)
    return _quotients(f, x, _same_dim(x, w), step)


def _quotients(f: Callable[[Vector], Vector], x: Vector, w: Vector, step: float) -> Vector:
    """``fd_directional`` on a checked x and a checked w of its dimension, unchecked."""
    t = float(step)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("step must be positive and finite")
    moved = _moved(x, t, w, f"step {t:.17g} takes x + t·w out of the float range")
    values = np.asarray(f(np.vstack((x, moved))), dtype=np.float64)
    return ((values[1:] - values[0]) / t).reshape(w.shape)


def fd_match(f, apply, x: Vector, w: Vector, delta: float, relative: bool) -> tuple[bool, float, float]:
    """Central difference of f at x along w against ``apply(w)``: (pass, error, tolerance) as
    printed.  f is C¹ on the ball of radius δ around x and maps a (2, n) stack row by row; x
    and w are finite, w nonzero.  The gate: 1e-6·max(‖apply(w)‖, ‖w‖) if ``relative``, else 1e-9."""
    # the quotient and apply are linear in w: measure along w/2^k, exact, with k = 0 where
    # ‖w‖ is in [1/2, 2) and ‖w/2^k‖ in [1, 2) elsewhere, so ‖h·w/2^k‖ < δ/2 and x ± h·w/2^k
    # keeps x's signs and its side of the sphere at every scale of w
    s, j = _scaled(w)
    e = math.frexp(float(norm(s)))[1] + int(j)  # 2^(e − 1) ≤ ‖w‖ < 2^e
    k = 0 if e in (0, 1) else e - 1
    w = np.ldexp(w, -k)
    h = min(FD_STEP * (1.0 + float(norm(x))), delta / 4.0)
    if not 0.0 < h < np.inf:
        raise ValueError(f"fd_match step {h:.17g} leaves the float range")
    refusal = f"fd_match step {h:.17g} takes x ± h·w out of the float range"
    ahead, behind = f(_moved(x, h, np.stack((w, -w)), refusal))
    dw = apply(w)
    err = float(norm((ahead - behind) / (2.0 * h) - dw))  # in units of 2^k, as w
    tol = 1e-6 * max(float(norm(dw)), float(norm(w)))
    with np.errstate(over="ignore"):  # a length beyond the float range shows as inf
        shown_err, shown_tol = np.ldexp((err, tol), k).tolist()
    if relative:  # decided in units of 2^k, where neither side underflows
        return err <= tol, shown_err, shown_tol
    return shown_err <= 1e-9, shown_err, 1e-9


def _moved(x: Vector, t: float, w: Vector, refusal: str) -> Vector:
    """x + t·w, refused with ValueError(refusal), and no warning, where it leaves the float range."""
    with np.errstate(over="ignore"):
        moved = x + t * w
    if not np.isfinite(moved).all():
        raise ValueError(refusal)
    return moved


def default_radii(delta: float) -> tuple[float, ...]:
    """Four scan radii falling by tenths from min(1e-2, δ/4), for a map that is C¹ on the ball
    of radius δ; refused where δ is so small that a radius rounds to 0."""
    radii = tuple(min(1e-2, delta / 4.0) * 10.0**-k for k in range(4))
    if 0.0 in radii:
        raise ValueError(
            f"default scan radii round to 0 at smooth radius {delta:.17g}; supply option radii"
        )
    return radii


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
    radii: Sequence[float] = default_radii(math.inf),
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
    The pairs are evaluated in blocks: a group of radii where a chunk of pairs
    fits in ``_CALL_COORDS`` coordinates (all four default radii for n ≤ 16
    and 64 samples), else one radius and max(1, 2^13 // n) pairs (8 at
    n = 1000).  ``f`` is called once per block, on a (2S, n) stack of its S u
    points over its S v points, and ``deriv`` once, on the (S, n) stack of
    their differences; each returns a stack of the shape it takes and computes
    each row as it would alone, so the blocking changes no bit.  Both stacks are
    read-only C-contiguous views of two buffers made once per scan and overwritten
    by the next block, so a map must neither keep nor write its argument.  A pair
    that rounds onto one point is skipped.  A radius is refused with ValueError where
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
    first = min(chunk, samples_per_radius)  # the first chunk's blocks are the largest
    size = 2 * dim * min(max(1, rows // first), len(radii)) * min(rows, first)
    point_buf, s_buf = np.empty(size), np.empty(size)
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
            shape = (2, min(group, len(radii) - k), min(rows, pairs - b), dim)
            points = np.multiply(rho[ks], g[:, :, bs], out=point_buf[: math.prod(shape)].reshape(shape))
            points += base  # the u points, then the v points, in a C-order prefix of their buffer
            points.flags.writeable = False  # so a map that writes its argument fails loudly
            fp = np.asarray(f(points.reshape(-1, dim)), dtype=np.float64).reshape(shape)
            s = s_buf[: points.size].reshape(shape)  # u − v, then f(u) − f(v) − deriv(u − v)
            diff = np.subtract(*points, out=s[0]).reshape(-1, dim)
            diff.flags.writeable = False
            np.subtract(*fp, out=s[1])
            s[1] -= np.asarray(deriv(diff), dtype=np.float64).reshape(s[1].shape)
            np.ldexp(s, exps[ks], out=s)
            np.vecdot(s, s, out=sq[:, ks, bs])
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
    """Probe f at x from both sides of d with forward differences, in one call of f.

    Any linear derivative candidate makes the gap zero; a gap certifies that
    no Fréchet derivative exists.
    """
    x, d = as_vector(x), as_vector(d)
    _same_dim(x, d)
    limits = _quotients(f, x, np.stack((d, -d)), step)
    forward, backward = limits[0], -limits[1]
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
