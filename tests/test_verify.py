import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projderiv import verify
from projderiv import (
    Ball,
    OracleConvergenceError,
    ball_frechet_derivative,
    cone_frechet_derivative,
    fd_directional,
    project_ball,
    project_cone,
    qp_projection_oracle,
    refutation_threshold,
    refute_linearity,
    strict_residual_scan,
)
from projderiv.vectors import as_vector

# The scan one sample pair at a time, with np.linalg.norm and no power-of-two
# scaling, from the same bulk stream: one normal and one uniform draw per chunk
# of pairs, reused at every radius.  The batched scan must match it bit for bit.
def reference_scan(f, deriv, base, radii=(1e-2, 1e-3, 1e-4, 1e-5), samples_per_radius=64, seed=0):
    base = as_vector(base)
    rng = np.random.default_rng(seed)
    dim = base.size
    chunk = max(1, verify._CHUNK_COORDS // dim)
    pairs = []
    for start in range(0, samples_per_radius, chunk):
        g = rng.standard_normal((min(chunk, samples_per_radius - start), 2, dim))
        radial = rng.random((len(g), 2)) ** (1.0 / dim)
        for points, scales in zip(g, radial):
            pairs.append([p * (s / np.linalg.norm(p)) for p, s in zip(points, scales)])
    residuals = []
    for radius in radii:
        worst = 0.0
        for gu, gv in pairs:
            u, v = base + radius * gu, base + radius * gv
            gap = float(np.linalg.norm(u - v))
            if gap == 0.0:
                continue
            num = np.asarray(f(u), dtype=np.float64) - np.asarray(f(v), dtype=np.float64)
            num = num - np.asarray(deriv(u - v), dtype=np.float64)
            worst = max(worst, float(np.linalg.norm(num)) / gap)
        residuals.append(worst)
    return tuple(residuals)


def test_fd_exact_on_piecewise_linear_map():
    est = fd_directional(project_cone, [0.0, 0.0], [1.0, -1.0], claim=[1.0, 0.0])
    assert np.array_equal(est.value, [1.0, 0.0])
    # the clamp is exactly linear along this ray: every quotient is exact
    assert est.errors_vs_claim == (0.0, 0.0, 0.0)


def test_fd_first_order_error_on_smooth_map():
    square = lambda v: v * v
    x, w = np.array([1.0, 2.0]), np.array([1.0, 1.0])
    est = fd_directional(square, x, w, claim=2.0 * x * w)
    # quotient = 2xw + t w², so the error against the derivative is t‖w²‖
    for t, err in zip(est.steps, est.errors_vs_claim):
        assert err == pytest.approx(t * np.sqrt(2.0), rel=1e-4)
    e3, e4, e5 = est.errors_vs_claim
    assert 9.9 <= e3 / e4 <= 10.1
    assert 9.9 <= e4 / e5 <= 10.1


def test_fd_rejects_bad_steps():
    with pytest.raises(ValueError):
        fd_directional(project_cone, [1.0], [1.0], steps=())
    with pytest.raises(ValueError):
        fd_directional(project_cone, [1.0], [1.0], steps=(1e-3, 0.0))
    with pytest.raises(ValueError):
        fd_directional(project_cone, [1.0], [1.0], steps=(-1e-3,))


def test_scan_zero_residuals_for_exact_identity():
    scan = strict_residual_scan(lambda v: v, lambda w: w, [0.3, -0.7], seed=1)
    assert scan.residuals == (0.0, 0.0, 0.0, 0.0)
    assert scan.worst_decay_ratio() == 0.0


def test_scan_decays_on_curved_region():
    ball = Ball(center=[0.0, 0.0, 0.0], radius=1.0)
    x = np.array([2.0, 0.5, -0.5])
    deriv = ball_frechet_derivative(ball, x)
    scan = strict_residual_scan(
        lambda p: project_ball(ball, p), deriv.apply, x, samples_per_radius=50, seed=2
    )
    assert all(r > 0.0 for r in scan.residuals)
    assert scan.worst_decay_ratio() <= 0.5


def test_scan_is_deterministic_per_seed():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    f = lambda p: project_ball(ball, p)
    deriv = ball_frechet_derivative(ball, [3.0, 1.0])
    a = strict_residual_scan(f, deriv.apply, [3.0, 1.0], seed=42)
    b = strict_residual_scan(f, deriv.apply, [3.0, 1.0], seed=42)
    assert a.residuals == b.residuals


def test_scan_validation():
    with pytest.raises(ValueError):
        strict_residual_scan(lambda v: v, lambda w: w, [1.0], radii=())
    with pytest.raises(ValueError):
        strict_residual_scan(lambda v: v, lambda w: w, [1.0], radii=(0.0,))
    with pytest.raises(ValueError):
        strict_residual_scan(lambda v: v, lambda w: w, [1.0], samples_per_radius=0)


def _parity_case(case, n):
    """(f, deriv, base) of a scan case at dimension n."""
    rng = np.random.default_rng(n)
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    if case.startswith("ball"):
        ball = Ball(center=rng.standard_normal(n), radius=1.5)
        f = lambda p: project_ball(ball, p)
        scale = {"ball_interior": 0.5, "ball_exterior": 3.0, "ball_sphere": 1.5}[case]
        base = ball.center + scale * direction
        if case == "ball_sphere":
            return f, (lambda w: w), base  # the identity candidate, which must fail
        return f, ball_frechet_derivative(ball, base).apply, base
    magnitude = np.abs(direction) + 0.25
    sign = {"cone_positive": 1.0, "cone_negative": -1.0}.get(case)
    base = magnitude * (np.where(np.arange(n) % 2, -1.0, 1.0) if sign is None else sign)
    return project_cone, cone_frechet_derivative(base).apply, base


PARITY_CASES = [
    (case, n)
    for n in (1, 2, 16, 1000)
    for case in (
        "ball_interior",
        "ball_exterior",
        "ball_sphere",
        "cone_positive",
        "cone_negative",
        "cone_mixed",
    )
    if not (case == "cone_mixed" and n == 1)
]


@pytest.mark.parametrize("case,n", PARITY_CASES)
def test_batched_scan_matches_pairwise_reference_bit_for_bit(case, n):
    f, deriv, base = _parity_case(case, n)
    for seed in (0, 5, 123):
        scan = strict_residual_scan(f, deriv, base, seed=seed)
        assert scan.residuals == reference_scan(f, deriv, base, seed=seed)


def test_scan_spanning_several_chunks_matches_reference():
    f, deriv, base = _parity_case("ball_exterior", 1000)
    samples = 150
    assert samples > 2 * (verify._CHUNK_COORDS // base.size)  # at least 3 chunks
    radii = (1e-2, 1e-4)
    for seed in (2, 9):
        scan = strict_residual_scan(f, deriv, base, radii, samples, seed)
        assert scan.residuals == reference_scan(f, deriv, base, radii, samples, seed)


def _ball_at_one():
    ball = Ball(center=[0.0], radius=0.5)
    return (lambda p: project_ball(ball, p)), ball_frechet_derivative(ball, [1.0]).apply


def test_scan_skips_pairs_that_round_onto_one_point():
    # 2e-16 spans only the floats next to 1.0, so many pairs round onto one point
    f, deriv = _ball_at_one()
    scan = lambda: strict_residual_scan(f, deriv, [1.0], radii=(2e-16,), seed=3).residuals
    first = scan()
    assert np.isfinite(first[0])
    assert first == scan() == reference_scan(f, deriv, [1.0], radii=(2e-16,), seed=3)


def test_scan_refuses_a_radius_that_moves_no_pair():
    f, deriv = _ball_at_one()
    message = f"scan radius {1e-20:.17g} does not move the base point in floating point"
    with pytest.raises(ValueError, match=re.escape(message)):
        strict_residual_scan(f, deriv, [1.0], radii=(1e-2, 1e-20), seed=3)


# |k| ≥ 600 reaches the points whose squared differences overflow or underflow,
# so both ends are drawn as often as the middle.  The candidate comes from the
# unscaled x: classify_cone's sign band is absolute, so it would misclassify
# some scaled points.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    x=st.lists(st.floats(0.25, 4.0) | st.floats(-4.0, -0.25), min_size=1, max_size=4),
    radii=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=3),
    k=st.integers(-1000, -600) | st.integers(-599, 599) | st.integers(600, 1000),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_residuals_are_invariant_under_power_of_two_scaling(x, radii, k, seed):
    x = np.array(x)
    deriv = cone_frechet_derivative(x).apply
    unit = strict_residual_scan(project_cone, deriv, x, radii, 16, seed)
    scaled_radii = [math.ldexp(r, k) for r in radii]
    scaled = strict_residual_scan(project_cone, deriv, np.ldexp(x, k), scaled_radii, 16, seed)
    assert scaled.residuals == unit.residuals


def test_sphere_point_residuals_do_not_decay():
    # identity candidate at a sphere point: residuals stay pinned near 1
    ball = Ball(center=[0.0, 0.0, 0.0], radius=1.5)
    x = 1.5 * np.array([2.0, 0.0, 1.0]) / np.linalg.norm([2.0, 0.0, 1.0])
    f = lambda p: project_ball(ball, p)
    scan = strict_residual_scan(f, lambda w: w, x, samples_per_radius=100, seed=0)
    assert all(r >= 0.5 for r in scan.residuals)
    assert scan.worst_decay_ratio() > 0.5
    # dense radial oracle: outside-outside pairs realize residual exactly 1,
    # straddling pairs exactly 1/2 -- the floor is structural, not sampling luck
    worst = 0.0
    for s in np.linspace(1e-6, 1e-2, 40):
        for t in np.linspace(1e-6, 1e-2, 40):
            if s == t:
                continue
            u, v = (1.0 + s) * x, (1.0 + t) * x
            worst = max(worst, np.linalg.norm(f(u) - f(v) - (u - v)) / np.linalg.norm(u - v))
    assert worst == pytest.approx(1.0, abs=1e-9)
    u, v = 1.001 * x, 0.999 * x
    straddle = np.linalg.norm(f(u) - f(v) - (u - v)) / np.linalg.norm(u - v)
    assert straddle == pytest.approx(0.5, abs=1e-12)


def test_refute_linearity_on_kinked_and_smooth_maps():
    kink = lambda v: np.abs(v)
    cert = refute_linearity(kink, [0.0, 0.0], [1.0, 0.0])
    gap = cert.gap
    assert gap == pytest.approx(2.0, abs=1e-12)
    assert np.array_equal(cert.direction, [1.0, 0.0])
    assert np.allclose(cert.forward_limit, [1.0, 0.0], atol=1e-12)
    assert np.allclose(cert.backward_limit, [-1.0, 0.0], atol=1e-12)
    assert refute_linearity(lambda v: v, [0.0, 0.0], [1.0, 0.0]).gap == 0.0
    threshold = refutation_threshold([0.0, 0.0], [1.0, 0.0])
    assert 0.0 < threshold < 0.01 < gap


def test_oracle_matches_closed_forms():
    rng = np.random.default_rng(17)
    ball = Ball(center=[0.5, -1.0, 0.0], radius=1.25)
    for _ in range(50):
        x = rng.normal(scale=2.0, size=3)
        assert np.linalg.norm(qp_projection_oracle(ball, x) - project_ball(ball, x)) <= 1e-9
        assert np.linalg.norm(qp_projection_oracle("orthant", x) - project_cone(x)) <= 1e-9


def test_oracle_interior_point_is_fixed():
    ball = Ball(center=[0.0, 0.0], radius=2.0)
    assert np.array_equal(qp_projection_oracle(ball, [0.5, 0.5]), [0.5, 0.5])
    assert np.array_equal(qp_projection_oracle("orthant", [0.5, 0.5]), [0.5, 0.5])


def test_oracle_validation():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    with pytest.raises(ValueError):
        qp_projection_oracle(ball, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        qp_projection_oracle("simplex", [1.0])


def test_oracle_reports_exhausted_iteration_budget(monkeypatch):
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    assert np.allclose(qp_projection_oracle(ball, [3.0, 4.0]), [0.6, 0.8], atol=1e-12)
    monkeypatch.setattr(verify, "_ORACLE_ITERS", 0)
    with pytest.raises(OracleConvergenceError, match=r"^no convergence within 0 iterations"):
        qp_projection_oracle(ball, [3.0, 4.0])
