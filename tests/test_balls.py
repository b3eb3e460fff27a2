import numpy as np
import pytest

from projderiv import (
    Ball,
    BallDerivKind,
    BallRegionTag,
    ball_frechet_derivative,
    ball_gateaux_sphere,
    classify_ball,
    fd_directional,
    project_ball,
    sphere_tolerance,
)


def unit(rng, dim):
    while True:
        g = rng.normal(size=dim)
        n = np.linalg.norm(g)
        if n > 1e-6:
            return g / n


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball(center=[0.0], radius=0.0)
    with pytest.raises(ValueError):
        Ball(center=[0.0], radius=-1.0)
    with pytest.raises(ValueError):
        Ball(center=[np.nan], radius=1.0)


def test_project_outside_point():
    ball = Ball(center=[1.0, 1.0], radius=2.0)
    assert np.array_equal(project_ball(ball, [4.0, 1.0]), [3.0, 1.0])


def test_project_inside_is_identity():
    ball = Ball(center=[1.0, 1.0], radius=2.0)
    assert np.array_equal(project_ball(ball, [1.5, 0.5]), [1.5, 0.5])


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        project_ball(Ball(center=[0.0, 0.0], radius=1.0), [1.0, 2.0, 3.0])


def test_project_near_idempotent():
    rng = np.random.default_rng(3)
    ball = Ball(center=[0.5, -1.0, 2.0], radius=1.5)
    for _ in range(200):
        x = rng.normal(scale=3.0, size=3)
        p = project_ball(ball, x)
        assert np.linalg.norm(project_ball(ball, p) - p) <= 1e-12 * ball.radius


def test_projection_translation_invariance():
    rng = np.random.default_rng(4)
    centered = Ball(center=[0.0, 0.0, 0.0], radius=1.25)
    shifted = Ball(center=[2.0, -3.0, 0.5], radius=1.25)
    c = shifted.center
    for _ in range(100):
        x = rng.normal(scale=2.0, size=3)
        assert np.allclose(project_ball(shifted, x), c + project_ball(centered, x - c), atol=1e-12)


def test_variational_inequality_and_nonexpansiveness():
    rng = np.random.default_rng(5)
    ball = Ball(center=[1.0, -1.0], radius=2.0)
    for _ in range(300):
        x, y = rng.normal(scale=4.0, size=2), rng.normal(scale=4.0, size=2)
        px, py = project_ball(ball, x), project_ball(ball, y)
        z = ball.center + ball.radius * rng.random() * unit(rng, 2)
        assert np.dot(x - px, px - z) >= -1e-10
        assert np.dot(px - py, x - y) >= np.dot(px - py, px - py) - 1e-10
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_classify_regions_and_band():
    ball = Ball(center=[0.0, 0.0], radius=2.0)
    assert classify_ball(ball, [0.5, 0.0]).tag is BallRegionTag.INTERIOR
    assert classify_ball(ball, [5.0, 0.0]).tag is BallRegionTag.EXTERIOR
    assert classify_ball(ball, [2.0, 0.0]).tag is BallRegionTag.SPHERE
    assert classify_ball(ball, [5.0, 0.0]).signed_gap == 3.0
    tol = sphere_tolerance(ball.radius)
    assert classify_ball(ball, [2.0 + tol / 2.0, 0.0]).tag is BallRegionTag.SPHERE
    assert classify_ball(ball, [2.0 + 10.0 * tol, 0.0]).tag is BallRegionTag.EXTERIOR
    assert classify_ball(ball, [2.0 - 10.0 * tol, 0.0]).tag is BallRegionTag.INTERIOR


def test_derivative_kinds_one_dimension():
    ball = Ball(center=[0.0], radius=1.0)
    inside = ball_frechet_derivative(ball, [0.3])
    assert inside.kind is BallDerivKind.IDENTITY
    assert np.array_equal(inside.apply([7.0]), [7.0])
    outside = ball_frechet_derivative(ball, [4.0])
    assert outside.kind is BallDerivKind.EXTERIOR
    # any 1-D direction is radial, so the exterior derivative annihilates it
    assert np.array_equal(outside.apply([7.0]), [0.0])
    edge = ball_frechet_derivative(ball, [1.0])
    assert edge.kind is BallDerivKind.NOT_FRECHET
    assert not edge.is_linear


def exterior_matrix(ball, x):
    """The exterior derivative as a dense matrix: r/‖a‖ (I - a aᵀ/‖a‖²), a = x - c."""
    a = np.asarray(x, dtype=float) - ball.center
    na2 = float(np.dot(a, a))
    return (ball.radius / np.sqrt(na2)) * (np.eye(a.size) - np.outer(a, a) / na2)


def matrix_of(deriv, n):
    """Column j is the action on the j-th basis vector."""
    return np.column_stack([deriv.apply(e) for e in np.eye(n)])


def test_exterior_derivative_matrix_two_dimensions():
    # unit ball, base point (2, 0): radial direction dies, tangent shrinks by 1/2
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    deriv = ball_frechet_derivative(ball, [2.0, 0.0])
    assert np.allclose(exterior_matrix(ball, [2.0, 0.0]), [[0.0, 0.0], [0.0, 0.5]], atol=1e-15)
    assert np.allclose(matrix_of(deriv, 2), [[0.0, 0.0], [0.0, 0.5]], atol=1e-15)
    assert np.allclose(deriv.apply([5.0, 3.0]), [0.0, 1.5], atol=1e-15)


def test_exterior_derivative_three_dimensions():
    ball = Ball(center=[0.0, 0.0, 0.0], radius=2.0)
    deriv = ball_frechet_derivative(ball, [3.0, 0.0, 0.0])
    expected = np.diag([0.0, 2.0 / 3.0, 2.0 / 3.0])
    assert np.allclose(exterior_matrix(ball, [3.0, 0.0, 0.0]), expected, atol=1e-15)
    assert np.allclose(matrix_of(deriv, 3), expected, atol=1e-15)


def test_exterior_derivative_eigenstructure():
    rng = np.random.default_rng(6)
    ball = Ball(center=[0.5, 0.0, -1.0], radius=1.5)
    for _ in range(50):
        x = ball.center + (ball.radius + 0.5 + rng.random()) * unit(rng, 3)
        deriv = ball_frechet_derivative(ball, x)
        anchor = x - ball.center
        dist = np.linalg.norm(anchor)
        assert np.linalg.norm(deriv.apply(anchor)) <= 1e-12 * dist
        w = rng.normal(size=3)
        w_perp = w - (np.dot(w, anchor) / dist**2) * anchor
        scale = ball.radius / dist
        assert np.allclose(deriv.apply(w_perp), scale * w_perp, atol=1e-12)
        assert np.allclose(exterior_matrix(ball, x) @ w, deriv.apply(w), atol=1e-12)


def test_exterior_derivative_matches_central_difference():
    rng = np.random.default_rng(8)
    ball = Ball(center=[1.0, -2.0, 0.0, 0.5], radius=2.0)
    for _ in range(25):
        x = ball.center + (ball.radius + 0.3 + 2.0 * rng.random()) * unit(rng, 4)
        deriv = ball_frechet_derivative(ball, x)
        w = unit(rng, 4)
        h = 1e-5 * (1.0 + np.linalg.norm(x))
        fd = (project_ball(ball, x + h * w) - project_ball(ball, x - h * w)) / (2.0 * h)
        assert np.linalg.norm(fd - deriv.apply(w)) <= 1e-6


@pytest.mark.parametrize("k", [8, 500, 900])
def test_exterior_derivative_is_exact_under_power_of_two_scaling(k):
    # the projection's derivative is homogeneous of degree 0, and scaling by 2^k
    # is exact: the action and the scale r/‖x − c‖ keep their bits, also where
    # ‖x − c‖² overflows (k = 900); below unit scale the sphere band's absolute
    # floor, not the derivative, decides the region
    rng = np.random.default_rng(9)
    center, x = rng.normal(size=3), 3.0 * unit(rng, 3)
    w = rng.normal(size=(4, 3))
    base = ball_frechet_derivative(Ball(center=center, radius=0.5), x)
    scaled = ball_frechet_derivative(Ball(center=np.ldexp(center, k), radius=np.ldexp(0.5, k)), np.ldexp(x, k))
    assert scaled.kind is BallDerivKind.EXTERIOR
    assert np.array_equal(scaled.anchor, np.ldexp(base.anchor, k))
    assert scaled.scale == base.scale
    assert np.array_equal(scaled.apply(w), base.apply(w))


def test_not_frechet_marker_refuses_linear_queries():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    marker = ball_frechet_derivative(ball, [1.0, 0.0])
    assert marker.kind is BallDerivKind.NOT_FRECHET
    assert not marker.is_linear
    with pytest.raises(ValueError):
        marker.apply([1.0, 0.0])
    with pytest.raises(ValueError):
        marker.apply(np.eye(2))


def test_gateaux_sphere_direction_classes():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    x = [1.0, 0.0]
    # outward radial: flattened to zero; inward radial: untouched
    assert np.allclose(ball_gateaux_sphere(ball, x, [1.0, 0.0]), [0.0, 0.0], atol=1e-15)
    assert np.array_equal(ball_gateaux_sphere(ball, x, [-1.0, 0.0]), [-1.0, 0.0])
    # tangent: kept; mixed outward: radial part removed
    assert np.array_equal(ball_gateaux_sphere(ball, x, [0.0, 1.0]), [0.0, 1.0])
    assert np.allclose(ball_gateaux_sphere(ball, x, [1.0, 1.0]), [0.0, 1.0], atol=1e-15)


def test_gateaux_requires_sphere_point():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    with pytest.raises(ValueError):
        ball_gateaux_sphere(ball, [0.2, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        ball_gateaux_sphere(ball, [2.0, 0.0], [1.0, 0.0])


def test_gateaux_matches_one_sided_differences():
    rng = np.random.default_rng(9)
    ball = Ball(center=[0.25, -0.5, 1.0], radius=1.3)
    f = lambda p: project_ball(ball, p)
    for _ in range(20):
        x = ball.center + ball.radius * unit(rng, 3)
        anchor = x - ball.center
        w = unit(rng, 3)
        side = np.dot(anchor, w)
        claimed = ball_gateaux_sphere(ball, x, w)
        est = fd_directional(f, x, w, steps=(1e-3, 1e-4, 1e-5), claim=claimed)
        if side < -0.1:
            # inward: projection is locally the identity along this ray
            assert est.errors_vs_claim[-1] <= 1e-9
        elif side > 0.1:
            # outward: quotient converges first-order, one decade per decade
            e3, e4, e5 = est.errors_vs_claim
            assert 5.0 <= e3 / e4 <= 20.0
            assert 5.0 <= e4 / e5 <= 20.0


def _stack_rows(ball, rng):
    """Rows at the center, inside, near the sphere on both sides (1e-15, 1e-9), far outside."""
    n = ball.center.size
    rows = [ball.center, ball.center + 0.3 * ball.radius * unit(rng, n)]
    for scale in (1.0, 1.0 - 1e-15, 1.0 + 1e-15, 1.0 - 1e-9, 1.0 + 1e-9, 7.0):
        rows.append(ball.center + scale * ball.radius * unit(rng, n))
    rows.append(ball.center + ball.radius * np.eye(n)[0])
    return np.array(rows)


def reference_projection(ball, x):
    # the one-point closed form, written the way it was before stacks were accepted
    d = x - ball.center
    dist = float(np.linalg.norm(d))
    return x if dist <= ball.radius else ball.center + (ball.radius / dist) * d


def reference_apply(ball, deriv, w):
    if deriv.kind is BallDerivKind.IDENTITY:
        return w
    a = deriv.anchor
    na2 = float(np.dot(a, a))
    return (ball.radius / np.sqrt(na2)) * (w - (float(np.dot(w, a)) / na2) * a)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 1000])
def test_stacked_projection_matches_row_by_row(n):
    rng = np.random.default_rng(n)
    ball = Ball(center=rng.normal(size=n), radius=1.25)
    stack = _stack_rows(ball, rng)
    projected = project_ball(ball, stack)
    assert projected.shape == stack.shape
    for row, got in zip(stack, projected):
        assert np.array_equal(got, project_ball(ball, row))
        assert np.array_equal(got, reference_projection(ball, row))
    # stacks with every row on one side take the other branches
    for part in (stack[:2], stack[-2:-1], stack[6:8]):
        for row, got in zip(part, project_ball(ball, part)):
            assert np.array_equal(got, project_ball(ball, row))


@pytest.mark.parametrize("n", [1, 2, 16, 1000])
def test_stacked_derivative_matches_row_by_row(n):
    rng = np.random.default_rng(100 + n)
    ball = Ball(center=rng.normal(size=n), radius=0.75)
    stack = _stack_rows(ball, rng) - ball.center
    for x in (ball.center + 3.0 * unit(rng, n), ball.center + 0.1 * unit(rng, n)):
        deriv = ball_frechet_derivative(ball, x)
        applied = deriv.apply(stack)
        assert applied.shape == stack.shape
        for row, got in zip(stack, applied):
            assert np.array_equal(got, deriv.apply(row))
            assert np.array_equal(got, reference_apply(ball, deriv, row))


def test_one_point_error_messages():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    deriv = ball_frechet_derivative(ball, [3.0, 4.0])
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
        project_ball(ball, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"^dimension mismatch: 3 vs 2$"):
        deriv.apply([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"^vector coordinates must be finite$"):
        project_ball(ball, [1.0, np.nan])
    with pytest.raises(ValueError, match=r"^vector coordinates must be finite$"):
        deriv.apply([np.inf, 0.0])
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
        project_ball(ball, np.ones((4, 3)))
