import math
from decimal import Decimal
from fractions import Fraction

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
    qp_projection_oracle,
    sphere_tolerance,
)
from projderiv.verify import CERTIFICATE_GATE


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


# the generated __eq__ compared the center arrays (ValueError: the truth value of an
# array with more than one element is ambiguous), and __hash__ hashed them (TypeError)
def test_balls_compare_and_hash_by_value():
    ball = Ball(center=[1.0, -2.0], radius=2)
    assert ball == Ball(center=np.array([1.0, -2.0]), radius=2.0)
    assert hash(ball) == hash(Ball(center=[1.0, -2.0], radius=2.0))
    signed = Ball(center=[-0.0, 0.0], radius=1.0), Ball(center=[0.0, -0.0], radius=1.0)
    assert signed[0] == signed[1] and hash(signed[0]) == hash(signed[1])
    assert len({ball, Ball(center=[1.0, -2.0], radius=2), *signed}) == 2
    others = [
        Ball(center=[1.0, -2.0], radius=3.0),
        Ball(center=[1.0, 2.0], radius=2.0),
        Ball(center=[1.0, -2.0, 0.0], radius=2.0),  # same leading coordinates, longer
        Ball(center=[1.0], radius=2.0),
    ]
    assert all(ball != other for other in others)
    assert Ball(center=[0.0], radius=1.0) != Ball(center=[0.0, 0.0], radius=1.0)  # no broadcasting
    assert ball != (ball.center, ball.radius) and ball != "ball"


def test_project_outside_point():
    ball = Ball(center=[1.0, 1.0], radius=2.0)
    assert np.array_equal(project_ball(ball, [4.0, 1.0]), [3.0, 1.0])


@pytest.mark.parametrize("x", [[1e200, 0.0], [[1e200, 0.0], [0.5, 0.0]]])
def test_project_far_point_onto_unit_ball(x):
    # ‖x‖² overflowed: the row projected to [0, 0]
    expected = [1.0, 0.0] if np.ndim(x) == 1 else [[1.0, 0.0], [0.5, 0.0]]
    assert np.array_equal(project_ball(Ball(center=[0.0, 0.0], radius=1.0), x), expected)


def test_project_and_classify_agree_at_radius_1e_200():
    # ‖x‖² underflowed to 0 < r: x came back unprojected, though classify said exterior
    ball = Ball(center=[0.0, 0.0], radius=1e-200)
    assert classify_ball(ball, [2e-200, 0.0]).tag is BallRegionTag.EXTERIOR
    assert np.array_equal(project_ball(ball, [2e-200, 0.0]), [1e-200, 0.0])
    assert classify_ball(ball, [0.5e-200, 0.0]).tag is BallRegionTag.INTERIOR
    assert np.array_equal(project_ball(ball, [0.5e-200, 0.0]), [0.5e-200, 0.0])


BEYOND = [1.5e308, 1.5e308]  # ‖x‖ is beyond the float range
DIAGONAL = [0.70710678118654757, 0.70710678118654757]


def test_project_point_of_infinite_norm_onto_unit_ball():
    # r / ‖x‖ was 0, so the row projected to the center [0, 0]
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    assert np.array_equal(project_ball(ball, BEYOND), DIAGONAL)
    # in a stack, the finite rows keep every bit of their one-row projections
    rows = [BEYOND, [3.0, 4.0], [0.5, 0.0]]
    assert np.array_equal(project_ball(ball, rows), [project_ball(ball, row) for row in rows])


def test_project_point_of_infinite_norm_onto_ball_of_radius_1e300():
    # ‖x / 2^1024‖ is about 1.18, below r: outside is decided by ‖x‖ itself
    got = project_ball(Ball(center=[0.0, 0.0], radius=1e300), BEYOND)
    np.testing.assert_allclose(got, 1e300 * np.array(DIAGONAL), rtol=4 * np.finfo(float).eps, atol=0)


@pytest.mark.filterwarnings("error")
def test_point_and_center_too_far_apart_for_the_float_range():
    # x − c overflowed: project printed a warning and [nan, 0], classify a warning
    ball = Ball(center=[-1e308, 0.0], radius=1.0)
    assert np.array_equal(project_ball(ball, [1e308, 0.0]), [-1e308, 0.0])
    region = classify_ball(ball, [1e308, 0.0])
    assert (region.tag, region.signed_gap) == (BallRegionTag.EXTERIOR, np.inf)
    rows = [[1e308, 0.0], [3.0, 4.0], [-1e308, 0.5]]
    assert np.array_equal(project_ball(ball, rows), [project_ball(ball, row) for row in rows])


# r/‖s‖ overflowed on the far path, s = (x − c)/2^k with ‖s‖ ≈ 0.58: project printed two
# RuntimeWarnings and [nan, inf]; the pull-back is now r times the unit vector s/‖s‖
@pytest.mark.filterwarnings("error")
def test_far_point_projects_onto_a_ball_of_radius_near_the_float_max():
    ball, x = Ball(center=[0.0, -1.1e308], radius=1.7e308), [0.0, 1e308]
    p = project_ball(ball, x)
    assert np.array_equal(p, [0.0, 5.9999999999999997e307])
    assert qp_projection_oracle(ball, x, p) <= CERTIFICATE_GATE
    rows = [x, [0.0, -1.1e308], [3.0, 4.0]]
    assert np.array_equal(project_ball(ball, rows), [project_ball(ball, row) for row in rows])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "radius,expected", [(1e-300, 7.0710678118654751e-301), (1e-10, 7.0710678118654753e-11)]
)
def test_pull_back_where_radius_over_distance_is_subnormal(radius, expected):
    # r/‖x − c‖ was formed first: 0 at r = 1e-300 (the center came back), and at
    # r = 1e-10 a subnormal with 13 bits left, 7.071067811865641e-11 per coordinate
    got = project_ball(Ball(center=[0.0, 0.0], radius=radius), [1e300, 1e300])
    assert got.tolist() == [expected, expected]
    exact = Decimal(radius) / Decimal(2).sqrt()  # 28 digits
    assert abs(Decimal(expected) - exact) <= Decimal(math.ulp(expected)) / 2  # correctly rounded


# the scan's kernel skips the x − 0 and 0 + … passes of a zero center, which change the
# sign of a zero; project_ball keeps both, and these are the bits it printed before
@pytest.mark.parametrize(
    "center,x,expected",
    [([0.0, 0.0], [2.0, -0.0], [1.0, 0.0]), ([-0.0, 0.0], [-5e-324, 2.0], [-0.0, 1.0])],
    ids=["positive-zero-center", "negative-zero-center"],
)
def test_project_ball_keeps_the_sign_of_a_zero(center, x, expected):
    got = project_ball(Ball(center=center, radius=1.0), x)
    assert got.tobytes() == np.array(expected).tobytes()


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


@pytest.mark.parametrize("k", [-900, -500, -8, 8, 500, 900])
def test_exterior_derivative_is_exact_under_power_of_two_scaling(k):
    # the projection's derivative is homogeneous of degree 0, and scaling by 2^k
    # is exact: the action and the scale r/‖x − c‖ keep their bits, also where
    # ‖x − c‖² overflows (k = 900) or underflows (k = -900); the sphere band is
    # relative to the radius, so the region is exterior at every k
    rng = np.random.default_rng(9)
    center, x = rng.normal(size=3), 3.0 * unit(rng, 3)
    w = rng.normal(size=(4, 3))
    base = ball_frechet_derivative(Ball(center=center, radius=0.5), x)
    scaled = ball_frechet_derivative(Ball(center=np.ldexp(center, k), radius=np.ldexp(0.5, k)), np.ldexp(x, k))
    assert scaled.kind is BallDerivKind.EXTERIOR
    assert np.array_equal(scaled.anchor, np.ldexp(base.anchor, k))
    assert scaled.scale == base.scale
    assert np.array_equal(scaled.apply(w), base.apply(w))


def sphere_formula(ball, x, w):
    """The one-sided derivative at a sphere point, formed on its own for one direction."""
    a = np.asarray(x, dtype=float) - ball.center
    k = math.frexp(float(np.max(np.abs(a))))[1]
    a, r = np.ldexp(a, -k), math.ldexp(ball.radius, -k)
    s = float(np.dot(a, w))
    return w - (s / (r * r)) * a if s >= 0.0 else np.asarray(w, dtype=float)


@pytest.mark.parametrize("k", [-900, 0, 900])
def test_sphere_derivative_is_the_one_sided_derivative(k):
    ball = Ball(center=np.ldexp([0.25, -0.5, 1.0], k), radius=math.ldexp(1.3, k))
    rng = np.random.default_rng(10)
    x = ball.center + ball.radius * unit(rng, 3)
    deriv = ball_frechet_derivative(ball, x)
    assert deriv.kind is BallDerivKind.NOT_FRECHET
    assert not deriv.is_linear
    radial = np.ldexp(x - ball.center, -k)  # unit scale, whatever k is
    tangent = np.cross(radial, rng.normal(size=3))
    w = np.vstack([radial, -radial, tangent, radial + tangent, tangent - radial, rng.normal(size=(8, 3))])
    for row in w:  # outward, inward, tangent and mixed directions, bit for bit
        assert np.array_equal(deriv.apply(row), sphere_formula(ball, x, row))
    assert np.array_equal(deriv.apply(w), [deriv.apply(row) for row in w])
    # positively homogeneous, but not additive across the tangent plane
    for lam in (0.5, 2.0, 8.0):
        assert np.array_equal(deriv.apply(lam * w), lam * deriv.apply(w))
    up, down = w[0], w[1]
    assert not np.allclose(deriv.apply(up) + deriv.apply(down), deriv.apply(up + down))


def unscaled_apply(deriv, w):
    """``apply``'s formula on w as given, with no rescaling of w."""
    a = deriv.scaled_anchor
    side = float(np.dot(w, a))
    if deriv.kind is BallDerivKind.EXTERIOR:
        return deriv.scale * (w - (side / float(np.dot(a, a))) * a)
    return w - (side / deriv.scaled_radius**2) * a if side >= 0.0 else w


# ⟨w, a⟩/⟨a, a⟩ overflowed for ‖w‖∞ near 1e308 (apply(w) = [-inf, inf] on a
# radial w); apply(w) = 2^j·apply(w/2^j) there, and rows that do not overflow keep
# every bit of the unscaled formula, huge or not
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [BallDerivKind.EXTERIOR, BallDerivKind.NOT_FRECHET])
def test_apply_rescales_w_only_where_the_unscaled_product_overflows(kind):
    ball = Ball(center=[1e308, -1e308], radius=1e308)
    x = [-1e308, 1e308] if kind is BallDerivKind.EXTERIOR else [0.0, -1e308]
    deriv = ball_frechet_derivative(ball, x)
    assert deriv.kind is kind
    radial = np.sign(deriv.scaled_anchor)  # outward, mapped to 0 on either kind
    tangent = radial[::-1] * [1.0, -1.0]  # mapped to scale·tangent, or kept on the sphere
    for m in (1e308, 1.5e308):
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(unscaled_apply(deriv, m * radial)).all()
        assert np.array_equal(deriv.apply(m * radial), [0.0, 0.0])
    keep = deriv.scale if kind is BallDerivKind.EXTERIOR else 1.0
    assert np.allclose(deriv.apply(7.5e307 * (radial + tangent)), keep * 7.5e307 * tangent, rtol=1e-15)
    finite = [1.5e308 * tangent, 5e307 * radial + 1e306 * tangent, [1.0, 2.0], [0.0, 0.0]]
    stack = np.array([1e308 * radial, *finite, 1.5e308 * radial])
    applied = deriv.apply(stack)
    for row, got in zip(stack, applied):
        assert np.array_equal(got, deriv.apply(row))
    for row, got in zip(finite, applied[1:-1]):
        assert np.array_equal(got, unscaled_apply(deriv, np.asarray(row)))


# ⟨w, a⟩ overflowed to nan, so apply took the inward branch and returned w itself (with
# two RuntimeWarnings in the CLI); the side is decided on w/2^j, and this w is outward
@pytest.mark.filterwarnings("error")
def test_gateaux_sphere_decides_the_side_of_a_direction_near_the_float_max():
    ball, x = Ball(center=[0.0] * 16, radius=3.96), [0.99] * 16
    w = [1.7e308, -1e308] + [1.7e308, -1.7e308] * 7
    side = sum(Fraction(wi) * Fraction(ai) for wi, ai in zip(w, x))
    assert side > 0
    radial = side / Fraction(ball.radius) ** 2
    exact = [Fraction(wi) - radial * Fraction(ai) for wi, ai in zip(w, x)]
    got = ball_gateaux_sphere(ball, x, w)
    for g, e in zip(got.tolist(), exact):
        assert abs(Fraction(g) - e) <= 2 * Fraction(abs(float(np.spacing(float(e)))))
    assert np.array_equal(ball_frechet_derivative(ball, x).apply(w), got)


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
        e3, e4, e5 = (
            float(np.linalg.norm(fd_directional(f, x, w, t) - claimed)) for t in (1e-3, 1e-4, 1e-5)
        )
        if side < -0.1:
            # inward: projection is locally the identity along this ray
            assert e5 <= 1e-9
        elif side > 0.1:
            # outward: quotient converges first-order, one decade per decade
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
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
        deriv.apply([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"^vector coordinates must be finite$"):
        project_ball(ball, [1.0, np.nan])
    with pytest.raises(ValueError, match=r"^vector coordinates must be finite$"):
        deriv.apply([np.inf, 0.0])
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
        project_ball(ball, np.ones((4, 3)))
