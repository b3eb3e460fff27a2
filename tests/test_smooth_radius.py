"""``smooth_radius`` on both derivative objects: the radius of the largest open ball around x
on which the projection is C¹, |‖x − c‖ − r| on a ball and min |x_i| on the orthant.

It is positive exactly where the derivative is linear, it is the formula ``verify`` used to
compute for itself (bit for bit), and 2^k times a job has 2^k times its smooth radius while
every value involved stays a normal float."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from projderiv import Ball, ball_frechet_derivative, classify_ball, cone_frechet_derivative

TINY = 5e-324  # the smallest subnormal

coords = st.floats(allow_nan=False, allow_infinity=False)
radii = st.floats(min_value=TINY, allow_infinity=False)
dims = st.integers(1, 4)


@st.composite
def ball_cases(draw):
    """(center, radius, x): x anywhere, or at t·r from c along an axis, on or near the sphere."""
    n = draw(dims)
    center = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    radius = draw(radii)
    t = draw(st.sampled_from([None, 1.0, -1.0, 1.0 + 1e-13, 1.0 - 1e-11, 0.5, 2.0, 1e6]))
    if t is None:
        x = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    else:
        x = center.copy()
        with np.errstate(over="ignore"):
            x[draw(st.integers(0, n - 1))] += t * radius
        assume(np.isfinite(x).all())
    return center, radius, x


def cone_points():
    return dims.flatmap(lambda n: st.lists(coords, min_size=n, max_size=n)).map(np.array)


def scale_range(*values) -> tuple[int, int]:
    """The k in [−480, 480] for which every nonzero value, and 2^k times it, is a finite normal
    float; empty (lo > hi) if some value is subnormal or not finite."""
    v = np.abs(np.concatenate([np.ravel(a) for a in values]))
    v = v[v != 0.0]
    if not (np.isfinite(v).all() and (v >= 2.0**-1022).all()):
        return 1, 0
    e = np.frexp(v)[1] if v.size else np.zeros(1, dtype=int)  # |v| ∈ [2^(e−1), 2^e)
    return max(-480, -1021 - int(e.min())), min(480, 1024 - int(e.max()))


def bits(value: float) -> str:
    return float(value).hex()


FAR_APART = (np.array([1.7e308, 0.0]), 1.0, np.array([-1.7e308, 0.0]))  # x − c overflows
SUBNORMAL_RADIUS = (np.array([0.0, 0.0]), TINY, np.array([1e-323, 0.0]))
SUBNORMAL_SPHERE = (np.array([0.0, 0.0]), TINY, np.array([TINY, 0.0]))
SUBNORMAL_COORDINATES = (np.array([TINY, -TINY]), 1e-300, np.array([3 * TINY, 2e-300]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ball_cases())
@example(FAR_APART)
@example(SUBNORMAL_RADIUS)
@example(SUBNORMAL_SPHERE)
@example(SUBNORMAL_COORDINATES)
def test_ball_smooth_radius_is_the_gap_to_the_sphere(case):
    center, radius, x = case
    ball = Ball(center, radius)
    deriv = ball_frechet_derivative(ball, x)
    assert (deriv.smooth_radius > 0.0) == deriv.is_linear
    if deriv.is_linear:
        assert bits(deriv.smooth_radius) == bits(abs(classify_ball(ball, x).signed_gap))
    else:
        assert bits(deriv.smooth_radius) == bits(0.0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ball_cases(), st.integers(-480, 480))
@example((np.array([1e150, -1e150]), 1e-150, np.array([-1e150, 1e150])), 480)
@example((np.array([3e-150, 0.0]), 1e-150, np.array([0.0, 1e-150])), -480)
def test_ball_smooth_radius_scales_by_powers_of_two(case, k):
    center, radius, x = case
    ball = Ball(center, radius)
    with np.errstate(over="ignore"):
        offset = x - center
    gap = classify_ball(ball, x).signed_gap
    lo, hi = scale_range(center, radius, x, offset, gap, 1e-12 * radius)
    assume(lo <= hi)
    k = min(max(k, lo), hi)
    scaled = Ball(np.ldexp(center, k), math.ldexp(radius, k))
    want = math.ldexp(ball_frechet_derivative(ball, x).smooth_radius, k)
    assert bits(ball_frechet_derivative(scaled, np.ldexp(x, k)).smooth_radius) == bits(want)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cone_points())
@example(np.array([1.0, TINY]))
@example(np.array([-TINY, 4e-323, -1e300]))
@example(np.array([1.7e308, -1.7e308]))
@example(np.array([1.0, -0.0]))
def test_cone_smooth_radius_is_the_distance_to_the_coordinate_planes(x):
    deriv = cone_frechet_derivative(x)
    assert (deriv.smooth_radius > 0.0) == deriv.is_linear
    assert bits(deriv.smooth_radius) == bits(float(np.min(np.abs(x))))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cone_points(), st.integers(-480, 480))
@example(np.array([1e-150, -3.0, 1e150]), -480)
def test_cone_smooth_radius_scales_by_powers_of_two(x, k):
    lo, hi = scale_range(x)
    assume(lo <= hi)
    k = min(max(k, lo), hi)
    want = math.ldexp(cone_frechet_derivative(x).smooth_radius, k)
    assert bits(cone_frechet_derivative(np.ldexp(x, k)).smooth_radius) == bits(want)
