"""The private kernels behind the hot public functions.

``project_ball``, ``BallDeriv.apply``, ``ConeDeriv.apply`` and ``project_cone`` check
their input (a finite float64 point or stack of the right dimension) and then run a
kernel that takes such an array as given; the residual scan and ``verify``'s fd_match
quotient call the kernels on points they have formed themselves.  A kernel must return
what its public function returns, bit for bit, and the public functions must keep
every refusal.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projderiv import (
    Ball,
    BallDerivKind,
    ball_frechet_derivative,
    classify_ball,
    cone_frechet_derivative,
    project_ball,
    project_cone,
)
from projderiv.balls import _project_ball, _project_origin
from projderiv.orthant import _clamp


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# (rows, n) of a stack, or (n,) for one point; (8, 1000) is the scan's block at n = 1000
SHAPES = [(1,), (2,), (16,), (1, 2), (3, 3), (256, 16), (8, 1000)]


def draw_stack(seed: int, shape, k: int, spread: int) -> np.ndarray:
    """Normal draws times 2^k, with every row's scale spread over 2^±spread."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(shape)
    rows = rng.integers(-spread, spread + 1, size=shape[:-1] + (1,))
    return np.ldexp(g, np.clip(k + rows, -1070, 1020))


scales = st.integers(-1000, 1000)


@st.composite
def ball_cases(draw):
    """A ball, a stack, and the base point of a derivative, at independent scales: x far
    from the center, the center far from the origin, radii down to subnormal."""
    seed, shape = draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from(SHAPES))
    n = shape[-1]
    center = draw_stack(seed, (n,), draw(scales), 0)
    zero = draw(st.sampled_from([None, 0.0, -0.0]))  # verify's origin ball, and its mirror
    if zero is not None:
        center = np.full(n, zero)
    radius = math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), draw(st.integers(-1074, 1000)))
    stack = draw_stack(seed + 1, shape, draw(scales), draw(st.integers(0, 40)))
    where = draw(st.sampled_from(["inside", "sphere", "outside", "far"]))
    u = draw_stack(seed + 2, (n,), 0, 0)
    u /= np.linalg.norm(u)
    factor = {"inside": 0.5, "sphere": 1.0, "outside": 3.0, "far": 2.0**900}[where]
    with np.errstate(over="ignore"):
        base = center + factor * radius * u
    if not np.isfinite(base).all():
        base = center
    return Ball(center=center, radius=radius), stack, base


@settings(max_examples=150, derandomize=True, deadline=None)
@given(ball_cases())
@example((Ball(center=[-1e308, 0.0], radius=1.0), np.array([[1e308, 0.0], [0.5, 0.0]]), np.array([1e308, 0.0])))
@example((Ball(center=[0.0, 0.0], radius=5e-324), np.array([[1e-323, 0.0], [0.0, 0.0]]), np.array([1e-323, 0.0])))
@example((Ball(center=[1.0, -1.0], radius=1.0), np.array([1e300, 1e300]), np.array([2.0, -1.0])))
@example((Ball(center=[-0.0, 0.0], radius=1.0), np.array([[-5e-324, 2.0], [2.0, -0.0]]), np.array([0.5, 0.0])))
def test_ball_kernels_return_the_public_bits(case):
    ball, stack, base = case
    with np.errstate(all="ignore"):  # far-apart rows warn alike on both paths
        assert same_bits(_project_ball(ball, stack), project_ball(ball, stack))
        if not ball.center.any():  # the origin kernel leaves out x − 0 and 0 + …: zeros' signs
            assert np.array_equal(_project_origin(ball.radius, stack), project_ball(ball, stack))
        deriv = ball_frechet_derivative(ball, base)
        assert same_bits(deriv._apply(stack), deriv.apply(stack))
    assert classify_ball(ball, base).tag.value in {"interior", "exterior", "sphere"}


@st.composite
def cone_cases(draw):
    seed, shape = draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from(SHAPES))
    stack = draw_stack(seed, shape, draw(scales), draw(st.integers(0, 40)))
    base = draw_stack(seed + 1, shape[-1:], draw(scales), 40)
    zeros = draw(st.sampled_from([0, 1, shape[-1]]))  # a zero coordinate makes it directional
    base[:zeros] = draw(st.sampled_from([0.0, -0.0]))
    signs = draw(st.sampled_from(["mixed", "plus", "minus"]))
    if signs != "mixed":
        base = np.copysign(base, 1.0 if signs == "plus" else -1.0)
    stack[..., : draw(st.integers(0, 2))] = -0.0  # the clamp keeps the sign of a zero
    return stack, base


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cone_cases())
def test_cone_kernels_return_the_public_bits(case):
    stack, base = case
    assert same_bits(_clamp(stack), project_cone(stack))
    deriv = cone_frechet_derivative(base)
    assert same_bits(deriv._apply(stack), deriv.apply(stack))


def test_the_kernels_cover_every_derivative_kind():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    kinds = {ball_frechet_derivative(ball, x).kind for x in ([0.5, 0.0], [1.0, 0.0], [3.0, 0.0])}
    assert kinds == set(BallDerivKind)
    cones = {cone_frechet_derivative(x).kind.value for x in ([1.0, 2.0], [-1.0, -2.0], [1.0, -2.0], [0.0, 1.0])}
    assert cones == {"identity", "zero", "mask", "directional_only"}


NAN_ROW = [[1.0, 2.0], [np.nan, 0.0]]
STACK_3D = np.ones((2, 2, 2))


def public_calls():
    """(name, the public function of one argument) for every function with a kernel."""
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    out = [("project_ball", lambda w: project_ball(ball, w)), ("project_cone", project_cone)]
    for x in ([0.5, 0.0], [1.0, 0.0], [3.0, 0.0]):
        out.append((f"BallDeriv.apply at {x}", ball_frechet_derivative(ball, x).apply))
    for x in ([1.0, 2.0], [-1.0, -2.0], [1.0, -2.0], [0.0, 1.0]):
        out.append((f"ConeDeriv.apply at {x}", cone_frechet_derivative(x).apply))
    return out


@pytest.mark.parametrize(
    "bad,message",
    [
        ([1.0, np.inf], "vector coordinates must be finite"),
        (NAN_ROW, "vector coordinates must be finite"),
        ([[1.0, 1e308 * 10]], "vector coordinates must be finite"),
        (STACK_3D, "expected a 1-D vector or a 2-D stack of vectors with at least one coordinate"),
        ([], "expected a 1-D vector or a 2-D stack of vectors with at least one coordinate"),
        (3.0, "expected a 1-D vector or a 2-D stack of vectors with at least one coordinate"),
    ],
)
def test_public_functions_refuse_what_their_kernels_trust(bad, message):
    for name, public in public_calls():
        with pytest.raises(ValueError, match=f"^{message}$"):
            public(bad)


@pytest.mark.parametrize("bad", [[1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]], np.ones((4, 1))])
def test_public_functions_refuse_the_wrong_dimension(bad):
    for name, public in public_calls():
        if name == "project_cone":  # any dimension is the orthant's
            assert same_bits(public(bad), _clamp(np.asarray(bad, dtype=np.float64)))
            continue
        with pytest.raises(ValueError, match=f"^dimension mismatch: 2 vs {np.shape(bad)[-1]}$"):
            public(bad)


def test_public_functions_copy_their_input():
    source = np.array([[0.5, 0.0], [3.0, 0.0]])
    for name, public in public_calls():
        out = public(source)
        assert not np.shares_memory(out, source), name
    assert not project_ball(Ball(center=[0.0, 0.0], radius=1.0), source[:1]).flags.writeable


def test_ball_from_a_parsed_center_keeps_it_and_checks_the_radius():
    center = np.array([1.0, -2.0])
    ball = Ball._parsed(center, 2.0)
    assert ball.center is center and not center.flags.writeable
    built = Ball(center=[1.0, -2.0], radius=2)
    assert same_bits(ball.center, built.center) and (ball.radius, type(ball.radius)) == (2.0, float)
    for radius in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^radius must be finite and positive$"):
            Ball._parsed(np.array([1.0]), radius)


def test_ball_derivative_still_checks_its_point():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    with pytest.raises(ValueError, match="^vector coordinates must be finite$"):
        ball_frechet_derivative(ball, [np.nan, 0.0])
    with pytest.raises(ValueError, match="^expected a 1-D vector with at least one coordinate$"):
        ball_frechet_derivative(ball, [[1.0, 0.0]])
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        ball_frechet_derivative(ball, [1.0, 0.0, 0.0])
    assert ball_frechet_derivative(ball, [3, 0]).anchor.tolist() == [3.0, 0.0]  # ints are read as floats
