import inspect
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projderiv import verify
from projderiv import (
    Ball,
    GeometricTail,
    SeqVector,
    ball_frechet_derivative,
    cone_frechet_derivative,
    fd_directional,
    project_ball,
    project_cone,
    project_cone_l2,
    qp_projection_oracle,
    refutation_threshold,
    refute_linearity,
    strict_residual_scan,
)
from projderiv.balls import _project_ball, _project_origin
from projderiv.vectors import as_vector
from projderiv.verify import CERTIFICATE_GATE


FLOAT_MAX = float(np.finfo(np.float64).max)


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _seq(first, coeff):
    """Coordinate 1 = first, then coeff * 0.5^(i - 2) from index 2."""
    return SeqVector({1: first}, GeometricTail(coeff, 0.5, 2))


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
    assert np.array_equal(fd_directional(project_cone, [0.0, 0.0], [1.0, -1.0]), [1.0, 0.0])
    # the clamp is exactly linear along this ray: every quotient is exact
    for t in (1e-3, 1e-4, 1e-5):
        assert np.array_equal(fd_directional(project_cone, [0.0, 0.0], [1.0, -1.0], t), [1.0, 0.0])


def test_fd_first_order_error_on_smooth_map():
    square = lambda v: v * v
    x, w = np.array([1.0, 2.0]), np.array([1.0, 1.0])
    steps = (1e-3, 1e-4, 1e-5)
    errors = [float(np.linalg.norm(fd_directional(square, x, w, t) - 2.0 * x * w)) for t in steps]
    # quotient = 2xw + t w², so the error against the derivative is t‖w²‖
    for t, err in zip(steps, errors):
        assert err == pytest.approx(t * np.sqrt(2.0), rel=1e-4)
    e3, e4, e5 = errors
    assert 9.9 <= e3 / e4 <= 10.1
    assert 9.9 <= e4 / e5 <= 10.1


@pytest.mark.parametrize("step", [0.0, -1e-3, math.inf, math.nan])
def test_fd_rejects_bad_steps(step):
    with pytest.raises(ValueError, match="step must be positive and finite"):
        fd_directional(project_cone, [1.0], [1.0], step)


# a direction of the wrong length broadcast against x: a 3-vector quotient at a 1-vector x,
# and a refutation with gap 1 that certified nothing
def test_fd_and_refute_refuse_a_direction_of_the_wrong_length():
    with pytest.raises(ValueError, match="^dimension mismatch: 1 vs 3$"):
        fd_directional(project_cone, [1.0], [1.0, -1.0, 2.0])
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 1$"):
        refute_linearity(project_cone, [1.0, 0.0], [1.0])


def _bits(a):
    """The float64 bit patterns of a (so 0.0 and -0.0 differ)."""
    return np.asarray(a, dtype=np.float64).tobytes()


# (map, x, stack of directions, step): rows that stay inside the ball, leave it, move
# along its sphere or end far outside (‖x + t·w − c‖·2^-1022 > r, the pull-back along the
# scaled offset), and orthant rows that keep or cross x's signs
STACKED_CASES = {
    "ball-sphere": (
        lambda p: project_ball(Ball([1.0, -2.0, 0.5], 1.5), p),
        [2.5, -2.0, 0.5],
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [3e3, -2e3, 1e3], [-0.6, 0.8, 0.0]],
        1e-5,
    ),
    "ball-interior-exterior": (
        lambda p: project_ball(Ball([0.0, 0.0], 2.0), p),
        [1.0, 0.5],
        [[0.1, 0.2], [4.0, 1.0], [-0.3, 0.0], [2.5, 3.0]],
        0.5,
    ),
    "ball-far": (
        lambda p: project_ball(Ball([0.0, 0.0, 0.0], 1e-300), p),
        [0.0, 0.0, 0.0],
        [[1e-296, 0.0, 0.0], [1e13, 0.0, -1e13], [0.0, 3e-296, 0.0], [-2e14, 5e13, 1e12]],
        1e-5,
    ),
    "cone": (
        project_cone,
        [0.0, 1.0, -1.0, 2e-5],
        [[1.0, 0.0, 0.0, 0.0], [-1.0, 1.0, 1.0, -3.0], [0.5, -2e5, 2e5, 1.0], [0.0, 0.0, 0.0, 0.0]],
        1e-5,
    ),
}


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_stacked_fd_directional_matches_each_direction_alone_bit_for_bit(case):
    f, x, stack, t = STACKED_CASES[case]
    calls = []

    def counted(p):
        calls.append(np.shape(p))
        return f(p)

    quotients = fd_directional(counted, x, stack, t)
    assert calls == [(len(stack) + 1, len(x))]  # one call, on x stacked over the moved points
    assert quotients.shape == np.shape(stack)
    for row, w in zip(quotients, stack):
        assert _bits(row) == _bits(fd_directional(f, x, w, t))


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_refute_linearity_calls_f_once_and_keeps_the_one_direction_limits(case):
    f, x, stack, t = STACKED_CASES[case]
    d = stack[0]
    calls = []

    def counted(p):
        calls.append(np.shape(p))
        return f(p)

    cert = refute_linearity(counted, x, d, t)
    assert calls == [(3, len(x))]  # x, x + t·d and x − t·d
    assert _bits(cert.forward_limit) == _bits(fd_directional(f, x, d, t))
    assert _bits(cert.backward_limit) == _bits(-fd_directional(f, x, -np.asarray(d), t))
    assert cert.gap == float(np.linalg.norm(cert.forward_limit - cert.backward_limit))


def test_default_radii_are_the_scan_default():
    scan_default = inspect.signature(strict_residual_scan).parameters["radii"].default
    assert verify.default_radii(math.inf) == scan_default == (1e-2, 1e-3, 1e-4, 1e-5)
    # below δ = 4e-2 the radii start at δ/4
    assert verify.default_radii(0.02) == tuple(0.005 * 10.0**-k for k in range(4))


def test_default_radii_refuse_a_radius_that_rounds_to_0():
    want = "default scan radii round to 0 at smooth radius 4.9406564584124654e-324; supply option radii"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        verify.default_radii(5e-324)


def _ball_fd_match(x, w, center=(0.0, 0.0, 0.0), radius=2.0):
    """fd_match on the unchecked ball kernel and derivative, as the CLI's verify calls it."""
    ball = Ball(center, radius)
    deriv = ball_frechet_derivative(ball, x)
    f = partial(_project_ball, ball)
    return verify.fd_match(f, deriv._apply, as_vector(x), as_vector(w), deriv.smooth_radius, True)


@pytest.mark.parametrize("x", [[3.0, 4.0, 0.0], [0.5, -0.25, 1.0]], ids=["exterior", "interior"])
def test_fd_match_scales_with_w_by_exact_powers_of_two(x):
    w = np.array([0.6, 1.2, -0.3])
    ok, err, tol = _ball_fd_match(x, w)
    assert ok and tol > 0.0
    for k in (600, -600):
        assert _ball_fd_match(x, np.ldexp(w, k)) == (ok, math.ldexp(err, k), math.ldexp(tol, k))


def test_fd_match_gates_the_orthant_at_an_absolute_1e_9():
    x, w = as_vector([2.0, -1.0, 0.5]), as_vector([1.0, 1.0, -1.0])
    ok, err, tol = verify.fd_match(project_cone, cone_frechet_derivative(x)._apply, x, w, 0.5, False)
    assert ok and err <= 1e-9 and tol == 1e-9
    # the identity is not the derivative where x_2 < 0: an error of |w_2| = 1
    ok, err, tol = verify.fd_match(project_cone, lambda v: v, x, w, 0.5, False)
    assert not ok and err == pytest.approx(1.0) and tol == 1e-9


def test_fd_match_refuses_steps_that_leave_the_float_range():
    x = as_vector([1.7e308, 1.7e308])  # h = δ/4 = 4.25e307, and x + h·w overflows
    deriv = cone_frechet_derivative(x)
    want = "fd_match step 4.2499999999999998e+307 takes x ± h·w out of the float range"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        verify.fd_match(project_cone, deriv._apply, x, as_vector([0.6, 0.8]), 1.7e308, False)
    with pytest.raises(ValueError, match="^fd_match step inf leaves the float range$"):
        verify.fd_match(project_cone, deriv._apply, x, as_vector([0.6, 0.8]), math.inf, False)


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


@pytest.mark.parametrize("n", [1, 2, 16, 1000])
@pytest.mark.parametrize("scale,kind", [(0.5, "identity"), (3.0, "exterior")], ids=["interior", "exterior"])
def test_centred_scan_matches_pairwise_reference_bit_for_bit(scale, kind, n):
    # what verify scans on a ball: the origin ball's kernel at y = x − c, called on stacks,
    # against the public projection onto the origin ball, one point at a time
    rng = np.random.default_rng(n)
    direction = unit(rng, n)
    ball = Ball(center=rng.standard_normal(n), radius=1.5)
    x = ball.center + scale * direction
    deriv = ball_frechet_derivative(ball, x)
    assert deriv.kind.value == kind
    origin = Ball(center=np.zeros(n), radius=ball.radius)
    public = lambda p: project_ball(origin, p)
    y = as_vector(x - ball.center)
    for seed in (0, 5):
        scan = strict_residual_scan(partial(_project_origin, ball.radius), deriv._apply, y, seed=seed)
        assert scan.residuals == reference_scan(public, deriv._apply, y, seed=seed)


def test_scan_spanning_several_chunks_matches_reference():
    f, deriv, base = _parity_case("ball_exterior", 1000)
    samples = 150
    assert samples > 2 * (verify._CHUNK_COORDS // base.size)  # at least 3 chunks
    radii = (1e-2, 1e-4)
    for seed in (2, 9):
        scan = strict_residual_scan(f, deriv, base, radii, samples, seed)
        assert scan.residuals == reference_scan(f, deriv, base, radii, samples, seed)


# The scan with one radius per stacked call, as it was before radii were
# grouped, from the same bulk stream.  The grouped scan must match it bit for bit.
def per_radius_scan(f, deriv, base, radii, samples_per_radius, seed):
    base = as_vector(base)
    rng = np.random.default_rng(seed)
    dim = base.size
    chunk = max(1, verify._CHUNK_COORDS // dim)
    worst = [0.0] * len(radii)
    for start in range(0, samples_per_radius, chunk):
        g = rng.standard_normal((min(chunk, samples_per_radius - start), 2, dim))
        g *= rng.random((len(g), 2, 1)) ** (1.0 / dim) / np.sqrt(np.vecdot(g, g))[..., None]
        for k, radius in enumerate(radii):
            points = base + radius * g
            u, v = points[:, 0], points[:, 1]
            diff = u - v
            num = f(u) - f(v) - deriv(diff)
            e = math.frexp(radius)[1]
            diff, num = np.ldexp(diff, -e), np.ldexp(num, -e)
            gap = np.sqrt(np.vecdot(diff, diff))
            top = np.sqrt(np.vecdot(num, num))
            ratios = np.divide(top, gap, out=np.zeros_like(gap), where=gap > 0.0)
            worst[k] = max(worst[k], float(np.fmax.reduce(ratios, initial=0.0)))
    return tuple(worst)


# (n, samples, radii): a call takes max(1, 2^13 // n) rows.  Where a chunk of
# pairs fits in one call, it takes max(1, rows // pairs) radii of it at once,
# else one radius and at most `rows` pairs.  So these take one chunk of 20000
# pairs in blocks of 8192, 8192 and 3616; all radii in one call (n = 2, 16);
# 2 + 2 + 1 radii per call of 200 pairs; chunks of 4096 and 904 pairs in
# blocks of 512; chunks of 65 pairs in blocks of 8 and 1, then one of 5.
GROUPING_CASES = [
    (1, 20000, 5), (2, 64, 4), (16, 64, 4), (16, 200, 5), (16, 5000, 6), (1000, 200, 3)
]
# The scan in calls smaller than a chunk: one radius and 64 pairs per call
# (n = 100, where a call of 81 rows fits no two radii); one chunk of 61 pairs,
# in blocks of 8 and a short one of 5; chunks of 21, 21 and 8 pairs in blocks
# of 2; and chunks of 6, 6 and 1 pairs, one row per call.
BLOCKED_CASES = [(100, 64, 4), (1000, 61, 4), (3000, 50, 2), (10**4, 13, 2)]


@pytest.mark.parametrize("case", ["ball_exterior", "ball_sphere", "cone_mixed"])
@pytest.mark.parametrize("n,samples,count", GROUPING_CASES + BLOCKED_CASES)
def test_grouped_radii_match_one_radius_per_call_bit_for_bit(case, n, samples, count):
    f, deriv, base = _parity_case(case, n)  # cone_mixed at n = 1 is the positive orthant
    radii = tuple(1e-2 * 10.0**-k for k in range(count))
    for seed in (0, 7):
        scan = strict_residual_scan(f, deriv, base, radii, samples, seed)
        assert scan.residuals == per_radius_scan(f, deriv, base, radii, samples, seed)


@pytest.mark.parametrize("case", ["ball_exterior", "ball_interior", "cone_mixed"])
@pytest.mark.parametrize("n,samples,count", BLOCKED_CASES)
def test_blocked_scan_matches_pairwise_reference_bit_for_bit(case, n, samples, count):
    f, deriv, base = _parity_case(case, n)
    radii = tuple(1e-2 * 10.0**-k for k in range(count))
    scan = strict_residual_scan(f, deriv, base, radii, samples, seed=3)
    assert scan.residuals == reference_scan(f, deriv, base, radii, samples, seed=3)


def test_scan_calls_f_once_on_u_over_v_and_deriv_once_per_block():
    f, deriv, base = _parity_case("ball_exterior", 16)
    calls = []

    def counted(name, g):
        def call(stack):
            calls.append((name, stack.copy()))
            return g(stack)
        return call

    strict_residual_scan(counted("f", f), counted("deriv", deriv), base, seed=1)
    rows = 4 * 64  # the four default radii times the 64 default pairs, in one chunk
    assert [(name, a.shape) for name, a in calls] == [("f", (2 * rows, 16)), ("deriv", (rows, 16))]
    (_, points), (_, diff) = calls
    # the scan's own draw at seed 1: the u points of every radius, then the v points
    rng = np.random.default_rng(1)
    g = rng.standard_normal((64, 2, 16))
    g *= rng.random((64, 2, 1)) ** (1.0 / 16) / np.sqrt(np.vecdot(g, g))[..., None]
    drawn = np.array([1e-2, 1e-3, 1e-4, 1e-5])[:, None, None] * g.transpose(1, 0, 2)[:, None]
    drawn += as_vector(base)
    assert _bits(points) == _bits(drawn.reshape(-1, 16))
    assert _bits(diff) == _bits(points[:rows] - points[rows:])
    calls.clear()
    strict_residual_scan(counted("f", f), counted("deriv", deriv), base, samples_per_radius=5000)
    # chunks of 4096 and 904 pairs, each radius in blocks of 512 pairs: 8 + 2 blocks a radius
    assert [name for name, _ in calls] == ["f", "deriv"] * (4 * (8 + 2))
    assert max(a.size for name, a in calls if name == "f") <= 2 * verify._CALL_COORDS
    assert max(a.size for name, a in calls if name == "deriv") <= verify._CALL_COORDS
    for (_, points), (_, diff) in zip(calls[::2], calls[1::2]):
        assert 2 * len(diff) == len(points)
    calls.clear()
    f, deriv, base = _parity_case("ball_exterior", 1000)
    strict_residual_scan(counted("f", f), counted("deriv", deriv), base)
    assert {a.shape for name, a in calls if name == "f"} == {(16, 1000)}  # 8 pairs a block


# (n, samples, radii, blocks): one block of every radius and pair; blocks of 8 pairs and
# a short one of 5; chunks of 21, 21 and 8 pairs in blocks of 2, each 21 ending in one pair
VIEW_CASES = [(16, 64, 4, 1), (1000, 61, 4, 4 * 8), (3000, 50, 2, 2 * (11 + 11 + 4))]


@pytest.mark.parametrize("case", ["ball_exterior", "cone_mixed"])
@pytest.mark.parametrize("n,samples,count,blocks", VIEW_CASES)
def test_scan_hands_f_and_deriv_read_only_c_contiguous_stacks(case, n, samples, count, blocks):
    f, deriv, base = _parity_case(case, n)
    shapes = []

    def checked(name, g):
        def call(stack):
            assert stack.flags.c_contiguous and not stack.flags.writeable
            shapes.append((name, stack.shape))
            return g(stack)
        return call

    radii = tuple(1e-2 * 10.0**-k for k in range(count))
    strict_residual_scan(checked("f", f), checked("deriv", deriv), base, radii, samples, 3)
    assert [name for name, _ in shapes] == ["f", "deriv"] * blocks
    if n == 3000:
        assert ("f", (2, n)) in shapes and ("deriv", (1, n)) in shapes


@pytest.mark.parametrize("writer", ["f", "deriv"])
def test_scan_refuses_a_map_that_writes_its_argument(writer):
    f, deriv, base = _parity_case("ball_exterior", 16)

    def writes(g):
        def call(stack):
            stack *= 1.0
            return g(stack)
        return call

    maps = (writes(f), deriv) if writer == "f" else (f, writes(deriv))
    with pytest.raises(ValueError, match="read-only"):
        strict_residual_scan(*maps, base)


# verify's default fd_match direction came from a second generator on the same seed,
# whose n normals are the scan's first u draw; the scan now hands that draw back.  Past
# n = 2^16 each chunk holds one pair, so the first draw is the whole first chunk's u point
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.sampled_from([1, 2, 16, 1000, 70000]),
    samples=st.sampled_from([1, 64]),
)
def test_the_scan_direction_is_the_seeds_first_unit_normal_bit_for_bit(seed, n, samples):
    scan = strict_residual_scan(lambda v: v, lambda w: w, np.zeros(n), (1e-2,), samples, seed)
    g = np.random.default_rng(seed).standard_normal(n)
    want = g / verify.norm(g)
    assert scan.direction.shape == (n,) and scan.direction.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "base,message",
    [([np.nan, 1.0], "vector coordinates must be finite"), ([[1.0]], "expected a 1-D vector"), ([], "expected a 1-D vector")],
    ids=["nan", "stack", "empty"],
)
def test_the_scan_refuses_a_base_that_is_not_a_finite_vector(base, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        strict_residual_scan(lambda v: v, lambda w: w, base)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "base,radius", [([1e308, -1e308], 1e308), ([0.0], 1.5e308), ([1e-300, -1e-300], 0.51 * FLOAT_MAX)]
)
def test_scan_refuses_a_radius_beyond_the_float_range_before_forming_a_point(base, radius):
    # points reach max|x_i| + ρ and their differences 2ρ; x + ρ·g overflowed with a warning
    def f(p):
        raise AssertionError("no point may be formed")

    message = f"scan radius {radius:.17g} leaves the float range"
    with pytest.raises(ValueError, match=re.escape(message)):
        strict_residual_scan(f, f, base, radii=(1e-2, radius))


@pytest.mark.filterwarnings("error")
def test_scan_at_the_largest_radius_in_range_runs_without_a_warning():
    x = np.array([1e-300, -1e-300])
    deriv = cone_frechet_derivative(x).apply
    scan = strict_residual_scan(project_cone, deriv, x, radii=(0.49 * FLOAT_MAX,), seed=2)
    assert 0.0 < scan.residuals[0] <= 1.0  # each coordinate of P − A is 1-Lipschitz


# |k| ≥ 600 reaches the points whose squared differences overflow or underflow,
# so both ends are drawn as often as the middle.  Signs are exact, so the
# scaled point has the candidate of the unscaled x.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    x=st.lists(st.floats(0.25, 4.0) | st.floats(-4.0, -0.25), min_size=1, max_size=4),
    radii=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=3),
    k=st.integers(-1000, -600) | st.integers(-599, 599) | st.integers(600, 1000),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_residuals_are_invariant_under_power_of_two_scaling(x, radii, k, seed):
    x = np.array(x)
    assert cone_frechet_derivative(np.ldexp(x, k)).kind is cone_frechet_derivative(x).kind
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
    threshold = refutation_threshold(None, [0.0, 0.0], [1.0, 0.0])
    assert 0.0 < threshold < 0.01 < gap


def test_refutation_threshold_is_a_length():
    t, eps = 1e-5, np.finfo(np.float64).eps
    ball = Ball(center=[5.0, 0.0], radius=2.0)
    # ball: curvature t‖d‖²/r plus roundoff on ‖x‖ + ‖d‖
    threshold = refutation_threshold(ball, [3.0, 4.0], [0.0, 2.0], t)
    assert threshold == 100.0 * (t * 2.0 * (2.0 / 2.0) + eps * (5.0 + 2.0) / t)
    big = Ball(center=[5.0 * 2.0**600, 0.0], radius=2.0**601)
    x, d = [3.0 * 2.0**600, 4.0 * 2.0**600], [0.0, 2.0**601]
    assert refutation_threshold(big, x, d, t) == math.ldexp(threshold, 600)
    # orthant: no curvature, and only the coordinates that d moves count
    threshold = refutation_threshold(None, [1e300, 0.0, -3.0], [0.0, 4.0, 3.0], t)
    assert threshold == 100.0 * (eps * (3.0 + 5.0) / t)
    assert refutation_threshold(None, [1.0, 0.0], [0.0, 0.0], t) == 0.0


def test_certificate_is_exactly_zero_on_interior_orthant_and_cone_l2_inputs():
    rng = np.random.default_rng(17)
    for dim in (1, 2, 3, 16, 1000):
        ball = Ball(center=rng.normal(size=dim), radius=2.0)
        x = ball.center + rng.random() * unit(rng, dim)
        assert qp_projection_oracle(ball, x, project_ball(ball, x)) == 0.0
        x = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=dim)
        assert qp_projection_oracle(None, x, project_cone(x)) == 0.0
    for x in (_seq(-1.0, 0.5), _seq(2.0, -0.25), _seq(-3.0, 0.0)):
        dense = x.truncate(64)
        closed = project_cone_l2(x).truncate(64)
        assert qp_projection_oracle(None, dense, closed) == 0.0
    # a zero prints as 0, not -0
    assert math.copysign(1.0, qp_projection_oracle(None, [-0.0], [0.0])) == 1.0


def test_certificate_passes_exterior_projections_within_the_gate():
    rng = np.random.default_rng(18)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.choice([1, 2, 3, 16, 1000]))
        scale = 10.0 ** rng.uniform(-5, 5)
        ball = Ball(center=rng.normal(scale=scale, size=dim), radius=scale * rng.uniform(0.1, 3.0))
        x = ball.center + ball.radius * rng.uniform(1.01, 5.0) * unit(rng, dim)
        worst = max(worst, qp_projection_oracle(ball, x, project_ball(ball, x)))
    assert 0.0 < worst <= CERTIFICATE_GATE
    # a small ball far from a point: the residuals are measured as distances p
    # must move, which stay near eps; ⟨x − p, p − c⟩ forms read ~1e-9 here
    ball = Ball(center=[1e8, 0.0], radius=1.0)
    x = np.array([0.0, 5e7])
    assert qp_projection_oracle(ball, x, project_ball(ball, x)) <= CERTIFICATE_GATE


def _mutations(ball, x, rng):
    """name -> (feasible, x, p) for wrong answers p for the nearest point (x outside the ball)."""
    c, r = ball.center, ball.radius
    u = (x - c) / np.linalg.norm(x - c)
    e = unit(rng, x.size)
    scale = max(np.max(np.abs(x)), np.max(np.abs(c)), r)
    z = np.append(x, -x[0])  # both signs
    wrong = {
        "radius": (ball, x, c + r * (1.0 + 1e-9) * u),
        "shrunk_radius": (ball, x, c + r * (1.0 - 1e-9) * u),
        "dropped_center": (ball, x, project_ball(Ball(np.zeros(x.size), r), x)),
        "offset": (ball, x, project_ball(ball, x) + 1e-9 * scale * e),
        "offset_orthant": (None, x, project_cone(x) + 1e-9 * np.max(np.abs(x)) * e),
        "wrong_sign": (None, z, np.minimum(z, 0.0)),
        "zero": (None, z, np.zeros(z.size)),
    }
    if x.size > 1:  # on the sphere, but turned by 1e-9 radians
        t = e - np.dot(e, u) * u
        turned = u + 1e-9 * t / np.linalg.norm(t)
        wrong["tangent"] = (ball, x, c + r * turned / np.linalg.norm(turned))
    return wrong


def test_certificate_fails_every_mutation():
    rng = np.random.default_rng(19)
    for _ in range(200):
        dim = int(rng.choice([1, 2, 3, 16, 100]))
        scale = 10.0 ** rng.uniform(-5, 5)
        ball = Ball(center=rng.normal(scale=scale, size=dim), radius=scale * rng.uniform(0.1, 3.0))
        x = ball.center + ball.radius * rng.uniform(1.5, 5.0) * unit(rng, dim)
        for name, (feasible, y, p) in _mutations(ball, x, rng).items():
            assert qp_projection_oracle(feasible, y, p) > CERTIFICATE_GATE, (name, y)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-480, 480))
def test_certificate_is_invariant_under_power_of_two_scaling(seed, k):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 9))
    ball = Ball(rng.normal(size=dim), float(rng.uniform(0.1, 3.0)))
    x = ball.center + rng.uniform(0.0, 4.0) * unit(rng, dim)
    scaled = Ball(np.ldexp(ball.center, k), math.ldexp(ball.radius, k))
    right = [(ball, x, project_ball(ball, x)), (None, x, project_cone(x))]
    for feasible, y, p in right + list(_mutations(ball, x, rng).values()):
        at_k = None if feasible is None else scaled
        assert qp_projection_oracle(at_k, np.ldexp(y, k), np.ldexp(p, k)) == (
            qp_projection_oracle(feasible, y, p)
        )


def test_oracle_validation():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    with pytest.raises(ValueError):
        qp_projection_oracle(ball, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        qp_projection_oracle(ball, [1.0, 2.0], [1.0])


def test_closed_forms_match_scipy_solvers():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(20)
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        x = rng.normal(scale=2.0, size=dim)
        orthant = optimize.lsq_linear(np.eye(dim), x, bounds=(0.0, np.inf), method="bvls").x
        assert np.linalg.norm(orthant - project_cone(x)) <= 1e-10
        ball = Ball(center=rng.normal(size=dim), radius=float(rng.uniform(0.5, 2.0)))
        c, r = ball.center, ball.radius
        inside = {"type": "ineq", "fun": lambda z: r * r - np.dot(z - c, z - c)}
        nearest = optimize.minimize(
            lambda z: 0.5 * np.dot(z - x, z - x),
            ball.center,
            jac=lambda z: z - x,
            constraints=[inside],
            method="SLSQP",
            options={"ftol": 1e-15, "maxiter": 500},
        ).x
        assert np.linalg.norm(nearest - project_ball(ball, x)) <= 1e-6
