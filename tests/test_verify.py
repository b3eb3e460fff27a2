import math
import re

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


def test_scan_calls_f_twice_and_deriv_once_per_chunk():
    f, deriv, base = _parity_case("ball_exterior", 16)
    calls = []

    def counted(name, g):
        def call(stack):
            calls.append((name, stack.shape))
            return g(stack)
        return call

    strict_residual_scan(counted("f", f), counted("deriv", deriv), base, seed=1)
    rows = 4 * 64  # the four default radii times the 64 default pairs, in one chunk
    assert calls == [("f", (rows, 16)), ("f", (rows, 16)), ("deriv", (rows, 16))]
    calls.clear()
    strict_residual_scan(counted("f", f), counted("deriv", deriv), base, samples_per_radius=5000)
    # chunks of 4096 and 904 pairs, each radius in blocks of 512 pairs: 8 + 2 calls a radius
    assert len(calls) == 3 * 4 * (8 + 2)
    assert max(rows * cols for _, (rows, cols) in calls) <= verify._CALL_COORDS
    calls.clear()
    f, deriv, base = _parity_case("ball_exterior", 1000)
    strict_residual_scan(counted("f", f), counted("deriv", deriv), base)
    assert max(rows for name, (rows, _) in calls if name == "f") == 8


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
