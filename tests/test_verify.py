import numpy as np
import pytest

from projderiv import (
    Ball,
    OracleConvergenceError,
    ball_frechet_derivative,
    fd_directional,
    project_ball,
    project_cone,
    qp_projection_oracle,
    refutation_threshold,
    refute_linearity,
    strict_residual_scan,
)


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
    gap = refute_linearity(kink, [0.0, 0.0], [1.0, 0.0])
    assert gap == pytest.approx(2.0, abs=1e-12)
    assert refute_linearity(lambda v: v, [0.0, 0.0], [1.0, 0.0]) == 0.0
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
    with pytest.raises(ValueError):
        qp_projection_oracle("orthant", [1.0], step=1.5)


def test_oracle_reports_last_iterate_on_iteration_budget():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    with pytest.raises(OracleConvergenceError) as info:
        qp_projection_oracle(ball, [3.0, 4.0], iters=0)
    last = info.value.last_iterate
    assert np.allclose(last, [0.6, 0.8], atol=1e-12)
