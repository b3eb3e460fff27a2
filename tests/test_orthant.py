import numpy as np
import pytest

from projderiv import (
    ConeDerivKind,
    ConeRegion,
    classify_cone,
    cone_frechet_derivative,
    cone_gateaux,
    cone_refute_frechet,
    guarded_fd_step,
    project_cone,
    sign_partition,
    zero_tolerance,
)


def test_project_clamps_coordinatewise():
    assert np.array_equal(project_cone([1.0, -2.0, 0.0, 3.0]), [1.0, 0.0, 0.0, 3.0])
    assert np.array_equal(project_cone([-1.0]), [0.0])


def test_project_idempotent_and_in_cone():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.normal(scale=2.0, size=rng.integers(1, 9))
        p = project_cone(x)
        assert np.all(p >= 0.0)
        assert np.array_equal(project_cone(p), p)


def test_sign_partition_covers_disjointly():
    rng = np.random.default_rng(12)
    for _ in range(100):
        x = rng.normal(size=rng.integers(1, 9))
        x[rng.random(x.size) < 0.3] = 0.0
        part = sign_partition(x)
        union = part.plus | part.minus | part.zero
        assert union == set(range(x.size))
        assert len(part.plus) + len(part.minus) + len(part.zero) == x.size


def test_sign_partition_and_mask_match_coordinate_loop():
    # reference: classify and mask one coordinate at a time
    rng = np.random.default_rng(16)
    for _ in range(200):
        x = rng.normal(size=rng.integers(1, 17)) * 10.0 ** rng.integers(-3, 4)
        x[rng.random(x.size) < 0.2] = 0.0
        x[rng.random(x.size) < 0.1] = 1e-15
        tol = zero_tolerance(x)
        zero = {i for i, v in enumerate(x) if abs(v) <= tol}
        plus = {i for i, v in enumerate(x) if i not in zero and v > 0.0}
        part = sign_partition(x)
        assert (part.plus, part.zero) == (plus, zero)
        assert part.minus == set(range(x.size)) - plus - zero
        w = rng.normal(size=x.size)
        keep = np.array([1.0 if i in plus else 0.0 for i in range(x.size)])
        ramp = np.array([1.0 if i in zero else 0.0 for i in range(x.size)])
        want = w * keep + np.maximum(w, 0.0) * ramp
        assert np.array_equal(cone_frechet_derivative(x).apply(w), want)


def test_sign_partition_zero_band():
    # a coordinate inside the zero band counts as zero, not as a sign
    part = sign_partition([1e-15, 1.0])
    assert part.zero == {0} and part.plus == {1}
    assert classify_cone([1e-15, 1.0]) is ConeRegion.HAS_ZERO
    tol = zero_tolerance(np.array([1.0, 1.0]))
    assert sign_partition([2.0 * tol, 1.0]).plus == {0, 1}


def test_classify_regions():
    assert classify_cone([2.0, 0.5]) is ConeRegion.INTERIOR
    assert classify_cone([-2.0, -0.5]) is ConeRegion.NEGATIVE_INTERIOR
    assert classify_cone([2.0, -0.5]) is ConeRegion.MIXED_SIGNS
    assert classify_cone([2.0, 0.0]) is ConeRegion.HAS_ZERO
    # one dimension: no mixed-sign region exists
    assert classify_cone([5.0]) is ConeRegion.INTERIOR
    assert classify_cone([-5.0]) is ConeRegion.NEGATIVE_INTERIOR
    assert classify_cone([0.0]) is ConeRegion.HAS_ZERO


def test_derivative_kind_per_region():
    assert cone_frechet_derivative([1.0, 2.0]).kind is ConeDerivKind.IDENTITY
    assert cone_frechet_derivative([-1.0, -2.0]).kind is ConeDerivKind.ZERO
    assert cone_frechet_derivative([1.0, -2.0]).kind is ConeDerivKind.MASK
    assert cone_frechet_derivative([1.0, 0.0]).kind is ConeDerivKind.DIRECTIONAL_ONLY


def test_mask_derivative_action():
    deriv = cone_frechet_derivative([3.0, -1.0, 2.0])
    assert deriv.is_linear
    w = np.array([5.0, 7.0, -9.0])
    masked = deriv.apply(w)
    assert np.array_equal(masked, [5.0, 0.0, -9.0])
    # idempotent, exactly
    assert np.array_equal(deriv.apply(masked), masked)
    assert np.allclose(deriv.as_matrix(), np.diag([1.0, 0.0, 1.0]))


def test_directional_only_action():
    deriv = cone_frechet_derivative([1.0, -1.0, 0.0])
    assert not deriv.is_linear
    assert np.array_equal(deriv.apply([2.0, 3.0, -4.0]), [2.0, 0.0, 0.0])
    assert np.array_equal(deriv.apply([2.0, 3.0, 4.0]), [2.0, 0.0, 4.0])
    with pytest.raises(ValueError):
        deriv.as_matrix()


def test_directional_derivative_positively_homogeneous_not_additive():
    x = np.array([0.0, 1.0])
    w1, w2 = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    for lam in (0.5, 2.0, 7.25):
        assert np.array_equal(cone_gateaux(x, lam * w1), lam * cone_gateaux(x, w1))
    summed = cone_gateaux(x, w1) + cone_gateaux(x, w2)
    assert not np.array_equal(cone_gateaux(x, w1 + w2), summed)


def test_gateaux_at_origin_is_the_projection():
    rng = np.random.default_rng(13)
    for _ in range(100):
        w = rng.normal(size=rng.integers(1, 9))
        zero = np.zeros_like(w)
        assert np.array_equal(cone_gateaux(zero, w), project_cone(w))


def test_positive_homogeneity():
    # P(lam x) == lam P(x) for lam >= 0
    rng = np.random.default_rng(14)
    for _ in range(100):
        x = rng.normal(scale=3.0, size=4)
        lam = 10.0 * rng.random()
        assert np.max(np.abs(project_cone(lam * x) - lam * project_cone(x))) <= 1e-12
    assert np.array_equal(project_cone(0.0 * np.array([1.0, -2.0])), [0.0, 0.0])


def test_guarded_fd_step():
    assert guarded_fd_step([0.8, -0.4]) == 1e-5
    assert guarded_fd_step([1e-7, 2.0]) == 1e-7 / 16.0
    assert guarded_fd_step([0.0, 0.0]) == 1e-5


def test_mask_matches_central_difference():
    rng = np.random.default_rng(15)
    for _ in range(50):
        dim = rng.integers(2, 9)
        x = rng.uniform(0.3, 3.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        if classify_cone(x) is not ConeRegion.MIXED_SIGNS:
            continue
        deriv = cone_frechet_derivative(x)
        w = rng.normal(size=dim)
        h = guarded_fd_step(x)
        fd = (project_cone(x + h * w) - project_cone(x - h * w)) / (2.0 * h)
        assert np.linalg.norm(fd - deriv.apply(w)) <= 1e-9


def test_refutation_certificate():
    cert = cone_refute_frechet([1.0, 0.0, -2.0])
    assert np.array_equal(cert.direction, [0.0, 1.0, 0.0])
    assert np.linalg.norm(cert.forward_limit - cert.direction) <= 1e-9
    assert np.linalg.norm(cert.backward_limit) <= 1e-9
    assert abs(cert.gap - 1.0) <= 1e-9


def test_refutation_picks_smallest_zero_index():
    cert = cone_refute_frechet([1.0, 0.0, 0.0])
    assert np.array_equal(cert.direction, [0.0, 1.0, 0.0])


def test_refutation_requires_zero_coordinate():
    with pytest.raises(ValueError):
        cone_refute_frechet([1.0, -1.0])
