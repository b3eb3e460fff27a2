import numpy as np
import pytest

from projderiv import (
    ConeDerivKind,
    ConeRegion,
    cone_frechet_derivative,
    cone_refute_frechet,
    project_cone,
    sign_partition,
)
from projderiv.verify import FD_STEP


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
        masks = (part.plus, part.minus, part.zero)
        for mask in masks:
            assert mask.shape == x.shape and mask.dtype == bool and not mask.flags.writeable
        # every coordinate lies in exactly one of the three
        assert np.array_equal(np.sum(masks, axis=0), np.ones(x.size))


def test_sign_partition_and_mask_match_coordinate_loop():
    # reference: classify and mask one coordinate at a time
    rng = np.random.default_rng(16)
    for _ in range(200):
        x = rng.normal(size=rng.integers(1, 17)) * 10.0 ** rng.integers(-3, 4)
        x[rng.random(x.size) < 0.2] = 0.0
        x[rng.random(x.size) < 0.1] = 1e-15
        zero = {i for i, v in enumerate(x) if v == 0.0}
        plus = {i for i, v in enumerate(x) if v > 0.0}
        part = sign_partition(x)
        assert np.array_equal(part.plus, [i in plus for i in range(x.size)])
        assert np.array_equal(part.zero, [i in zero for i in range(x.size)])
        assert np.array_equal(part.minus, [i not in plus | zero for i in range(x.size)])
        w = rng.normal(size=x.size)
        keep = np.array([1.0 if i in plus else 0.0 for i in range(x.size)])
        ramp = np.array([1.0 if i in zero else 0.0 for i in range(x.size)])
        want = w * keep + np.maximum(w, 0.0) * ramp
        assert np.array_equal(cone_frechet_derivative(x).apply(w), want)


def test_sign_partition_signs_are_exact():
    # the clamp is the identity near any nonzero coordinate, however small
    part = sign_partition([1e-15, 1.0])
    assert part.plus.tolist() == [True, True] and not part.zero.any()
    assert sign_partition([1e-15, 1.0]).region is ConeRegion.INTERIOR
    assert sign_partition([1e15, 1e-3]).region is ConeRegion.INTERIOR
    assert sign_partition([1e-200, -1e-200]).region is ConeRegion.MIXED_SIGNS
    assert sign_partition([5e-324, 1.0]).region is ConeRegion.INTERIOR
    part = sign_partition([0.0, -0.0, -5e-324])
    assert part.zero.tolist() == [True, True, False] and part.minus.tolist() == [False, False, True]


def test_classify_regions():
    assert sign_partition([2.0, 0.5]).region is ConeRegion.INTERIOR
    assert sign_partition([-2.0, -0.5]).region is ConeRegion.NEGATIVE_INTERIOR
    assert sign_partition([2.0, -0.5]).region is ConeRegion.MIXED_SIGNS
    assert sign_partition([2.0, 0.0]).region is ConeRegion.HAS_ZERO
    # one dimension: no mixed-sign region exists
    assert sign_partition([5.0]).region is ConeRegion.INTERIOR
    assert sign_partition([-5.0]).region is ConeRegion.NEGATIVE_INTERIOR
    assert sign_partition([0.0]).region is ConeRegion.HAS_ZERO


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
    matrix = np.column_stack([deriv.apply(e) for e in np.eye(3)])
    assert np.array_equal(matrix, np.diag([1.0, 0.0, 1.0]))


def test_directional_only_action():
    deriv = cone_frechet_derivative([1.0, -1.0, 0.0])
    assert not deriv.is_linear
    assert np.array_equal(deriv.apply([2.0, 3.0, -4.0]), [2.0, 0.0, 0.0])
    assert np.array_equal(deriv.apply([2.0, 3.0, 4.0]), [2.0, 0.0, 4.0])
    # not additive along the zero axis, so no matrix represents it
    up, down = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    assert not np.array_equal(deriv.apply(up) + deriv.apply(down), deriv.apply(up + down))


def test_directional_derivative_positively_homogeneous_not_additive():
    x = np.array([0.0, 1.0])
    w1, w2 = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    for lam in (0.5, 2.0, 7.25):
        assert np.array_equal(
            cone_frechet_derivative(x).apply(lam * w1), lam * cone_frechet_derivative(x).apply(w1)
        )
    summed = cone_frechet_derivative(x).apply(w1) + cone_frechet_derivative(x).apply(w2)
    assert not np.array_equal(cone_frechet_derivative(x).apply(w1 + w2), summed)


def test_gateaux_at_origin_is_the_projection():
    rng = np.random.default_rng(13)
    for _ in range(100):
        w = rng.normal(size=rng.integers(1, 9))
        zero = np.zeros_like(w)
        assert np.array_equal(cone_frechet_derivative(zero).apply(w), project_cone(w))


def test_positive_homogeneity():
    # P(lam x) == lam P(x) for lam >= 0
    rng = np.random.default_rng(14)
    for _ in range(100):
        x = rng.normal(scale=3.0, size=4)
        lam = 10.0 * rng.random()
        assert np.max(np.abs(project_cone(lam * x) - lam * project_cone(x))) <= 1e-12
    assert np.array_equal(project_cone(0.0 * np.array([1.0, -2.0])), [0.0, 0.0])


def test_mask_matches_central_difference():
    rng = np.random.default_rng(15)
    for _ in range(50):
        dim = rng.integers(2, 9)
        x = rng.uniform(0.3, 3.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        if sign_partition(x).region is not ConeRegion.MIXED_SIGNS:
            continue
        deriv = cone_frechet_derivative(x)
        w = rng.normal(size=dim)
        h = min(FD_STEP, float(np.min(np.abs(x))) / 16.0)  # keeps every coordinate's sign
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


@pytest.mark.parametrize("n", [1, 2, 16, 1000])
def test_stacked_projection_and_derivative_match_row_by_row(n):
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(12, n))
    stack[0] = 0.0
    stack[1, : n // 2] = 0.0
    projected = project_cone(stack)
    assert projected.shape == stack.shape
    for row, got in zip(stack, projected):
        assert np.array_equal(got, project_cone(row))
    magnitude = np.abs(rng.normal(size=n)) + 0.5
    mixed = magnitude * np.where(np.arange(n) % 2, -1.0, 1.0)
    with_zero = mixed.copy()
    with_zero[-1] = 0.0
    for x in (magnitude, -magnitude, mixed, with_zero):
        deriv = cone_frechet_derivative(x)
        applied = deriv.apply(stack)
        assert applied.shape == stack.shape
        plus, zero = deriv.partition.plus, deriv.partition.zero
        for row, got in zip(stack, applied):
            assert np.array_equal(got, deriv.apply(row))
            assert np.array_equal(got, row * plus + np.maximum(row, 0.0) * zero)


def test_one_point_error_messages():
    deriv = cone_frechet_derivative([1.0, -2.0])
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
        deriv.apply([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"^vector coordinates must be finite$"):
        deriv.apply([1.0, np.nan])
    with pytest.raises(ValueError, match=r"^vector coordinates must be finite$"):
        project_cone([np.inf])
