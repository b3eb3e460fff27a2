import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projderiv import (
    ConeRegion,
    GeometricTail,
    L2Region,
    SeqVector,
    classify_cone,
    classify_l2,
    cone_gateaux,
    diff_coords,
    distance,
    fd_directional,
    in_cone,
    interior_escape_witness,
    l2_gateaux,
    l2_nonfrechet_witness,
    project_cone,
    project_cone_l2,
)


def geo(coeff, ratio=0.5, start=1):
    return GeometricTail(coeff=coeff, ratio=ratio, start=start)


def random_seq(rng, tail_sign=None, ratio_low=0.3, ratio_high=0.9):
    """Random instance with overrides on 1..5 and a geometric tail from 6."""
    overrides = {}
    for i in range(1, 6):
        value = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        if tail_sign == "pos":
            value = abs(value) if rng.random() < 0.7 else value
        overrides[i] = value
    coeff = rng.uniform(0.2, 2.0)
    if tail_sign == "neg" or (tail_sign is None and rng.random() < 0.5):
        coeff = -coeff
    return SeqVector(overrides, geo(coeff, rng.uniform(ratio_low, ratio_high), 6))


# ---------------------------------------------------------------- structure


def test_tail_validation_and_values():
    with pytest.raises(ValueError):
        GeometricTail(coeff=1.0, ratio=1.0, start=1)
    with pytest.raises(ValueError):
        GeometricTail(coeff=1.0, ratio=0.0, start=1)
    with pytest.raises(ValueError):
        GeometricTail(coeff=np.inf, ratio=0.5, start=1)
    with pytest.raises(ValueError):
        GeometricTail(coeff=1.0, ratio=0.5, start=0)
    tail = geo(3.0, 0.5, 4)
    assert tail.value_at(3) == 0.0
    assert tail.value_at(4) == 3.0
    assert tail.value_at(6) == 0.75


def test_coordinate_lookup():
    x = SeqVector({2: 7.0}, geo(1.0, 0.5, 4))
    assert x.coord(1) == 0.0  # before the tail, not overridden
    assert x.coord(2) == 7.0
    assert x.coord(4) == 1.0
    assert x.coord(6) == 0.25
    with pytest.raises(ValueError):
        x.coord(0)


def test_canonicalization():
    # override identical to the tail value underneath is dropped
    assert SeqVector({2: 0.5}, geo(1.0)) == SeqVector({}, geo(1.0))
    # zero-coefficient tail collapses to the zero tail
    assert SeqVector({1: 2.0}, geo(0.0)) == SeqVector({1: 2.0}, None)
    # explicit zero over a zero tail is redundant (and -0.0 compares equal)
    assert SeqVector({3: 0.0}, None) == SeqVector({}, None)
    assert SeqVector({3: -0.0}, None) == SeqVector({}, None)
    # explicit zero over a nonzero tail value is a real coordinate
    assert SeqVector({1: 0.0}, geo(1.0)).overrides == {1: 0.0}


def test_vector_validation():
    with pytest.raises(ValueError):
        SeqVector({0: 1.0}, None)
    with pytest.raises(ValueError):
        SeqVector({-2: 1.0}, None)
    with pytest.raises(ValueError):
        SeqVector({True: 1.0}, None)
    with pytest.raises(ValueError):
        SeqVector({1: np.nan}, None)


def test_editing_helpers():
    x = SeqVector({1: 2.0}, geo(1.0))
    assert x.support_max == 1
    y = x.with_coord(3, 9.0)
    assert y.coord(3) == 9.0 and x.coord(3) == 0.25
    z = x.add_finite({1: -1.0, 4: 1.0})
    assert z.coord(1) == 1.0
    assert z.coord(4) == 1.125  # 0.125 tail value shifted by 1
    assert np.array_equal(x.truncate(4), [2.0, 0.5, 0.25, 0.125])
    with pytest.raises(ValueError):
        x.truncate(0)


# ------------------------------------------------------- norms and products


def test_norm_of_pure_geometric_tail():
    # sum of 4^-k: 1 / (1 - 1/4) = 4/3
    assert SeqVector({}, geo(1.0)).norm_sq() == 4.0 / 3.0
    assert SeqVector({}, None).norm() == 0.0


def test_norm_with_shadowed_override():
    # coordinate 1 replaced: 9 + (4/3 - 1) = 28/3
    x = SeqVector({1: 3.0}, geo(1.0))
    assert x.norm_sq() == pytest.approx(28.0 / 3.0, rel=1e-15)


def test_norm_and_dot_against_dense_truncation():
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = random_seq(rng)
        y = random_seq(rng)
        dx, dy = x.truncate(400), y.truncate(400)  # remainder below 1e-30
        assert x.norm_sq() == pytest.approx(float(dx @ dx), rel=1e-13)
        assert x.dot(y) == pytest.approx(float(dx @ dy), rel=1e-12, abs=1e-13)


def test_dot_with_mismatched_tails():
    x = SeqVector({1: 2.0}, geo(1.0, 0.5, 1))
    y = SeqVector({}, geo(2.0, 0.25, 3))
    dx, dy = x.truncate(200), y.truncate(200)
    assert x.dot(y) == pytest.approx(float(dx @ dy), rel=1e-13)


def test_tail_mass_after():
    rng = np.random.default_rng(24)
    for _ in range(30):
        x = random_seq(rng)
        dense = x.truncate(400)
        for j in (0, 3, 7, 64):
            assert x.tail_mass_after(j) == pytest.approx(float(dense[j:] @ dense[j:]), rel=1e-12, abs=1e-300)


def test_distance_same_tail_is_exact():
    x = SeqVector({1: 1.0}, geo(1.0, 0.5, 3))
    y = x.with_coord(5, 2.0)
    assert diff_coords(y, x) == {5: 2.0 - 0.25, 1: 0.0}
    assert distance(x, y) == 1.75
    with pytest.raises(ValueError):
        diff_coords(x, SeqVector({1: 1.0}, None))


def test_distance_cross_tails_against_dense():
    x = SeqVector({2: -1.0}, geo(1.5, 0.5, 1))
    y = SeqVector({1: 4.0}, geo(0.5, 0.25, 2))
    dx, dy = x.truncate(200), y.truncate(200)
    assert distance(x, y) == pytest.approx(float(np.linalg.norm(dx - dy)), rel=1e-12)


# ------------------------------------------------------------- serialization


def test_record_shape():
    x = SeqVector({3: -2.5, 1: 0.1}, geo(1.0, 0.5, 4))
    record = x.to_record()
    assert record == {
        "overrides": [[1, 0.1], [3, -2.5]],
        "tail": {"kind": "geometric", "a": 1.0, "rho": 0.5, "start": 4},
    }
    assert SeqVector.from_record(record) == x
    assert SeqVector({}, None).to_record() == {"overrides": [], "tail": {"kind": "zero"}}


def test_json_round_trip_awkward_values():
    cases = [
        SeqVector({1: 0.1, 7: 1.0 / 3.0, 900: -2.5e-17}, None),
        SeqVector({2: 1e-300}, geo(0.7, 0.9999, 2)),
        SeqVector({}, geo(-3.0, 1.0 / 3.0, 11)),
    ]
    for x in cases:
        text = json.dumps(x.to_record())
        assert SeqVector.from_record(json.loads(text)) == x


@settings(max_examples=150, deadline=None)
@given(
    overrides=st.dictionaries(
        st.integers(min_value=1, max_value=10**6),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        max_size=8,
    ),
    coeff=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ratio=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    start=st.integers(min_value=1, max_value=1000),
    zero_tail=st.booleans(),
)
def test_json_round_trip_property(overrides, coeff, ratio, start, zero_tail):
    tail = None if zero_tail else GeometricTail(coeff=coeff, ratio=ratio, start=start)
    x = SeqVector(overrides, tail)
    assert SeqVector.from_record(json.loads(json.dumps(x.to_record()))) == x


def test_from_record_validation():
    with pytest.raises(ValueError):
        SeqVector.from_record({"overrides": []})
    with pytest.raises(ValueError):
        SeqVector.from_record({"overrides": [[1, 2.0], [1, 3.0]], "tail": {"kind": "zero"}})
    with pytest.raises(ValueError):
        SeqVector.from_record({"overrides": [[1]], "tail": {"kind": "zero"}})
    with pytest.raises(ValueError):
        SeqVector.from_record({"overrides": [], "tail": {"kind": "harmonic"}})
    with pytest.raises(ValueError):
        SeqVector.from_record({"overrides": [], "tail": {"kind": "zero", "a": 1.0}})
    with pytest.raises(ValueError):
        SeqVector.from_record({"overrides": [], "tail": {"kind": "geometric", "a": 1.0}})


# ------------------------------------------------------------ classification


def test_classify_sign_regions():
    assert classify_l2(SeqVector({}, geo(1.0))) is L2Region.ALL_POSITIVE
    assert classify_l2(SeqVector({}, geo(-1.0))) is L2Region.ALL_NEGATIVE
    assert classify_l2(SeqVector({1: -2.0}, geo(1.0))) is L2Region.MIXED_SIGNS
    assert classify_l2(SeqVector({1: 3.0, 2: 1.0}, geo(-1.0, 0.5, 3))) is L2Region.MIXED_SIGNS


def test_classify_other_region():
    # any zero coordinate lands in OTHER: zero tail, a gap before the tail
    # starts, or an explicit zero override
    assert classify_l2(SeqVector({}, None)) is L2Region.OTHER
    assert classify_l2(SeqVector({1: 1.0, 2: 2.0}, None)) is L2Region.OTHER
    assert classify_l2(SeqVector({}, geo(1.0, 0.5, 3))) is L2Region.OTHER
    assert classify_l2(SeqVector({2: 0.0}, geo(1.0))) is L2Region.OTHER


def test_in_cone():
    assert in_cone(SeqVector({}, None))
    assert in_cone(SeqVector({1: 2.0, 5: 0.0}, geo(1.0, 0.5, 2)))
    assert not in_cone(SeqVector({1: -2.0}, geo(1.0)))
    assert not in_cone(SeqVector({}, geo(-1.0)))


def test_classify_matches_dense_classifier_on_truncations():
    # ratios >= 0.7 keep coordinate 64 above the dense classifier's zero band
    rng = np.random.default_rng(25)
    expected = {
        L2Region.ALL_POSITIVE: ConeRegion.INTERIOR,
        L2Region.ALL_NEGATIVE: ConeRegion.NEGATIVE_INTERIOR,
        L2Region.MIXED_SIGNS: ConeRegion.MIXED_SIGNS,
    }
    seen = set()
    for _ in range(20):
        base = random_seq(rng, ratio_low=0.7, ratio_high=0.9)
        positive = SeqVector({i: abs(v) for i, v in base.overrides.items()},
                             geo(abs(base.tail.coeff), base.tail.ratio, base.tail.start))
        negative = SeqVector({i: -abs(v) for i, v in base.overrides.items()},
                             geo(-abs(base.tail.coeff), base.tail.ratio, base.tail.start))
        mixed = positive.with_coord(2, -positive.coord(2))
        for x in (positive, negative, mixed, base):
            region = classify_l2(x)
            seen.add(region)
            assert classify_cone(x.truncate(64)) is expected[region]
    assert seen == set(expected)


# --------------------------------------------------------------- projection


def test_projection_clamps():
    x = SeqVector({1: -2.0}, geo(1.0))
    assert project_cone_l2(x) == SeqVector({1: 0.0}, geo(1.0))
    y = SeqVector({2: 5.0, 3: -1.0}, geo(-1.0))
    assert project_cone_l2(y) == SeqVector({2: 5.0}, None)
    zero = SeqVector({}, None)
    assert project_cone_l2(zero) == zero


def test_projection_idempotent_and_feasible():
    rng = np.random.default_rng(26)
    for _ in range(100):
        x = random_seq(rng)
        p = project_cone_l2(x)
        assert in_cone(p)
        assert project_cone_l2(p) == p


def test_projection_matches_dense_projection_on_truncations():
    rng = np.random.default_rng(27)
    for _ in range(100):
        x = random_seq(rng)
        assert np.array_equal(project_cone_l2(x).truncate(64), project_cone(x.truncate(64)))


def test_projection_is_nearest_point_on_truncations():
    rng = np.random.default_rng(28)
    for _ in range(50):
        x = random_seq(rng)
        dense = x.truncate(64)
        p = project_cone_l2(x).truncate(64)
        best = np.linalg.norm(dense - p)
        for _ in range(20):
            candidate = np.abs(rng.normal(scale=2.0, size=64))
            assert best <= np.linalg.norm(dense - candidate) + 1e-12


# ------------------------------------------------------ directional behavior


def test_gateaux_identity_zero_and_mask():
    w = SeqVector({1: -4.0, 9: 2.0}, geo(3.0, 0.25, 2))
    assert l2_gateaux(SeqVector({}, geo(1.0)), w) == w
    assert l2_gateaux(SeqVector({}, geo(-1.0)), w) == SeqVector({}, None)
    # mixed with positive tail: w loses the coordinates where x is negative
    x = SeqVector({1: -2.0}, geo(1.0))
    assert l2_gateaux(x, w) == w.with_coord(1, 0.0)
    # mixed with negative tail: only x's positive coordinates survive
    y = SeqVector({1: 3.0, 2: 1.0}, geo(-1.0, 0.5, 3))
    assert l2_gateaux(y, w) == SeqVector({1: w.coord(1), 2: w.coord(2)}, None)


def test_gateaux_rejects_zero_coordinates():
    with pytest.raises(ValueError):
        l2_gateaux(SeqVector({}, None), SeqVector({1: 1.0}, None))
    with pytest.raises(ValueError):
        l2_gateaux(SeqVector({1: 0.0}, geo(1.0)), SeqVector({1: 1.0}, None))


def test_gateaux_matches_forward_differences_on_truncations():
    # dyadic coordinates, dyadic direction values, and power-of-two steps
    # keep every add/clamp/subtract/divide exact, so the forward quotients
    # reproduce the claimed map bit for bit
    length = 24
    w = SeqVector({1: 0.75, 2: -1.25, 3: 0.5, 4: -0.25, 5: 2.0}, None)
    bases = [
        SeqVector({}, geo(1.0)),  # identity regime
        SeqVector({}, geo(-1.0)),  # zero-map regime
        SeqVector({1: -2.0, 2: 1.5}, geo(1.0, 0.5, 3)),  # mask regime
    ]
    for x in bases:
        claim = l2_gateaux(x, w).truncate(length)
        est = fd_directional(
            project_cone,
            x.truncate(length),
            w.truncate(length),
            steps=(2.0**-10, 2.0**-14, 2.0**-17),
            claim=claim,
        )
        assert est.errors_vs_claim == (0.0, 0.0, 0.0)


def test_gateaux_agrees_with_dense_directional_derivative():
    rng = np.random.default_rng(29)
    for _ in range(40):
        x = random_seq(rng, ratio_low=0.7)
        if classify_l2(x) is L2Region.OTHER:
            continue
        w = random_seq(rng)
        got = l2_gateaux(x, w).truncate(64)
        want = cone_gateaux(x.truncate(64), w.truncate(64))
        assert np.allclose(got, want, atol=1e-12)


# ------------------------------------------------------------------ witness


def test_witness_constants_all_positive():
    x = SeqVector({}, geo(1.0))
    for n in (5, 10, 100):
        report = l2_nonfrechet_witness(x, n)
        assert report.candidate == "identity"
        assert abs(report.residual_u - 0.5) <= 1e-15
        assert abs(report.residual_v - 2.0 / 3.0) <= 1e-15


def test_witness_constants_all_negative():
    x = SeqVector({}, geo(-1.0))
    for n in (5, 10, 100):
        report = l2_nonfrechet_witness(x, n)
        assert report.candidate == "zero"
        assert abs(report.residual_u - 0.5) <= 1e-15
        assert abs(report.residual_v - 2.0 / 3.0) <= 1e-15


def test_witness_constants_mixed_both_tail_signs():
    up = SeqVector({1: -2.0}, geo(1.0))
    down = SeqVector({1: 3.0, 2: 1.0}, geo(-1.0, 0.5, 3))
    for x in (up, down):
        report = l2_nonfrechet_witness(x, 9)
        assert report.candidate == "mask"
        assert abs(report.residual_u - 0.5) <= 1e-15
        assert abs(report.residual_v - 2.0 / 3.0) <= 1e-15


def test_witness_against_dense_truncation_oracle():
    masks = {
        "identity": lambda d, t: d,
        "zero": lambda d, t: np.zeros_like(d),
        "mask": lambda d, t: d * (t > 0.0),
    }
    rng = np.random.default_rng(30)
    for _ in range(20):
        x = random_seq(rng, ratio_low=0.4)
        if classify_l2(x) is L2Region.OTHER:
            continue
        n = 12
        report = l2_nonfrechet_witness(x, n)
        t = x.truncate(n + 32)
        apply_a = masks[report.candidate]
        for mult, got in ((-1.0, report.residual_u), (-2.0, report.residual_v)):
            pert = t.copy()
            pert[n - 1] = mult * t[n - 1]
            num = np.maximum(pert, 0.0) - np.maximum(t, 0.0) - apply_a(pert - t, t)
            want = np.linalg.norm(num) / np.linalg.norm(pert - t)
            assert got == pytest.approx(want, abs=1e-12)


def test_witness_index_must_be_pure_tail():
    x = SeqVector({1: 2.0, 4: 3.0}, geo(1.0, 0.5, 2))
    with pytest.raises(ValueError):
        l2_nonfrechet_witness(x, 3)  # overridden above
    with pytest.raises(ValueError):
        l2_nonfrechet_witness(x, 4)  # an override itself
    with pytest.raises(ValueError):
        l2_nonfrechet_witness(SeqVector({}, geo(1.0, 0.5, 5)), 3)  # before the tail
    with pytest.raises(ValueError):
        l2_nonfrechet_witness(SeqVector({}, None), 3)  # no sign-definite region
    assert l2_nonfrechet_witness(x, 5).n == 5


# ----------------------------------------------------------- empty interior


def test_escape_witness_small_case():
    x = SeqVector({}, geo(1.0))
    y = interior_escape_witness(x, 1.0)
    assert y == SeqVector({1: 1.0, 2: 0.5, 3: -0.5}, None)
    assert not in_cone(y)
    assert distance(x, y) == pytest.approx(math.sqrt(7.0 / 12.0), abs=1e-12)


def test_escape_witness_zero_tail_and_origin():
    y = interior_escape_witness(SeqVector({1: 5.0, 3: 2.0}, None), 0.5)
    assert y == SeqVector({1: 5.0, 3: 2.0, 4: -0.25}, None)
    z = interior_escape_witness(SeqVector({}, None), 0.5)
    assert z == SeqVector({1: -0.25}, None)


def test_escape_witness_random_members():
    rng = np.random.default_rng(31)
    for _ in range(50):
        x = random_seq(rng, tail_sign="pos")
        x = project_cone_l2(x)  # force membership
        for eps in (1e-1, 1e-4):
            y = interior_escape_witness(x, eps)
            assert not in_cone(y)
            assert distance(x, y) < eps


def test_escape_witness_validation():
    with pytest.raises(ValueError):
        interior_escape_witness(SeqVector({1: -1.0}, None), 0.5)
    with pytest.raises(ValueError):
        interior_escape_witness(SeqVector({}, None), 0.0)
    with pytest.raises(ValueError):
        interior_escape_witness(SeqVector({}, None), np.inf)
