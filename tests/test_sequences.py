import decimal
import json
import math
import operator
import random
import re
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projderiv import (
    ConeRegion,
    GeometricTail,
    L2Region,
    SeqVector,
    classify_l2,
    cone_frechet_derivative,
    distance,
    fd_directional,
    in_cone,
    interior_escape_witness,
    l2_gateaux,
    l2_nonfrechet_witness,
    project_cone,
    project_cone_l2,
    sign_partition,
)
from projderiv.cli import fmt_seq


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
    assert SeqVector({}, geo(1.0)).dot(SeqVector({}, geo(1.0))) == 4.0 / 3.0
    assert SeqVector({}, None).dot(SeqVector({}, None)) == 0.0


def test_norm_with_shadowed_override():
    # coordinate 1 replaced: 9 + (4/3 - 1) = 28/3
    x = SeqVector({1: 3.0}, geo(1.0))
    assert x.dot(x) == pytest.approx(28.0 / 3.0, rel=1e-15)


def test_norm_and_dot_against_dense_truncation():
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = random_seq(rng)
        y = random_seq(rng)
        dx, dy = x.truncate(400), y.truncate(400)  # remainder below 1e-30
        assert x.dot(x) == pytest.approx(float(dx @ dx), rel=1e-13)
        assert x.dot(y) == pytest.approx(float(dx @ dy), rel=1e-12, abs=1e-13)


def test_dot_with_mismatched_tails():
    x = SeqVector({1: 2.0}, geo(1.0, 0.5, 1))
    y = SeqVector({}, geo(2.0, 0.25, 3))
    dx, dy = x.truncate(200), y.truncate(200)
    assert x.dot(y) == pytest.approx(float(dx @ dy), rel=1e-13)


@pytest.mark.parametrize("rho_y", [0.999999, 0.999999 + 5e-7])
def test_dot_of_tails_with_ratios_near_one(rho_y):
    # Σ ρx^k ρy^k = 1 / (1 - ρx ρy); written as 1 - ρx ρy it cancels to ~95,000 ulp off
    x = SeqVector({}, geo(1.0, 0.999999))
    y = SeqVector({}, geo(1.0, rho_y))
    exact = float(1 / (1 - Fraction(0.999999) * Fraction(rho_y)))
    assert abs(x.dot(y) - exact) <= math.ulp(exact)


def test_tail_norm_from():
    rng = np.random.default_rng(24)
    for _ in range(30):
        tail = random_seq(rng).tail
        dense = SeqVector({}, tail).truncate(400)
        for j in (1, 3, 7, 64):  # before and after the tail start at 6
            want = float(np.linalg.norm(dense[j - 1:]))
            assert tail.norm_from(j) == pytest.approx(want, rel=1e-12)


def test_distance_same_tail_is_exact():
    x = SeqVector({1: 1.0}, geo(1.0, 0.5, 3))
    y = x.with_coord(5, 2.0)
    assert {i: y.coord(i) - x.coord(i) for i in {*x.overrides, *y.overrides}} == {5: 1.75, 1: 0.0}
    assert distance(x, y) == 1.75
    # cutting the tail leaves its norm from index 3: 1 / sqrt(3/4)
    assert distance(x, SeqVector({1: 1.0}, None)) == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)


def test_distance_scales_before_squaring():
    # squares of these differences underflow (1e-200) or overflow (1e200) in float64
    for scale in (1e-200, 1e200):
        x = SeqVector({1: 3.0 * scale}, geo(1.0, 0.5, 3))
        y = SeqVector({2: -4.0 * scale}, geo(1.0, 0.5, 3))
        assert distance(x, y) == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)
    assert distance(SeqVector({}, None), SeqVector({}, None)) == 0.0


def test_distance_is_bit_identical_to_the_unscaled_sum_at_normal_magnitudes():
    rng = np.random.default_rng(41)
    for _ in range(2000):
        size = int(rng.integers(1, 6))
        exps = rng.uniform(-30.0, 30.0, size=2 * size)
        values = rng.standard_normal(2 * size) * 10.0**exps
        x = SeqVector(dict(enumerate(values[:size].tolist(), 1)), None)
        y = SeqVector(dict(enumerate(values[size:].tolist(), 1)), None)
        diffs = [x.coord(i) - y.coord(i) for i in {*x.overrides, *y.overrides}]
        unscaled = math.sqrt(math.fsum(d * d for d in diffs))
        assert distance(x, y) == unscaled


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_distance_across_tails_at_extreme_scales(scale):
    # only the tail 4s·0.5^(i-2) from index 2 differs: its norm is 4s / sqrt(3/4);
    # the norm identity returned 0.0 at 1e-200 (squares underflow) and nan at 1e200
    x = SeqVector({1: 3.0 * scale}, geo(4.0 * scale, 0.5, 2))
    y = SeqVector({1: 3.0 * scale}, None)
    assert distance(x, y) == pytest.approx(scale * 4.0 / math.sqrt(0.75), rel=1e-15, abs=0.0)
    assert distance(y, x) == distance(x, y)


def assert_within_one_ulp(got, exact_sq):
    ulp = math.ulp(got)
    assert Fraction(got - ulp) ** 2 <= exact_sq <= Fraction(got + ulp) ** 2


@pytest.mark.parametrize(
    "tx, ty",
    [
        (geo(1.0), geo(1.0 + 2.0**-52)),  # equal ratios
        (geo(1.0), geo(1.0, 0.5 + 2.0**-53)),  # equal heads, ratios 1 ulp apart
        (geo(1.0, 0.999), geo(1.0 - 2.0**-53, 0.999 - 2.0**-53)),
    ],
)
def test_distance_between_nearly_equal_tails(tx, ty):
    # expanding the square of the tail difference cancelled to a negative sum here
    x, y = SeqVector({}, tx), SeqVector({}, ty)
    a, p, b, q = (Fraction(v) for v in (tx.coeff, tx.ratio, ty.coeff, ty.ratio))
    exact = a * a / (1 - p * p) - 2 * a * b / (1 - p * q) + b * b / (1 - q * q)
    assert_within_one_ulp(distance(x, y), exact)
    assert distance(y, x) == distance(x, y)


def test_distance_to_a_far_override_stops_where_the_tail_vanishes():
    # the tail's coordinates are 0.0 beyond index ~1080; the sum must not visit 1e9 indices
    x = SeqVector({}, geo(1.0))
    y = SeqVector({10**9: 1.0}, None)
    began = time.perf_counter()
    assert_within_one_ulp(distance(x, y), Fraction(7, 3))
    assert time.perf_counter() - began < 1.0


def test_distance_cross_tails_against_dense():
    x = SeqVector({2: -1.0}, geo(1.5, 0.5, 1))
    y = SeqVector({1: 4.0}, geo(0.5, 0.25, 2))
    dx, dy = x.truncate(200), y.truncate(200)
    assert distance(x, y) == pytest.approx(float(np.linalg.norm(dx - dy)), rel=1e-12)


def reference_distance(x, y):
    """distance as it was before it read the tails' stretch as one aligned run, verbatim:
    every coordinate difference goes through ``coords``, index by index."""
    from fractions import Fraction  # here, not at load: it and decimal add ~2 ms to every start-up

    signed = ((1.0, x.tail), (-1.0, y.tail))
    tails = [] if x.tail == y.tail else [(s, t) for s, t in signed if t is not None]
    last = max([x.support_max, y.support_max, *(t.start - 1 for _, t in tails)])
    idx = {*x.overrides, *y.overrides}
    for _, t in tails:  # from |coeff|·ρ^n < 2^-1080 on, its coordinates are 0.0 in float64
        reach = math.ceil((math.log(abs(t.coeff)) + 1080 * math.log(2.0)) / -math.log(t.ratio))
        idx.update(range(t.start, min(last, t.start + reach) + 1))
    idx = list(idx)
    diffs = list(filter(None, map(operator.sub, x.coords(idx), y.coords(idx))))  # 0s add nothing
    heads = [(s * t.value_at(last + 1), t.ratio) for s, t in tails]
    top = max(map(abs, [*diffs, *(h for h, _ in heads)]), default=0.0)
    if top == 0.0:
        return 0.0
    k = math.frexp(top)[1]
    scaled = [math.ldexp(d, -k) for d in diffs]
    heads = [(Fraction(math.ldexp(h, -k)), Fraction(r)) for h, r in heads]
    # Σ_k (Σ_t a_t p_t^k)² = Σ_{s,t} a_s a_t / (1 - p_s p_t), exact and so never negative
    beyond = sum(a * b / (1 - p * q) for a, p in heads for b, q in heads)
    return math.ldexp(math.sqrt(math.fsum([*(d * d for d in scaled), float(beyond)])), k)


distance_ratios = st.sampled_from([0.3, 0.5, 0.9, 0.999])
distance_coeffs = st.one_of(
    st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0 - 2.0**-52]),
    st.floats(-2.0, 2.0, allow_nan=False),  # 0.0 among them: a zero tail
)
override_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, 5e-324, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def overrides_near(draw, tail):
    """Overrides around the tail's start (or index 1): before it, across it, inside its
    stretch and out past where a ρ = 0.3 or 0.5 tail is 0.0 in float64; some exactly zero,
    some equal to the tail value under them (which the canonical form drops)."""
    base, overrides = tail.start if tail else 1, {}
    for k in draw(st.lists(st.integers(-45, 60) | st.integers(60, 3000), max_size=8)):
        i = max(1, base + k)
        under = draw(st.booleans()) and tail is not None
        overrides[i] = value_at_one_by_one(tail, i) if under else draw(override_values)
    return overrides


@st.composite
def distance_pairs(draw):
    """x and y with equal tails, a tail against the zero tail, two different tails (starts
    1–40), or two tails whose reaches leave a gap between them."""
    kind = draw(st.sampled_from(["equal", "zero", "two", "gap"]))
    tx = geo(draw(distance_coeffs), draw(distance_ratios), draw(st.integers(1, 40)))
    if kind == "equal":
        ty = tx
    elif kind == "zero":
        ty = None
    elif kind == "two":
        ty = geo(draw(distance_coeffs), draw(distance_ratios), draw(st.integers(1, 40)))
    else:  # ±1e-300·0.3^n is 0.0 in float64 from n = 48 on: the second tail starts past that
        tx = geo(draw(st.sampled_from([1e-300, -1e-300])), 0.3, tx.start)
        ty = geo(draw(distance_coeffs), draw(distance_ratios), tx.start + draw(st.integers(50, 2000)))
    ox = draw(overrides_near(tx))
    oy = {**ox, **draw(overrides_near(ty))} if draw(st.booleans()) else draw(overrides_near(ty))
    pair = [SeqVector(ox, tx), SeqVector(oy, ty)]
    return pair if draw(st.booleans()) else pair[::-1]


def outcome(f, x, y):
    """f(x, y) as its bits, or the error it raises: a distance past the float range overflows."""
    try:
        return f(x, y).hex()
    except OverflowError as error:
        return repr(error)


ESCAPE_MEMBER = SeqVector({i: 0.1 for i in range(1, 151)}, geo(1.2, 0.999, 149))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(pair=distance_pairs())
@example([ESCAPE_MEMBER, interior_escape_witness(ESCAPE_MEMBER, 1e-6)])  # the longest benchmark job's shape
@example([SeqVector({}, geo(1.0, 0.5, 1)), SeqVector({10**9: 1.0}, None)])  # an override far past the tail
@example([SeqVector({3: 0.0, 60: -0.0}, geo(1.0, 0.5, 2)), SeqVector({1: 2.0, 3: -0.0}, geo(1.0, 0.5, 10**6))])
@example([SeqVector({1: 1.0}, geo(1.0, 0.3, 1)), SeqVector({1: 1.0, 5: 2.0}, geo(1.0, 0.3, 1))])  # one flipped
def test_distance_is_bit_identical_to_the_coordinate_by_coordinate_reference(pair):
    x, y = pair
    want = outcome(reference_distance, x, y)
    assert outcome(distance, x, y) == want
    assert outcome(distance, x, y) == want  # again, with the tails' runs filled
    assert outcome(distance, y, x) == want


def exact_distance_sq(x, y):
    """‖x − y‖² as a Fraction of what distance sums: each coordinate as represented up to the
    last index where x or y is not pure tail, and past it each tail's exact geometric series
    from its value at the next index."""
    tails = [] if x.tail == y.tail else [(s, t) for s, t in ((1, x.tail), (-1, y.tail)) if t is not None]
    last = max([x.support_max, y.support_max, *(t.start - 1 for _, t in tails)])
    idx = list(range(1, last + 1) if tails else {*x.overrides, *y.overrides})
    near = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x.coords(idx), y.coords(idx)))
    heads = [(s * Fraction(t.value_at(last + 1)), Fraction(t.ratio)) for s, t in tails]
    return near + sum(a * b / (1 - p * q) for a, p in heads for b, q in heads)


def ulps_off(got, exact_sq):
    """How far got is from the square root of exact_sq, in ulps of got (exact to ~40 digits)."""
    with decimal.localcontext() as context:
        context.prec = 60
        root = (decimal.Decimal(exact_sq.numerator) / decimal.Decimal(exact_sq.denominator)).sqrt()
        return float(abs(decimal.Decimal(got) - root) / decimal.Decimal(math.ulp(got)))


DISTANCE_ULPS = 2.0  # README states this bound, in ulps of the result


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pair=distance_pairs())
@example([ESCAPE_MEMBER, interior_escape_witness(ESCAPE_MEMBER, 1e-6)])
def test_distance_is_within_two_ulps_of_the_exact_value(pair):
    x, y = pair
    exact, top = exact_distance_sq(x, y), sys.float_info.max
    try:
        got = distance(x, y)
    except OverflowError:  # only where the float range ends within the bound of the exact value
        assert exact > Fraction(top - DISTANCE_ULPS * math.ulp(top)) ** 2
    else:
        assert got == 0.0 if exact == 0 else ulps_off(got, exact) <= DISTANCE_ULPS


def test_distance_between_two_tails_evaluates_each_tail_coordinate_at_most_once(monkeypatch):
    # the two tails' stretch is read as one range per tail, the heads past it from the runs
    # or once each, and the overrides outside the stretch once
    evaluated = []
    compute = GeometricTail._eval

    def counted(tail, indices):
        indices = list(indices)
        evaluated.extend((id(tail), i) for i in indices)
        return compute(tail, indices)

    monkeypatch.setattr(GeometricTail, "_eval", counted)
    pairs = [  # ρ = 0.999 against ρ = 0.9 with an override far out, as in the slow shape
        lambda: (SeqVector({}, geo(1.0, 0.999, 1)), SeqVector({4000: 1.0}, geo(0.5, 0.9, 1))),
        lambda: (SeqVector({2: 1.0, 7: 0.0}, geo(1.0, 0.999, 3)), SeqVector({1: 2.0, 4000: 1.0}, geo(-0.5, 0.9, 5))),
        lambda: (SeqVector({1: 3.0}, geo(1.0, 0.9, 30)), SeqVector({4000: 1.0}, None)),  # below the stretch
        lambda: (SeqVector({}, geo(1e-300, 0.3, 1)), SeqVector({3000: 1.0}, geo(1.0, 0.5, 100))),  # far apart
    ]
    for make in pairs:
        want, (x, y) = reference_distance(*make()), make()
        for _ in range(2):  # with fresh tails, then with their runs filled
            evaluated.clear()
            assert distance(x, y) == want
            assert evaluated and len(evaluated) == len(set(evaluated))


def test_distance_between_tails_far_apart_lists_nothing_across_the_gap():
    # the tails' spans, [1, ~1080] and [10^12, 10^12 + 5], are 10^12 apart: reading their hull
    # as one list would need 10^12 entries, so they go coordinate by coordinate
    x = SeqVector({2: 1.0}, geo(1.0, 0.5, 1))
    y = SeqVector({10**12 + 5: 1.0}, geo(1.0, 0.5, 10**12))
    assert distance(x, y).hex() == reference_distance(x, y).hex()


# ------------------------------------------------------------- serialization


def test_record_shape():
    x = SeqVector({3: -2.5, 1: 0.1}, geo(1.0, 0.5, 4))
    record = json.loads(fmt_seq(x))
    assert record == {
        "overrides": [[1, 0.1], [3, -2.5]],
        "tail": {"kind": "geometric", "a": 1.0, "rho": 0.5, "start": 4},
    }
    assert SeqVector.from_record(record) == x
    assert json.loads(fmt_seq(SeqVector({}, None))) == {"overrides": [], "tail": {"kind": "zero"}}


def test_json_round_trip_awkward_values():
    cases = [
        SeqVector({1: 0.1, 7: 1.0 / 3.0, 900: -2.5e-17}, None),
        SeqVector({2: 1e-300}, geo(0.7, 0.9999, 2)),
        SeqVector({}, geo(-3.0, 1.0 / 3.0, 11)),
    ]
    for x in cases:
        assert SeqVector.from_record(json.loads(fmt_seq(x))) == x


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
    assert SeqVector.from_record(json.loads(fmt_seq(x))) == x


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


# The record reader checks all pairs at once; a fault after 500 good pairs is
# named as it is in a one-pair record, and a repeat by the first index that repeats.
GOOD_PAIRS = [[i, 0.5] for i in range(1, 501)]


@pytest.mark.parametrize(
    "bad,message",
    [
        ([[7]], "overrides must be a list of [index, value] pairs"),
        ([[7, 1, 2]], "overrides must be a list of [index, value] pairs"),
        ([{"7": 1}], "overrides must be a list of [index, value] pairs"),
        ([[0, 1.0]], "coordinate indices must be positive integers"),
        ([[True, 1.0]], "coordinate indices must be positive integers"),
        ([[[7], 1.0]], "coordinate indices must be positive integers"),
        ([[700, 1.0], [600, 1.0], [700, 2.0], [600, 2.0]], "duplicate override index 700"),
        ([[3, 1.0]], "duplicate override index 3"),
        ([[600, "1"]], "coordinate value must be a number"),
    ],
)
def test_from_record_names_a_fault_after_many_good_pairs(bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SeqVector.from_record({"overrides": GOOD_PAIRS + bad, "tail": {"kind": "zero"}})


@pytest.mark.parametrize("bad", [True, "1", None, [1.0], 10**400, -(10**400), math.inf, math.nan])
def test_from_record_numbers_must_be_finite_json_numbers(bad):
    with pytest.raises(ValueError, match=r"^coordinate value must be "):
        SeqVector.from_record({"overrides": [[1, bad]], "tail": {"kind": "zero"}})
    for key in ("a", "rho"):
        tail = {"kind": "geometric", "a": 1.0, "rho": 0.5, "start": 1, key: bad}
        with pytest.raises(ValueError, match=rf"^tail {key} must be "):
            SeqVector.from_record({"overrides": [], "tail": tail})


def test_tail_value_far_beyond_the_float_exponent_range_is_zero():
    assert geo(1.0, 0.5, 1).value_at(10**400) == 0.0
    assert geo(1.0, 1.0 - 2.0**-53, 1).value_at(2**64 + 1) == 0.0


def test_tail_value_keeps_a_large_coefficient_where_the_power_underflows():
    # 0.5**1999 is 0 in float64, yet 1e300 * 0.5**1999 ≈ 1.7e-302 is a normal number
    assert geo(1e300, 0.5, 1).value_at(2000) == float(Fraction(1e300) / 2**1999)
    exact = Fraction(1e300) * Fraction(0.3) ** 700  # 0.3**700 is subnormal
    assert geo(1e300, 0.3, 1).value_at(701) == pytest.approx(float(exact), rel=4e-16)


def value_at_one_by_one(tail, i):
    """A tail value computed one index at a time, as before values were taken in bulk."""
    if i < tail.start:
        return 0.0
    try:
        power = tail.ratio ** (i - tail.start)
    except OverflowError:  # an exponent beyond the float range: ratio < 1 underflows
        return 0.0
    if power >= sys.float_info.min:
        return tail.coeff * power
    n = i - tail.start  # the power is subnormal or 0: apply a large coefficient halfway down
    return tail.coeff * tail.ratio ** (n // 2) * tail.ratio ** (n - n // 2)


def bits(values):
    return [float(v).hex() for v in values]  # tells -0.0 from 0.0


EXP_LIMIT = 2**1024 - 2**970  # the least int whose conversion to float overflows

tail_coeffs = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False), st.sampled_from([1e300, -1e300, 5e-324, -1.0])
)
tail_ratios = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([0.5, 0.999, 1.0 - 2.0**-53, 5e-324]),
)
tail_offsets = st.one_of(
    st.integers(-3, 4000),  # before the start, and powers that go subnormal or to 0
    st.integers(2**53 - 3, 2**53 + 3),
    st.integers(2**64 - 3, 2**64 + 3),
    st.integers(EXP_LIMIT - 3, EXP_LIMIT + 3),  # where ratio ** n starts to raise
    st.just(10**400),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(coeff=tail_coeffs, ratio=tail_ratios, start=st.integers(1, 40), offsets=st.lists(tail_offsets))
@example(1e300, 0.5, 1, [1074, 1999, 2**64, EXP_LIMIT - 1, EXP_LIMIT])
@example(-1e300, 0.3, 7, [0, 700, 2**53 + 1, EXP_LIMIT - 1, EXP_LIMIT, 10**400])
def test_bulk_tail_values_equal_the_one_by_one_values_bit_for_bit(coeff, ratio, start, offsets):
    tail = geo(coeff, ratio, start)
    idx = [max(1, start + k) for k in offsets]
    want = bits(value_at_one_by_one(tail, i) for i in idx)
    assert bits(tail.values(idx)) == want
    assert bits(map(tail.value_at, idx)) == want


# A tail keeps the coordinates it has evaluated from its start in a private run, filled
# by a values request for a step-1 range from the start.  What the run serves must be
# what a fresh tail computes, at every index: before the start, in the run and past it.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    coeff=tail_coeffs | st.sampled_from([1e-300, -1e-300]),
    ratio=tail_ratios,
    start=st.integers(1, 40) | st.integers(1, 2**70),
    lengths=st.lists(st.integers(0, 1200), min_size=1, max_size=3),
    offsets=st.lists(tail_offsets | st.integers(-50, 1300)),
)
# 1e300·0.5^(i−1): the power goes subnormal at i ≈ 1023 and to 0 at i ≈ 1075
@example(1e300, 0.5, 1, [1080], [-3, 1020, 1070, 1074, 1075, 1076, 1079, 1080, 1081, 2000])
@example(1e-300, 0.5, 2**70, [5, 40, 3], [-1, 0, 4, 5, 39, 40, 41, 10**400])
def test_a_filled_run_serves_a_fresh_tails_values_bit_for_bit(coeff, ratio, start, lengths, offsets):
    used = geo(coeff, ratio, start)
    for length in lengths:  # fills the run, extends it, or serves a prefix of it
        want = geo(coeff, ratio, start).values(list(range(start, start + length)))
        assert bits(used.values(range(start, start + length))) == bits(want)
    assert len(used._run) == max(lengths)
    idx = [max(1, start + k) for k in offsets]
    want = bits(value_at_one_by_one(used, i) for i in idx)
    assert bits(used.values(idx)) == want == bits(geo(coeff, ratio, start).values(idx))
    assert bits(map(used.value_at, idx)) == want


def test_only_a_range_from_the_start_fills_the_run():
    tail = geo(1.0, 0.5, 3)
    for request in ([3, 4, 5], (3, 4), range(4, 9), range(3, 9, 2), range(1, 9)):
        tail.values(request)
    assert tail._run == []
    assert tail.values(range(3, 6)) == [1.0, 0.5, 0.25] == tail._run
    assert tail.values(range(3, 4)) == [1.0] and tail._run == [1.0, 0.5, 0.25]


@st.composite
def overrides_over_a_tail(draw):
    tail = geo(draw(tail_coeffs), draw(tail_ratios), draw(st.integers(1, 40)))
    overrides = {}
    for k in draw(st.lists(tail_offsets, max_size=12)):
        i = max(1, tail.start + k)
        kind = draw(st.sampled_from(["tail", "zero", "negative zero", "float"]))
        if kind == "tail":
            overrides[i] = value_at_one_by_one(tail, i)
        elif kind == "float":
            overrides[i] = draw(st.floats(allow_nan=False, allow_infinity=False))
        else:
            overrides[i] = 0.0 if kind == "zero" else -0.0
    return overrides, draw(st.sampled_from([tail, None]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(overrides_over_a_tail(), st.lists(tail_offsets, max_size=8))
def test_bulk_constructor_and_coords_match_the_one_by_one_loop(case, extra):
    overrides, tail = case
    x = SeqVector(overrides, tail)
    underneath = lambda i: 0.0 if x.tail is None else value_at_one_by_one(x.tail, i)
    kept = {i: float(v) for i, v in sorted(overrides.items()) if float(v) != underneath(i)}
    assert list(x.overrides) == list(kept) and bits(x.overrides.values()) == bits(kept.values())
    idx = sorted({*overrides, *(max(1, k) for k in extra)})
    assert bits(x.coords(idx)) == bits(kept.get(i, underneath(i)) for i in idx)
    assert bits(map(x.coord, idx)) == bits(x.coords(idx))


# the record reader checks its pairs itself and builds the canonical form with no second
# check, evaluating the tail only from its start on: it must keep the overrides that differ
# from the value underneath, in index order and to the bit, as the constructor does
@settings(max_examples=200, derandomize=True, deadline=None)
@given(overrides_over_a_tail(), st.randoms(use_true_random=False))
@example(({3: 0.0, 1: -0.0, 2: 1.0}, None), random.Random(0))
@example(({1: 0.0, 5: 0.25}, geo(0.0, 0.5, 2)), random.Random(0))  # a zero tail is no tail
@example(({4: 0.5, 2: 1.0, 3: 0.25, 1: -0.0}, geo(1.0, 0.5, 2)), random.Random(0))  # 2 and 4 go
def test_a_record_builds_the_constructors_canonical_form(case, rnd):
    overrides, tail = case
    pairs = [[i, v] for i, v in overrides.items()]
    rnd.shuffle(pairs)
    tail_rec = {"kind": "zero"} if tail is None else {
        "kind": "geometric", "a": tail.coeff, "rho": tail.ratio, "start": tail.start}
    got = SeqVector.from_record({"overrides": pairs, "tail": tail_rec})
    tail = None if tail is None or tail.coeff == 0.0 else tail
    underneath = lambda i: 0.0 if tail is None else value_at_one_by_one(tail, i)
    kept = {i: float(v) for i, v in sorted(overrides.items()) if float(v) != underneath(i)}
    assert list(got.overrides) == list(kept) and bits(got.overrides.values()) == bits(kept.values())
    assert got.tail == tail and got == SeqVector(overrides, tail)


@pytest.mark.parametrize("index", [True, False, 0, -3, 1.0, "2", None, np.int64(2)])
def test_constructor_refuses_indices_that_are_not_positive_ints(index):
    with pytest.raises(ValueError, match=r"^coordinate indices must be positive integers$"):
        SeqVector({5: 1.0, index: 2.0}, geo(1.0))
    with pytest.raises(ValueError, match=r"^coordinate indices must be positive integers$"):
        SeqVector({index: 2.0}, None)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("nan")])
def test_constructor_refuses_values_that_are_not_finite(value):
    with pytest.raises(ValueError, match=r"^coordinate values must be finite$"):
        SeqVector({5: 1.0, 2: value}, geo(1.0))


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
    # ratios >= 0.7 keep coordinate 64 of the truncation a normal, nonzero float
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
            assert sign_partition(x.truncate(64)).region is expected[region]
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
        for t in (2.0**-10, 2.0**-14, 2.0**-17):
            q = fd_directional(project_cone, x.truncate(length), w.truncate(length), t)
            assert float(np.linalg.norm(q - claim)) == 0.0


def test_gateaux_agrees_with_dense_directional_derivative():
    rng = np.random.default_rng(29)
    for _ in range(40):
        x = random_seq(rng, ratio_low=0.7)
        if classify_l2(x) is L2Region.OTHER:
            continue
        w = random_seq(rng)
        got = l2_gateaux(x, w).truncate(64)
        want = cone_frechet_derivative(x.truncate(64)).apply(w.truncate(64))
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


def test_witness_residuals_stay_exact_below_square_underflow():
    # x_n = 0.5**599 ≈ 2.4e-181: its square underflows, the scaled distances do not
    report = l2_nonfrechet_witness(SeqVector({}, geo(1.0)), 600)
    assert (report.residual_u, report.residual_v) == (0.5, 2.0 / 3.0)


@pytest.mark.parametrize("n", [1075, 1200, 10**400])  # x_n subnormal, then 0 in float64
@pytest.mark.parametrize(
    "x, candidate",
    [
        (SeqVector({}, geo(1.0)), "identity"),
        (SeqVector({}, geo(-1.0)), "zero"),
        (SeqVector({1: -1.0}, geo(1.0, start=2)), "mask"),
        (SeqVector({1: 1.0}, geo(-1.0, start=2)), "mask"),
    ],
)
def test_witness_residuals_stay_exact_where_the_coordinate_underflows(x, candidate, n):
    report = l2_nonfrechet_witness(x, n)
    assert (report.n, report.candidate) == (n, candidate)
    assert (report.residual_u, report.residual_v) == (0.5, 2.0 / 3.0)


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


def escape_by_dense_walk(x, eps):
    """The witness as first written: m found by walking index by index, and
    every index from 1 to m visited."""
    m = x.support_max
    if x.tail is not None:
        a, rho, start = x.tail.coeff, x.tail.ratio, x.tail.start
        m = max(m, start - 1)
        while abs(a * rho ** (m + 1 - start)) / math.sqrt(1.0 - rho * rho) >= eps / 2.0:
            m += 1
    coords = {i: x.coord(i) for i in range(1, m + 1) if x.coord(i) != 0.0}
    coords[m + 1] = -eps / 2.0
    return SeqVector(coords, None)


def test_escape_witness_matches_dense_walk():
    rng = np.random.default_rng(37)
    for _ in range(200):
        start = int(rng.integers(1, 40))
        indices = rng.choice(np.arange(1, 60), size=int(rng.integers(0, 6)), replace=False)
        overrides = {int(i): float(rng.choice([0.0, rng.uniform(0.0, 3.0)])) for i in indices}
        coeff, ratio = rng.uniform(0.1, 2.0), rng.uniform(0.2, 0.95)
        tail = None if rng.random() < 0.2 else geo(coeff, ratio, start)
        x = SeqVector(overrides, tail)
        for eps in (1.0, 1e-2, 1e-6):
            assert interior_escape_witness(x, eps) == escape_by_dense_walk(x, eps)


def test_escape_witness_far_tail_start_skips_the_empty_head():
    x = SeqVector({3: 1.0}, geo(1.0, 0.5, 10**9))
    began = time.perf_counter()
    y = interior_escape_witness(x, 0.1)
    assert time.perf_counter() - began < 1.0
    assert min(y.overrides) == 3 and sorted(y.overrides)[1] == 10**9
    assert not in_cone(y)
    assert distance(x, y) < 0.1


def test_escape_witness_below_square_underflow():
    # eps²/4 is 0 in float64 once eps < ~3e-162; the tail norm is compared with eps/2
    x = SeqVector({}, geo(5e-324))
    y = interior_escape_witness(x, 1e-300)
    assert y == SeqVector({1: -5e-301}, None)
    assert distance(x, y) < 1e-300
    x = SeqVector({}, geo(1e-300, 0.5))
    y = interior_escape_witness(x, 1e-300)
    assert y == SeqVector({1: 1e-300, 2: 5e-301, 3: -5e-301}, None)
    assert distance(x, y) < 1e-300
    assert interior_escape_witness(SeqVector({}, None), 1e-300) == SeqVector({1: -5e-301}, None)


def exact_escape_distance_sq(x, y):
    """‖x − y‖² as a Fraction, for an escape y that cut x's tail at its last override."""
    m = y.support_max
    near = sum((Fraction(x.coord(i)) - Fraction(y.coord(i))) ** 2 for i in range(1, m + 1))
    return near + Fraction(x.coord(m + 1)) ** 2 / (1 - Fraction(x.tail.ratio) ** 2)


@pytest.mark.parametrize(
    "coeff, ratio, eps",
    [
        (1e100, 0.5, 1e-300),  # dip / norm underflows to 0
        (1e300, 0.5, 1e-200),  # 0.5**(i - 1) underflows long before the tail drops below eps
        (1.7e308, 0.5, 1.0),  # the tail norm overflows to inf
        (1e308, 0.9, 1.0),
    ],
)
def test_escape_witness_at_extreme_tail_to_eps_ratios(coeff, ratio, eps):
    x = SeqVector({}, geo(coeff, ratio))
    y = interior_escape_witness(x, eps)
    assert not in_cone(y)
    exact = exact_escape_distance_sq(x, y)
    assert exact < Fraction(eps) ** 2
    assert_within_one_ulp(distance(x, y), exact)
    # the cut-off is the first index whose tail norm is below eps/2
    m = y.support_max - 1
    assert x.tail.norm_from(m + 1) < eps / 2.0 <= x.tail.norm_from(m)


@pytest.mark.parametrize("x", [SeqVector({}, None), SeqVector({2: 1.0}, None), SeqVector({}, geo(1.0))])
def test_escape_witness_refuses_eps_whose_half_underflows(x):
    # -5e-324 / 2 rounds to -0.0, a dip the cone cannot tell from zero
    with pytest.raises(ValueError, match=r"^eps/2 underflows to 0"):
        interior_escape_witness(x, 5e-324)


cone_members = st.builds(
    SeqVector,
    st.dictionaries(
        st.integers(min_value=1, max_value=20),
        st.just(0.0) | st.floats(min_value=2.0**-20, max_value=2.0**20),
        max_size=5,
    ),
    st.none()
    | st.builds(
        GeometricTail,
        coeff=st.floats(min_value=2.0**-20, max_value=2.0**20),
        ratio=st.floats(min_value=0.05, max_value=0.9),
        start=st.integers(min_value=1, max_value=20),
    ),
)


@settings(max_examples=400, deadline=None)
@given(
    x=cone_members,
    eps=st.sampled_from([1.0, 1e-2, 1e-6]),
    k=st.integers(min_value=500, max_value=900) | st.integers(min_value=-900, max_value=-500),
)
def test_escape_witness_scales_exactly_by_powers_of_two(x, eps, k):
    # multiplying by 2^k is exact far from subnormals and overflow, so the
    # scaled job must give the scaled escape and distance bit for bit
    tail = x.tail and GeometricTail(math.ldexp(x.tail.coeff, k), x.tail.ratio, x.tail.start)
    scaled = SeqVector({i: math.ldexp(v, k) for i, v in x.overrides.items()}, tail)
    y = interior_escape_witness(x, eps)
    y_scaled = interior_escape_witness(scaled, math.ldexp(eps, k))
    assert y_scaled == SeqVector({i: math.ldexp(v, k) for i, v in y.overrides.items()}, None)
    assert distance(scaled, y_scaled) == math.ldexp(distance(x, y), k)
    assert distance(x, y) < eps


def test_escape_witness_validation():
    with pytest.raises(ValueError):
        interior_escape_witness(SeqVector({1: -1.0}, None), 0.5)
    with pytest.raises(ValueError):
        interior_escape_witness(SeqVector({}, None), 0.0)
    with pytest.raises(ValueError):
        interior_escape_witness(SeqVector({}, None), np.inf)


def test_escape_and_its_distance_evaluate_each_tail_coordinate_once(monkeypatch):
    # the escape spells out x's tail up to its cut m, and distance(x, escape) reads the
    # same coordinates: they come from the tail's run, not from ratio ** n a second time
    evaluated = []
    compute = GeometricTail._eval

    def counted(tail, indices):
        indices = list(indices)
        evaluated.extend(indices)
        return compute(tail, indices)

    monkeypatch.setattr(GeometricTail, "_eval", counted)
    for x in (SeqVector({}, geo(1.0, 0.999, 1)), SeqVector({1: 0.125, 4: 0.5, 9: 0.0}, geo(0.2, 0.999, 3))):
        evaluated.clear()
        escape = interior_escape_witness(x, 1e-6)
        assert distance(x, escape) < 1e-6
        m = escape.support_max - 1
        assert m > 16000
        assert len(evaluated) == len(set(evaluated))  # each coordinate once
        assert set(range(x.tail.start, m + 2)) <= set(evaluated) <= set(range(1, m + 3))


# x_1 = 0.5 over the tail 0.999999999999^(i − 2) from i = 2: at eps = 1e-3 the cut m is
# about 2e13, and the index list alone would need about 1.7e14 bytes
TOO_LONG = SeqVector({1: 0.5}, geo(1.0, 0.999999999999, 2))


def test_an_escape_too_long_to_list_is_refused_before_any_list_is_built():
    message = r"^the escape's cut m >= (\d+) lists more than 4194304 coordinates from the tail's start; pick a larger eps$"
    with pytest.raises(ValueError, match=message) as refused:
        interior_escape_witness(TOO_LONG, 1e-3)
    assert int(re.match(message, str(refused.value))[1]) > 2 * 10**13
    assert TOO_LONG.tail._run == []
    # so is an override more than 2^22 coordinates past the tail's start
    far = SeqVector({2**22 + 1: 1.0}, geo(1.0, 0.5, 1))
    with pytest.raises(ValueError, match=r"^the escape's cut m >= 4194305 lists more than 4194304 "):
        interior_escape_witness(far, 0.1)
    assert far.tail._run == []


def test_the_escape_bound_counts_coordinates_from_the_tails_start():
    x = SeqVector({2: 1.0}, geo(1.0, 0.999, 2**70))  # about 17,600 coordinates from 2^70 on
    y = interior_escape_witness(x, 1e-6)
    assert min(y.overrides) == 2 and sorted(y.overrides)[1] == 2**70
    assert 17000 < y.support_max - 2**70 < 2**22 and distance(x, y) < 1e-6


# ------------------------------------------------------------ canonical form

# Results built from checked sequences skip the constructor's checks: each must
# still be the checking constructor's canonical form of the same coordinates
# (sorted indices, no override equal to the value underneath, values to the bit),
# and support_max, read off the last override, must be the largest index.
def magnitudes(signs=(1.0, -1.0)):
    """Floats from 2^-1000 to 2^1000 in size, of the given signs."""
    mantissas, exponents = st.floats(0.5, 1.0, exclude_max=True), st.integers(-1000, 1000)
    return st.builds(lambda s, m, k: s * math.ldexp(m, k), st.sampled_from(signs), mantissas, exponents)


@st.composite
def seq_vectors(draw, signs=(1.0, -1.0), definite=False):
    """Overrides on 1..60 over a tail (or none): overrides equal to the tail value underneath
    and zeros, which shadow a positive tail, among them.  A definite draw has a tail and a
    nonzero override at every index before its start (a sign-definite region or mixed signs)."""
    tail = draw(st.builds(geo, magnitudes(signs), st.floats(0.05, 0.9), st.integers(1, 8 if definite else 30)))
    if not definite and draw(st.booleans()):
        tail = None
    overrides = {i: draw(magnitudes(signs)) for i in range(1, tail.start)} if definite else {}
    for i in draw(st.lists(st.integers(1, 60), max_size=12)):
        kind = draw(st.sampled_from(["tail", "zero", "float"] if not definite else ["tail", "float"]))
        if kind == "tail" and tail is not None and i >= tail.start:
            overrides[i] = tail.value_at(i)
        else:
            overrides[i] = 0.0 if kind == "zero" else draw(magnitudes(signs))
    return SeqVector(overrides, tail)


def assert_checked_canonical_form(got, want):
    assert list(got.overrides) == list(want.overrides)
    assert bits(got.overrides.values()) == bits(want.overrides.values())
    assert got.tail == want.tail
    assert got.support_max == max(got.overrides, default=0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(seq_vectors())
@example(SeqVector({1: -1.0, 3: 0.0, 5: 2.0}, geo(1.0, 0.5, 2)))  # a zero shadows the tail
@example(SeqVector({2: 0.0, 4: 3.0}, geo(-1.0, 0.5, 3)))  # the tail and a zero both go
def test_projection_is_the_checking_constructors_canonical_form(x):
    if x.tail is not None and x.tail.coeff < 0.0:
        want = SeqVector({i: v for i, v in x.overrides.items() if v > 0.0}, None)
    else:
        want = SeqVector({i: (v if v > 0.0 else 0.0) for i, v in x.overrides.items()}, x.tail)
    assert_checked_canonical_form(project_cone_l2(x), want)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seq_vectors(definite=True), seq_vectors())
@example(SeqVector({1: -1.0, 2: 2.0}, geo(1.0, 0.5, 3)), SeqVector({5: 1.0, 1: 4.0}, geo(2.0, 0.5, 2)))
@example(SeqVector({1: 1.0, 2: -2.0}, geo(-1.0, 0.5, 3)), SeqVector({2: 0.0}, geo(2.0, 0.5, 1)))
def test_gateaux_is_the_checking_constructors_canonical_form(x, w):
    region = classify_l2(x)
    if region is L2Region.ALL_POSITIVE:
        want = w
    elif region is L2Region.ALL_NEGATIVE:
        want = SeqVector({}, None)
    elif x.tail.coeff > 0.0:
        want = SeqVector({**w.overrides, **{i: 0.0 for i, v in x.overrides.items() if v < 0.0}}, w.tail)
    else:
        want = SeqVector({i: w.coord(i) for i, v in x.overrides.items() if v > 0.0}, None)
    assert_checked_canonical_form(l2_gateaux(x, w), want)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seq_vectors(signs=(1.0,)), magnitudes(signs=(1.0,)))
@example(SeqVector({1: 2.0, 3: 0.0, 6: 1.5, 9: 0.0}, geo(0.25, 0.5, 5)), 1e-4)
def test_escape_is_the_checking_constructors_canonical_form(x, eps):
    got = interior_escape_witness(x, eps)  # eps/2 ≥ 2^-1002 does not underflow
    m = got.support_max - 1  # x is kept up to m, then m + 1 dips to -eps/2
    head = dict(zip(range(1, m + 1), x.coords(range(1, m + 1))))
    assert_checked_canonical_form(got, SeqVector({**head, m + 1: -eps / 2.0}, None))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seq_vectors(), st.integers(1, 70), magnitudes() | st.sampled_from([0.0, -0.0]), st.data())
def test_edits_are_the_checking_constructors_canonical_form(x, i, value, data):
    if x.tail is not None and i >= x.tail.start and data.draw(st.booleans()):
        value = x.tail.value_at(i)  # set back to the tail: the override goes
    want = SeqVector({**x.overrides, i: value}, x.tail)
    assert_checked_canonical_form(x.with_coord(i, value), want)
    delta = data.draw(st.dictionaries(st.integers(1, 70), magnitudes() | st.just(0.0), max_size=6))
    want = SeqVector({**x.overrides, **{j: x.coord(j) + v for j, v in delta.items()}}, x.tail)
    assert_checked_canonical_form(x.add_finite(delta), want)


@pytest.mark.parametrize("bad", [0, -1, True, 1.0, "2"])
def test_edits_refuse_a_bad_index_as_the_constructor_does(bad):
    x = SeqVector({1: 1.0}, geo(1.0, 0.5, 2))
    for edit in (lambda: x.with_coord(bad, 1.0), lambda: x.add_finite({bad: 1.0})):
        with pytest.raises(ValueError, match=r"^coordinate indices must be positive integers$"):
            edit()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_edits_refuse_a_value_that_is_not_finite(bad):
    x = SeqVector({1: 1.0}, geo(1.0, 0.5, 2))
    for edit in (lambda: x.with_coord(3, bad), lambda: x.add_finite({3: bad})):
        with pytest.raises(ValueError, match=r"^coordinate values must be finite$"):
            edit()


def test_a_shift_that_overflows_is_refused():
    x = SeqVector({2: 1.7e308}, None)
    with pytest.raises(ValueError, match=r"^coordinate values must be finite$"):
        x.add_finite({2: 1.7e308})
