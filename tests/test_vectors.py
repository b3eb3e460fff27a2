import numpy as np
import pytest

from projderiv import as_vector
import warnings

from projderiv.vectors import as_points, norm, parse_number, parse_numbers


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([np.nan])
    with pytest.raises(ValueError):
        as_vector([1.0, np.inf])


def test_as_vector_is_read_only_copy():
    source = np.array([1.0, 2.0])
    v = as_vector(source)
    with pytest.raises(ValueError):
        v[0] = 9.0
    source[0] = 9.0
    assert v[0] == 1.0


def test_as_points_takes_one_point_or_a_stack():
    assert as_points([1.0, 2.0]).shape == (2,)
    stack = as_points([[1.0, 2.0], [3.0, 4.0]])
    assert stack.shape == (2, 2)
    with pytest.raises(ValueError):
        stack[0, 0] = 9.0
    for bad in ([], [[]], np.ones((2, 2, 2)), 1.0, [[1.0, np.nan]]):
        with pytest.raises(ValueError):
            as_points(bad)


def test_norm_keeps_the_bits_of_the_plain_norm_at_normal_magnitudes():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 16, 1000):
        rows = rng.standard_normal((max(10_000 // n, 10), n)) * 10.0 ** rng.uniform(-100, 100, (1, 1))
        assert np.array_equal(norm(rows), np.sqrt(np.vecdot(rows, rows)))
        assert all(norm(row) == np.sqrt(np.vecdot(row, row)) for row in rows[:10])


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_norm_at_extreme_scales(scale):
    # the plain norm overflows to inf at 1e200 and underflows to 0 at 1e-200
    assert norm(np.array([3.0, -4.0]) * scale) == pytest.approx(5.0 * scale, rel=4e-16, abs=0.0)
    rows = np.array([[3e200, 4e200], [0.0, 0.0], [3e-200, -4e-200], [3.0, 4.0]])
    assert norm(rows) == pytest.approx([5e200, 0.0, 5e-200, 5.0], rel=4e-16, abs=0.0)
    k = round(np.log2(scale))
    v = np.random.default_rng(5).standard_normal((100, 7))
    assert np.array_equal(norm(np.ldexp(v, k)), np.ldexp(norm(v), k))
    mixed = np.ldexp(v, np.array([k, 0, -k])[np.arange(100) % 3, None])
    assert np.array_equal(norm(mixed), np.ldexp(norm(v), np.array([k, 0, -k])[np.arange(100) % 3]))


def test_norm_beyond_the_float_range_is_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm(np.array([1.5e308, 1.5e308])) == np.inf
        assert np.array_equal(norm(np.array([[1.5e308, -1.5e308], [3.0, 4.0]])), [np.inf, 5.0])


LIMIT = 2**1024 - 2**970  # the least int whose conversion to float overflows


@pytest.mark.parametrize(
    "value",
    [True, False, "1", None, [1.0], {"a": 1}, np.float64(1.0), np.nan, -np.inf, 10**400,
     -(10**400), LIMIT, -LIMIT, LIMIT - 1, -(LIMIT - 1), 2**63 + 1, 0, -0.0, 5e-324, 1.5e308],
)
def test_parse_number_reads_and_refuses_as_parse_numbers_does(value):
    try:
        want = parse_numbers([value], "tail a")
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{e}$"):
            parse_number(value, "tail a")
        return
    got = parse_number(value, "tail a")
    assert type(got) is float and float(want[0]).hex() == got.hex()
