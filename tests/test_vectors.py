import numpy as np
import pytest

from projderiv import as_vector
from projderiv.vectors import as_points


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
