"""Dense-vector primitives: coercion to finite float arrays, the 2-norm and dimension checks."""

from __future__ import annotations

import math
from operator import attrgetter

import numpy as np

Vector = np.ndarray
_INT_LIMIT = 2**1024 - 2**970  # the least int whose conversion to float overflows


def as_vector(x) -> Vector:
    """Coerce to a finite 1-D float64 array (read-only copy)."""
    return _finite_copy(x, (1,), "a 1-D vector")


def as_points(x) -> Vector:
    """Coerce one point (n,) or a stack of points (S, n) to a finite float64 read-only copy."""
    return _finite_copy(x, (1, 2), "a 1-D vector or a 2-D stack of vectors")


def _finite_copy(x, ndims: tuple[int, ...], what: str) -> Vector:
    v = np.array(x, dtype=np.float64, copy=True)
    if v.ndim not in ndims or v.size == 0:
        raise ValueError(f"expected {what} with at least one coordinate")
    if not np.isfinite(v).all():
        raise ValueError("vector coordinates must be finite")
    v.flags.writeable = False
    return v


def parse_numbers(values: list, what: str) -> Vector:
    """Parsed JSON numbers as a finite float64 array; bools and strings are refused."""
    if not {int, float}.issuperset(map(type, values)):  # type(True) is bool, not int
        raise ValueError(f"{what} must be a number")
    try:
        v = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what} must be finite") from None
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite")
    return v


def parse_number(value, what: str) -> float:
    """One parsed JSON number as a finite float, refused as by ``parse_numbers``, with no array."""
    if type(value) not in (int, float):  # type(True) is bool, not int
        raise ValueError(f"{what} must be a number")
    if not (abs(value) < _INT_LIMIT if type(value) is int else math.isfinite(value)):
        raise ValueError(f"{what} must be finite")
    return float(value)


def norm(v):
    """‖v‖ along the last axis (Blue, ACM TOMS 1978): sqrt(v·v), and only where a square
    over- or underflows, each row first divided by the power of two above its largest
    |v_i|.  That is exact, so results keep their bits at normal magnitudes and 2^k·v has
    norm 2^k·‖v‖ exactly.  Beyond the float range the norm is inf, with no warning."""
    try:
        with np.errstate(over="raise", under="raise"):
            return np.sqrt(np.vecdot(v, v))
    except FloatingPointError:
        with np.errstate(over="ignore", under="ignore"):
            s, k = _scaled(v)
            return np.ldexp(np.sqrt(np.vecdot(s, s)), k)


def _scaled(d: Vector) -> tuple[Vector, Vector]:
    """(d / 2^k, k) row by row, with 2^k just above each row's max |d_i|: exact, and the
    squares of d / 2^k cannot overflow, so at normal magnitudes every result keeps its bits."""
    k = np.frexp(np.abs(d).max(axis=-1, keepdims=True))[1]
    return np.ldexp(d, -k), k[..., 0]


def _same_dim(expected: Vector | int, got: Vector) -> Vector:
    """``got``, refused unless its last axis has the expected length (an array's last axis, or an int)."""
    n = expected if isinstance(expected, int) else expected.shape[-1]
    if n != got.shape[-1]:
        raise ValueError(f"dimension mismatch: {n} vs {got.shape[-1]}")
    return got


class _Value:
    """Immutable value whose fields are its public ``__slots__``, set once by a checking constructor.

    Equal and hashed by its fields, shown as ``Name(field=value, ...)``, and copied and
    pickled through the constructor, so a copy is checked as the original was."""

    __slots__ = ()

    def __init_subclass__(cls):  # _key: the field values, a tuple as every subclass has 2 or more
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._key = property(attrgetter(*cls._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), self._key
