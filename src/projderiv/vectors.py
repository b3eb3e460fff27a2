"""Dense-vector primitives: coercion to finite float arrays, the 2-norm and dimension checks."""

from __future__ import annotations

import math

import numpy as np

Vector = np.ndarray


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


def parse_numbers(values: list, what: str) -> list[float]:
    """Parsed JSON numbers as finite floats; bools and strings are refused."""
    if not {int, float}.issuperset(map(type, values)):  # type(True) is bool, not int
        raise ValueError(f"{what} must be a number")
    try:
        floats = list(map(float, values))
    except OverflowError:  # an integer beyond the float range
        floats = [math.inf]
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{what} must be finite")
    return floats


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


def _same_dim(x: Vector, y: Vector) -> None:
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
