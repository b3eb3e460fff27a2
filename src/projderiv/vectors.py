"""Dense-vector primitives: coercion to finite float arrays and dimension checks."""

from __future__ import annotations

import numpy as np

Vector = np.ndarray


def as_vector(x) -> Vector:
    """Coerce to a finite 1-D float64 array (read-only copy)."""
    v = np.array(x, dtype=np.float64, copy=True)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a 1-D vector with at least one coordinate")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector coordinates must be finite")
    v.flags.writeable = False
    return v


def _same_dim(x: Vector, y: Vector) -> None:
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.size} vs {y.size}")
