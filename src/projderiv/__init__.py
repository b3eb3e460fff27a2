"""Metric projections onto closed balls and positive cones, their derivative
operators where those exist, and numerical certificates where they do not."""

import types

from .vectors import Vector, as_vector
from .balls import (
    Ball,
    BallDeriv,
    BallDerivKind,
    BallRegion,
    BallRegionTag,
    ball_frechet_derivative,
    ball_gateaux_sphere,
    classify_ball,
    project_ball,
    sphere_tolerance,
)
from .orthant import (
    ConeDeriv,
    ConeDerivKind,
    ConeRegion,
    SignPartition,
    cone_frechet_derivative,
    cone_refute_frechet,
    project_cone,
    sign_partition,
)
from .sequences import (
    GeometricTail,
    L2Region,
    SeqVector,
    WitnessReport,
    classify_l2,
    distance,
    in_cone,
    interior_escape_witness,
    l2_gateaux,
    l2_nonfrechet_witness,
    project_cone_l2,
)
from .verify import (
    Refutation,
    ResidualScan,
    fd_directional,
    qp_projection_oracle,
    refutation_threshold,
    refute_linearity,
    strict_residual_scan,
)

__version__ = "0.1.0"

# every public name bound above, submodules (and ``types``) aside
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, types.ModuleType))
