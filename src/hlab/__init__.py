"""Exact rational convex-geometry engine for the continuity of
f(r) = B_r(A) n B in the Hausdorff metric over polyhedral norms."""

from ._scalar import BACKEND, Rat, format_rat, rat
from .geometry import ConvexPolygon, Membership, Point, Segment, clip_segment, contains_point, orientation, pt
from .norms import NormSandwich, PolyhedralNorm, euclidean_approx, l1_norm, linf_norm, support
from .convex_ops import (
    DistanceWitness,
    hausdorff,
    hausdorff_union,
    intersect,
    minkowski_sum,
    neighborhood,
    point_distance,
    segment_distance,
    set_distance,
    signed_distance,
    subset_of,
)
from .continuity import (
    DomainError,
    LeftWitness,
    ModulusReport,
    RightWitness,
    ScanRow,
    delta_left,
    delta_right,
    f_eval,
    grid_oracle_hausdorff,
    modulus_scan,
    verify_modulus,
)
from .scenarios import (
    JumpReport,
    Scene,
    f_union_eval,
    figure1_scenario,
    figure2_convex_control,
    figure2_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
