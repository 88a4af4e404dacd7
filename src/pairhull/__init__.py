"""Membership and separation for the hull of the two-variable indicator set.

The package decides membership in the closed convex hull of
{(x, X, z) : X = x x^T, x (1 - z) = 0, x >= 0, z binary} in two variables
through an explicit piecewise description, generates violated supporting
cuts for non-members, and ships an independent numeric oracle for
verification.
"""

from .core import (
    COORD_NAMES,
    DEFAULT_TOL,
    HullColumns,
    HullPoint,
    Tolerances,
    in_relaxation_ctilde,
    persp_sq,
    validate_point,
)
from .hull import (
    MembershipBatch,
    MembershipReport,
    member_batch,
    member_hull,
    piece_slacks,
)
from .oracle import (
    OracleWitness,
    oracle_member,
    oracle_members,
    oracle_objective,
)
from .regions import (
    PartitionAuditReport,
    Region,
    classify,
    classify_batch,
    region_partition_audit,
)
from .separation import (
    Cut,
    SeparationBatch,
    SeparationResult,
    psd_support_cut,
    q_gradient,
    q_value,
    separate,
    separate_batch,
)

__version__ = "0.1.0"

__all__ = [
    "COORD_NAMES",
    "DEFAULT_TOL",
    "Cut",
    "HullColumns",
    "HullPoint",
    "MembershipBatch",
    "SeparationBatch",
    "MembershipReport",
    "OracleWitness",
    "PartitionAuditReport",
    "Region",
    "SeparationResult",
    "Tolerances",
    "classify",
    "classify_batch",
    "in_relaxation_ctilde",
    "member_batch",
    "member_hull",
    "oracle_member",
    "oracle_members",
    "oracle_objective",
    "persp_sq",
    "piece_slacks",
    "psd_support_cut",
    "q_gradient",
    "q_value",
    "region_partition_audit",
    "separate",
    "separate_batch",
    "validate_point",
]
