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
    in_separable_relaxation,
    persp_sq,
    validate_point,
)
from .hull import (
    MembershipBatch,
    MembershipReport,
    member_batch,
    member_hull,
    persp_relaxation_member,
    piece_slacks,
    psd3_by_minors,
    rankone_member,
)
from .oracle import (
    OracleWitness,
    analytic_witness,
    oracle_member,
    oracle_members,
    oracle_objective,
)
from .regions import (
    PartitionAuditReport,
    Region,
    classify,
    classify_batch,
    region_matches,
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
    taylor_cut,
)
from .verify import SampleSeed, sample_hull, sample_S2, sample_separable_relaxation

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
    "SampleSeed",
    "SeparationResult",
    "Tolerances",
    "analytic_witness",
    "classify",
    "classify_batch",
    "in_relaxation_ctilde",
    "in_separable_relaxation",
    "member_batch",
    "member_hull",
    "oracle_member",
    "oracle_members",
    "oracle_objective",
    "persp_relaxation_member",
    "persp_sq",
    "piece_slacks",
    "psd3_by_minors",
    "psd_support_cut",
    "q_gradient",
    "q_value",
    "rankone_member",
    "region_matches",
    "region_partition_audit",
    "sample_S2",
    "sample_hull",
    "sample_separable_relaxation",
    "separate",
    "separate_batch",
    "taylor_cut",
    "validate_point",
]
