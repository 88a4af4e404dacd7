"""Membership and separation for the hull of the two-variable indicator set.

The package decides membership in the closed convex hull of
{(x, X, z) : X = x x^T, x (1 - z) = 0, x >= 0, z binary} in two variables
through an explicit piecewise description, generates violated supporting
cuts for non-members, and ships an independent numeric oracle for
verification.

The public names are imported from their submodules on first access, so
``import pairhull`` loads no submodule and a command of the CLI loads only
the modules it calls.
"""

import importlib

__version__ = "0.1.0"

#: The submodule that defines each public name.
_SUBMODULE_OF = {
    name: module
    for module, names in {
        "core": (
            "COORD_NAMES",
            "DEFAULT_TOL",
            "HullColumns",
            "HullPoint",
            "Tolerances",
            "in_relaxation_ctilde",
            "persp_sq",
            "validate_point",
        ),
        "hull": (
            "MembershipBatch",
            "MembershipReport",
            "member_batch",
            "member_hull",
            "piece_slacks",
        ),
        "oracle": (
            "OracleWitness",
            "oracle_member",
            "oracle_members",
            "oracle_objective",
        ),
        "regions": (
            "PartitionAuditReport",
            "Region",
            "classify",
            "classify_batch",
            "region_partition_audit",
        ),
        "separation": (
            "Cut",
            "SeparationBatch",
            "SeparationResult",
            "q_gradient",
            "q_value",
            "separate",
            "separate_batch",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
