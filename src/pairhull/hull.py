"""Closed-form membership in the convex hull of the lifted indicator set.

The hull is the union of the closures of eight pieces, one per partition
cell.  Membership of a point is decided by the inequality system of the
cell that contains it; each inequality carries a stable name so violated
sets can be asserted in tests and reported by the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import (
    DEFAULT_TOL,
    HullPoint,
    Tolerances,
    persp_sq,
    slack_minus,
    validate_point,
)
from .errors import NumericallyDegenerate
from .families import (
    FAMILY_BY_CELL,
    q_value,
    shift_z,
    shifted_terms,
    w_shift,
    w_sqrt_arg,
)
from .regions import Region, classify, on_indicator_edge, region_closure_contains

_NEG_INF = -math.inf


@dataclass
class MembershipReport:
    """Decision record for one point: member iff no inequality is violated."""

    member: bool
    region: Region
    violated: tuple[str, ...]
    slacks: dict[str, float] = field(default_factory=dict)
    W: float | None = None
    degenerate: bool = False


def member_hull_n1(x1: float, X11: float, z1: float, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Single-variable hull test: X11 z1 >= x1^2 over the ambient strip."""
    m = tol.mem_tol
    if not all(math.isfinite(v) for v in (x1, X11, z1)):
        return False
    return (
        X11 * z1 - x1 * x1 >= -m
        and x1 >= -m
        and X11 >= -m
        and -m <= z1 <= 1.0 + m
    )


def psd3_by_minors(
    m6: tuple[float, float, float, float, float, float],
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Positive semidefiniteness of a symmetric 3x3 via four minors.

    ``m6`` is (a11, a12, a13, a22, a23, a33).  For a11 > 0 only the two
    mixed 2x2 minors and one scaled product inequality are needed; a11 = 0
    forces a zero first row/column, falling back to the trailing 2x2 block.
    """
    a11, a12, a13, a22, a23, a33 = (float(v) for v in m6)
    e = tol.eq_tol
    if a11 < -e:
        return False
    if a11 <= e:
        if abs(a12) > e or abs(a13) > e:
            return False
        return a22 >= -e and a33 >= -e and a22 * a33 - a23 * a23 >= -e
    m1 = a11 * a22 - a12 * a12
    m2 = a11 * a33 - a13 * a13
    if m1 < -e or m2 < -e:
        return False
    return m1 * m2 - (a11 * a23 - a12 * a13) ** 2 >= -e


def _product_slack(a: float, b: float, c: float, mem_tol: float) -> float:
    """Slack of a*b >= c^2 guarding against a spuriously positive product
    when both factors sit below the band."""
    if a < -mem_tol and b < -mem_tol:
        return _NEG_INF
    return a * b - c * c


def _part1_slacks(p: HullPoint, tol: Tolerances) -> dict[str, float]:
    return {
        "I.persp1": slack_minus(p.X11, persp_sq(p.x1, p.z1, tol)),
        "I.persp2": slack_minus(p.X22, persp_sq(p.x2, p.z2, tol)),
    }


def _shifted_product_slacks(p: HullPoint, family: str, tol: Tolerances) -> dict[str, float]:
    """Parts II and III share one shape: X22 >= x2^2/z2 plus the family's
    shifted product q >= 0.  With the shifting indicator z in the zero band
    the closed perspectives replace the fractions over z."""
    e = tol.eq_tol
    z = shift_z(family, p)
    out = {f"{family}.persp2": slack_minus(p.X22, persp_sq(p.x2, p.z2, tol))}
    if z > e:
        a, b, c = shifted_terms(family, p)
    else:
        a = slack_minus(p.X11, persp_sq(p.x1, z, tol))
        b = slack_minus(p.X22, persp_sq(p.x2, z, tol))
        # x1 x2 / z has a finite closure only when x1 x2 vanishes
        c = p.X12 if p.x1 * p.x2 <= e else _NEG_INF
    if math.isinf(a) or math.isinf(b) or math.isinf(c):
        out[f"{family}.product"] = _NEG_INF
    else:
        out[f"{family}.product"] = _product_slack(a, b, c, tol.mem_tol)
    return out


def _part4_slacks(p: HullPoint, tol: Tolerances) -> dict[str, float]:
    a = p.X11 - p.x1 * p.x1
    b = p.X22 - p.x2 * p.x2
    return {
        "IV.diag1": a,
        "IV.persp2": slack_minus(p.X22, persp_sq(p.x2, p.z2, tol)),
        "IV.shor": _product_slack(a, b, p.X12 - p.x1 * p.x2, tol.mem_tol),
    }


def _part5_slacks(p: HullPoint, tol: Tolerances) -> tuple[dict[str, float], float]:
    """Part V: the two perspective bounds and q_V >= 0, with the W shift.

    W is defined for x2 > 0 and z1 + z2 > 1; its square-root argument is
    clamped at zero within the membership band.
    """
    out = _part1_slacks(p, tol)
    out = {"V.persp1": out["I.persp1"], "V.persp2": out["I.persp2"]}
    s, _, arg = w_sqrt_arg(p)
    if p.x2 <= tol.eq_tol or s <= tol.eq_tol:
        raise NumericallyDegenerate("W undefined: needs x2 > 0 and z1 + z2 > 1")
    if arg < -tol.mem_tol:
        raise NumericallyDegenerate(f"W sqrt argument {arg} < 0")
    w = w_shift(p)
    if w <= tol.eq_tol:
        raise NumericallyDegenerate(f"W = {w} at the R8 piece boundary")
    out["V.W-ineq"] = q_value("V", p)
    return out, w


def _edge_slacks(p: HullPoint, tol: Tolerances) -> dict[str, float]:
    """Closure system on the z1 = 0 / z2 = 0 edges when X12 > 0.

    The hull closure there collapses to (X11 - x1^2/z1)(X22 - x2^2/z2)
    >= X12^2 together with the two perspective bounds; this is the limit of
    the part II/III products as the vanishing indicator goes to zero.
    """
    out = _part1_slacks(p, tol)
    a = slack_minus(p.X11, persp_sq(p.x1, p.z1, tol))
    b = slack_minus(p.X22, persp_sq(p.x2, p.z2, tol))
    if math.isinf(a) or math.isinf(b):
        out["edge.product"] = _NEG_INF
    else:
        out["edge.product"] = _product_slack(a, b, p.X12, tol.mem_tol)
    return out


def piece_slacks(
    p: HullPoint, region: Region, tol: Tolerances = DEFAULT_TOL
) -> dict[str, float]:
    """Named slacks of the hull piece attached to ``region`` evaluated at p.

    Raises :class:`NumericallyDegenerate` for the R8 piece when W is not
    strictly positive.
    """
    if region in (Region.R2, Region.R6):
        return _part1_slacks(p, tol)
    if region is Region.R1:
        if p.X12 > tol.eq_tol and on_indicator_edge(p, tol):
            return _edge_slacks(p, tol)
        return _part1_slacks(p, tol)
    if region is Region.R7:
        return _part4_slacks(p, tol)
    family = FAMILY_BY_CELL.get(region.value)
    if family == "V":
        return _part5_slacks(p, tol)[0]
    if family is not None:
        return _shifted_product_slacks(p, family, tol)
    raise ValueError(f"no hull piece for region {region}")


def member_hull(
    p: HullPoint,
    tol: Tolerances = DEFAULT_TOL,
    oracle_fallback: bool = True,
) -> MembershipReport:
    """Decide hull membership through the piece of the containing cell.

    For the R8 piece with W within the zero band the closed form is
    ill-posed; with ``oracle_fallback`` the numeric witness oracle decides
    and the report is flagged degenerate.
    """
    validate_point(p, tol)
    region = classify(p, tol)

    if region is Region.NOT_COVERED:
        return _decide_uncovered(p, tol)

    w_val: float | None = None
    try:
        if region is Region.R8:
            slacks, w_val = _part5_slacks(p, tol)
        else:
            slacks = piece_slacks(p, region, tol)
    except NumericallyDegenerate:
        if not oracle_fallback:
            raise
        from .oracle import oracle_member  # local import: oracle depends only on core

        is_member, wit = oracle_member(p, tol)
        gap = slack_minus(p.X11, wit.objective)
        slacks = _part1_slacks(p, tol)
        slacks["V.W-ineq"] = gap
        violated = () if is_member else ("V.W-ineq",)
        return MembershipReport(is_member, region, violated, slacks, None, True)

    violated = tuple(k for k, v in slacks.items() if v < -tol.mem_tol)
    if violated and p.X12 > tol.eq_tol and not on_indicator_edge(p, tol):
        # The hull is the union of the cell pieces; a point inside the
        # tolerance band of a cell boundary may belong to a neighboring
        # piece even though its own cell's system rejects it.  The face
        # and edge systems are exact and excluded from this rescue.
        for other in Region:
            if other in (region, Region.NOT_COVERED):
                continue
            if not region_closure_contains(p, other, tol):
                continue
            try:
                other_slacks = piece_slacks(p, other, tol)
            except NumericallyDegenerate:
                continue
            if all(v >= -tol.mem_tol for v in other_slacks.values()):
                return MembershipReport(True, region, (), other_slacks, w_val)
    return MembershipReport(not violated, region, violated, slacks, w_val)


def _decide_uncovered(p: HullPoint, tol: Tolerances) -> MembershipReport:
    """Decision for points no cell claims.

    These are tolerance-band corners (only reachable with X12 > 0 and both
    indicators positive); every such point lies in the closure of at least
    one cell, whose piece decides.
    """
    candidates = [
        r
        for r in Region
        if r is not Region.NOT_COVERED and region_closure_contains(p, r, tol)
    ]
    first: dict[str, float] | None = None
    for r in candidates:
        try:
            slacks = piece_slacks(p, r, tol)
        except NumericallyDegenerate:
            continue
        if first is None:
            first = slacks
        if all(v >= -tol.mem_tol for v in slacks.values()):
            return MembershipReport(True, Region.NOT_COVERED, (), slacks)
    if first is None:
        first = _part1_slacks(p, tol)
    violated = tuple(k for k, v in first.items() if v < -tol.mem_tol)
    if not violated:
        raise NumericallyDegenerate(
            "uncovered point rejected by every piece yet no inequality names it"
        )
    return MembershipReport(False, Region.NOT_COVERED, violated, first)


def persp_relaxation_member(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Perspective relaxation: X11 z1 >= x1^2, X22 z2 >= x2^2 plus the 2x2
    Schur block of X - x x^T restricted to these coordinates."""
    validate_point(p, tol)
    m = tol.mem_tol
    a = p.X11 - p.x1 * p.x1
    b = p.X22 - p.x2 * p.x2
    return (
        p.X11 * p.z1 - p.x1 * p.x1 >= -m
        and p.X22 * p.z2 - p.x2 * p.x2 >= -m
        and a >= -m
        and b >= -m
        and _product_slack(a, b, p.X12 - p.x1 * p.x2, m) >= -m
    )


def rankone_member(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> bool:
    """PSD test of the 3x3 moment matrix with top-left entry z1 + z2."""
    validate_point(p, tol)
    return psd3_by_minors(
        (p.z1 + p.z2, p.x1, p.x2, p.X11, p.X12, p.X22), tol
    )
