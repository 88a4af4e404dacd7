"""Partition of the search space into the eight cells R1..R8.

Each cell is an inequality system over (x, X, z); the cells are pairwise
disjoint and jointly cover the separable relaxation, so every relevant
point classifies to exactly one tag.  Points on a shared boundary are
resolved to the lowest-index cell by the tolerance band.  R6 and R7 bound
X12 by the W shift of family V, x2 W = x2 s - r with r = sqrt(d (1 - z1) s)
= q w, q = sqrt(d s) and w = sqrt(1 - z1), s and d from
:func:`~pairhull.families.w_factors`, in sides of degree 3 under
(x, X) -> (t x, t^2 X) where the paper's have degree 4 and 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .columns import elementwise, np
from .core import (
    DEFAULT_TOL,
    HullColumns,
    HullPoint,
    Tolerances,
    by_rows,
    ge,
    gt,
    row_mask,
    separable_holds,
    validate_columns,
    validate_point,
)
from .families import w_factors, w_sqrt_arg


class Region(Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"
    R6 = "R6"
    R7 = "R7"
    R8 = "R8"
    NOT_COVERED = "NotCovered"


def on_indicator_edge(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when either indicator sits at zero (within the band)."""
    e = tol.eq_tol
    return p.z1 <= e or p.z2 <= e


def _in_r1(p: HullPoint, tol: Tolerances, closed: bool = False) -> bool:
    # The cell is its own closure: past the first two alternatives X12 and
    # both indicators exceed the band, so R1 has no strict inequality to
    # relax.  Zero indicators fall to R1: the remaining cells all need
    # z1, z2 > 0, and the face systems of R1 decide membership there.
    e = tol.eq_tol
    xx = p.x1 * p.x2
    return (
        p.X12 <= e
        or on_indicator_edge(p, tol)
        or (
            ge(p.X12 * p.z1 * p.z2, xx * (p.z1 + p.z2 - 1.0), e)
            and ge(xx, p.X12 * max(p.z1, p.z2), e)
        )
    )


def _r3_sides(p: HullPoint):
    """The two sides of the R2/R3 boundary, x1^2 (z2 - z1)(X22 z2 - x2^2)
    and z1 (X12 z2 - x1 x2)^2: R2 holds the first at least the second, R3
    the second beyond the first."""
    d = p.X12 * p.z2 - p.x1 * p.x2
    return p.x1 * p.x1 * (p.z2 - p.z1) * (p.X22 * p.z2 - p.x2 * p.x2), p.z1 * (d * d)


def _in_r2(p: HullPoint, tol: Tolerances, closed: bool = False) -> bool:
    e = tol.eq_tol
    strict = ge if closed else gt
    xx = p.x1 * p.x2
    return (
        ge(p.z2, p.z1, e)
        and strict(p.X12 * p.z2, xx, e)
        and ge(xx, p.X12 * p.z1, e)
        and (closed or (gt(p.X12, 0.0, e) and gt(p.z1, 0.0, e)))
        and ge(*_r3_sides(p), e)
    )


def _in_r3(p: HullPoint, tol: Tolerances, closed: bool = False) -> bool:
    e = tol.eq_tol
    strict = ge if closed else gt
    return (
        strict(p.z2, p.z1, e)
        and strict(p.X12 * p.x2, p.X22 * p.x1, e)
        and strict(*reversed(_r3_sides(p)), e)
        and (closed or (ge(p.x1, 0.0, e) and gt(p.X12, 0.0, e) and gt(p.z1, 0.0, e)))
    )


def _in_r4(p: HullPoint, tol: Tolerances, closed: bool = False) -> bool:
    e = tol.eq_tol
    strict = ge if closed else gt
    return (
        ge(p.z1, p.z2, e)
        and strict(p.X12 * p.x2, p.X22 * p.x1, e)
        and (closed or (ge(p.x1, 0.0, e) and gt(p.X12, 0.0, e) and gt(p.z2, 0.0, e)))
    )


def _in_r5(p: HullPoint, tol: Tolerances, closed: bool = False) -> bool:
    e = tol.eq_tol
    strict = ge if closed else gt
    return (
        strict(p.X12 * p.z1, p.x1 * p.x2, e)
        and ge(p.X22 * p.x1, p.X12 * p.x2, e)
        and (
            closed
            or (
                ge(p.x2, 0.0, e)
                and gt(p.X12, 0.0, e)
                and gt(p.z1, 0.0, e)
                and gt(p.z2, 0.0, e)
            )
        )
    )


def _in_u2(p: HullPoint, tol: Tolerances, closed: bool) -> bool:
    e = tol.eq_tol
    strict = ge if closed else gt
    return strict(p.x1 * p.x2 * (p.z1 + p.z2 - 1.0), p.X12 * p.z1 * p.z2, e) and (
        closed or (gt(p.X12, 0.0, e) and gt(p.z1, 0.0, e) and gt(p.z2, 0.0, e))
    )


def _r6_sides(p: HullPoint):
    """X12 z1 z2 and x1 x2 W, R6 holding the first at least the second: on U2,
    where x1 x2 s > X12 z1 z2, the paper's (x1 r)^2 >= (x1 x2 s - X12 z1 z2)^2."""
    s, _, arg = w_sqrt_arg(p)
    return p.X12 * p.z1 * p.z2, p.x1 * (p.x2 * s - math.sqrt(max(arg, 0.0)))


def _r7_sides(p: HullPoint):
    """x1 (x2 s - q w) q and X12 s (q + x2 (1 - z2) w), R7 holding the first
    beyond the second: X12 below x1 x2 W (s - W) / (s (z1 z2 - W)), the root
    of the paper's quadratic form in (x1, X12), with discriminant / 4 equal to
    (1 - z1) s d (X22 - x2^2)^2, that alone bounds R7 outside R6."""
    s, d = w_factors(p)
    q = math.sqrt(max(d * s, 0.0))
    w = math.sqrt(max(1.0 - p.z1, 0.0))
    return p.x1 * (p.x2 * s - q * w) * q, p.X12 * s * (q + p.x2 * (1.0 - p.z2) * w)


def _u2_cells(p: HullPoint, tol: Tolerances, closed: bool = False):
    """Cells R6, R7 and R8 at p, open or closed: U2 split by the R6 side and the
    R7 side pair, each computed once (on a point, only where U2 holds).  R8
    excludes R6 and R7 through their open sides in the closure too."""
    e = tol.eq_tol
    u2 = _in_u2(p, tol, closed)
    r6 = u2 and ge(*_r6_sides(p), e)
    r7 = u2 and gt(*(r7_sides := _r7_sides(p)), e)
    return r6, (u2 and ge(*r7_sides, e)) if closed else r7, u2 and not r6 and not r7


_PREDICATES = (
    (Region.R1, _in_r1),
    (Region.R2, _in_r2),
    (Region.R3, _in_r3),
    (Region.R4, _in_r4),
    (Region.R5, _in_r5),
    (Region.R6, lambda p, tol, closed=False: _u2_cells(p, tol, closed)[0]),
    (Region.R7, lambda p, tol, closed=False: _u2_cells(p, tol, closed)[1]),
    (Region.R8, lambda p, tol, closed=False: _u2_cells(p, tol, closed)[2]),
)
_PREDICATE_OF = dict(_PREDICATES)
#: The systems of R1..R5, and the cells :func:`_u2_cells` splits U2 into.
_SYSTEMS, _U2_CELLS = _PREDICATES[:5], (Region.R6, Region.R7, Region.R8)


def _cell_systems(p: HullPoint, tol: Tolerances, closed: bool) -> tuple:
    """The systems of R1..R8 at p, open or closed, with U2 split once."""
    return (_in_r1(p, tol, closed), _in_r2(p, tol, closed), _in_r3(p, tol, closed),
            _in_r4(p, tol, closed), _in_r5(p, tol, closed), *_u2_cells(p, tol, closed))


def region_closure_contains(p: HullPoint, region: Region, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Membership in the closure of a cell: the cell's system with every
    banded strict inequality made non-strict and the sign guards on single
    coordinates dropped.  R1 contains its indicator-edge points, so every
    cell lies in its own closure.
    """
    pred = _PREDICATE_OF.get(region)
    return pred is not None and pred(p, tol, True)


def classify(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> Region:
    """Return the unique cell containing p, lowest index first on boundaries."""
    validate_point(p, tol)
    for tag, pred in _SYSTEMS:
        if pred(p, tol):
            return tag
    split = zip(_U2_CELLS, _u2_cells(p, tol))
    return next((tag for tag, held in split if held), Region.NOT_COVERED)


#: Region of each cell code of the batch functions: the index of R1..R8
#: in :data:`_PREDICATES`, then NotCovered.
CELLS = tuple(Region)
NOT_COVERED_CODE = len(_PREDICATES)
#: Cell code of each :class:`Region`.
CODE_OF = {tag: code for code, tag in enumerate(CELLS)}


def regions_of(codes: np.ndarray) -> np.ndarray:
    """The :class:`Region` of every cell code of an array, as an object array."""
    return np.array(CELLS, object)[codes]


def cell_masks(
    cols: HullColumns, tol: Tolerances = DEFAULT_TOL, closed: bool = False
) -> np.ndarray:
    """The (8, n) mask of validated columns whose row k flags where the
    system of cell k holds, or its closure where ``closed``, every system
    evaluated on every row: row by row where
    :func:`~pairhull.core.by_rows` says so, else on the columns."""
    if by_rows(len(cols)):
        rows = [_cell_systems(p, tol, closed) for p in cols.points()]
        return np.array(rows, bool).reshape(-1, len(_PREDICATES)).T
    return np.array(elementwise(_cell_systems)(cols, tol, closed))


def first_cells(masks: np.ndarray) -> np.ndarray:
    """The cell code of every column of :func:`cell_masks`: the first cell
    whose system holds, as in :func:`classify`, else NotCovered."""
    return np.where(masks.any(axis=0), masks.argmax(axis=0), NOT_COVERED_CODE)


def cell_codes(cols: HullColumns, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The cell code of every row of validated columns: the index of the
    first cell whose system holds, as in :func:`classify`."""
    return first_cells(cell_masks(cols, tol))


def classify_batch(rows, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """:func:`classify` on every row of an ``(n, 7)`` array in
    :data:`~pairhull.core.COORD_NAMES` order: an object array of
    :class:`Region`.  Raises the error of :func:`classify` for the first
    row outside the ambient domain."""
    cols = HullColumns.of_rows(rows)
    with np.errstate(all="ignore"):
        validate_columns(cols, tol)
        return regions_of(cell_codes(cols, tol))


@dataclass
class PartitionAuditReport:
    """Outcome of a disjointness/coverage audit over a sample batch:
    ``first_multi`` is the first audited sample that matches several cells,
    with their tags, and ``first_none`` the first that matches none."""

    total: int = 0
    audited: int = 0  # samples inside the separable relaxation
    n_multi: int = 0
    n_none: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    first_multi: tuple[int, list[str]] | None = None
    first_none: int | None = None

    @property
    def ok(self) -> bool:
        return self.n_multi == 0 and self.n_none == 0


def region_partition_audit(rows, tol: Tolerances = DEFAULT_TOL) -> PartitionAuditReport:
    """Count cell matches per row of an ``(n, 7)`` array in
    :data:`~pairhull.core.COORD_NAMES` order and flag partition violations.

    Only rows inside the separable relaxation are audited for coverage and
    disjointness; every row contributes to the per-cell counts, which
    appear in the order of their first row.  The first row outside the
    ambient domain raises the error of :func:`classify`.
    """
    cols = HullColumns.of_rows(rows)
    n = len(cols)
    with np.errstate(all="ignore"):
        validate_columns(cols, tol)
        masks = cell_masks(cols, tol)
        audited = row_mask(separable_holds, cols, tol)
    codes = first_cells(masks)

    n_matches = masks.sum(axis=0)
    multi = np.flatnonzero(audited & (n_matches > 1))
    none = np.flatnonzero(audited & (n_matches == 0))
    report = PartitionAuditReport(
        total=n, audited=int(audited.sum()), n_multi=multi.size, n_none=none.size
    )
    tally = np.bincount(codes, minlength=len(CELLS))
    present = np.flatnonzero(tally).tolist()
    present.sort(key=lambda code: int(np.argmax(codes == code)))
    for code in present:
        report.counts[CELLS[code].value] = int(tally[code])
    if multi.size:
        i = int(multi[0])
        report.first_multi = (i, [CELLS[k].value for k in np.flatnonzero(masks[:, i])])
    if none.size:
        report.first_none = int(none[0])
    return report
