"""Closed-form membership in the convex hull of the lifted indicator set.

The hull is the union of the closures of eight pieces, one per partition
cell.  Membership of a point is decided by the inequality system of the
cell that contains it; each inequality carries a stable name so violated
sets can be asserted in tests and reported by the CLI.  Every piece bounds
X11 from below, X11 >= F(x, X12, X22, z); its product slack is X11 - F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .columns import elementwise, np
from .core import (
    DEFAULT_TOL,
    HullColumns,
    HullPoint,
    Tolerances,
    decide_rows,
    persp_sq,
)
from .errors import NumericallyDegenerate
from .families import shift_z, w_shift, w_sqrt_arg, x11_terms
from .regions import (
    CELLS,
    CODE_OF,
    NOT_COVERED_CODE,
    Region,
    _cell_systems,
    cell_codes,
    cell_masks,
    classify,
    on_indicator_edge,
    regions_of,
)

@dataclass
class MembershipReport:
    """Decision record for one point: member iff no inequality is violated;
    the slack of a product system is its X11 gap (:func:`_x11_gap`)."""

    member: bool
    region: Region
    violated: tuple[str, ...]
    slacks: dict[str, float] = field(default_factory=dict)
    W: float | None = None
    degenerate: bool = False


def _x11_gap(a: float, slope: float, cc: float, tol: Tolerances) -> float:
    """X11 - F of the product system slope (X11 - base) >= cc, given
    a = X11 - base: F = base + cc/slope wherever the slope is positive (the
    oracle's closure rule); elsewhere the system holds only where cc
    vanishes, so the gap is a there and -inf otherwise."""
    return a - cc / slope if slope > 0.0 else (a if cc <= tol.mem_tol * tol.eq_tol else -math.inf)


def _part1_slacks(p: HullPoint, tol: Tolerances) -> dict[str, float]:
    return {
        "I.persp1": p.X11 - persp_sq(p.x1, p.z1, tol),
        "I.persp2": p.X22 - persp_sq(p.x2, p.z2, tol),
    }


def _closed_terms(p: HullPoint, z: float, tol: Tolerances) -> tuple[float, float, float]:
    """The terms of :func:`~pairhull.families.x11_terms` of family II or III
    with z in the zero band: closed perspectives replace the fractions over
    z, and x1 x2 / z has a finite closure only when x1 x2 vanishes."""
    return (
        persp_sq(p.x1, z, tol),
        p.X22 - persp_sq(p.x2, z, tol),
        p.X12 * p.X12 if p.x1 * p.x2 <= tol.eq_tol else math.inf,
    )


def _shifted_slacks(p: HullPoint, family: str, tol: Tolerances) -> dict[str, float]:
    """Parts II and III share one shape: X22 >= x2^2/z2 plus the X11 gap
    of the family's shifted product q >= 0."""
    z = shift_z(family, p)
    base, slope, cc = x11_terms(family, p) if z > tol.eq_tol else _closed_terms(p, z, tol)
    return {
        f"{family}.persp2": p.X22 - persp_sq(p.x2, p.z2, tol),
        f"{family}.product": _x11_gap(p.X11 - base, slope, cc, tol),
    }


def _part4_slacks(p: HullPoint, tol: Tolerances) -> dict[str, float]:
    a = p.X11 - p.x1 * p.x1
    c = p.X12 - p.x1 * p.x2
    return {
        "IV.diag1": a,
        "IV.persp2": p.X22 - persp_sq(p.x2, p.z2, tol),
        "IV.shor": _x11_gap(a, p.X22 - p.x2 * p.x2, c * c, tol),
    }


def _w_degenerate(p: HullPoint, tol: Tolerances) -> bool:
    """Whether the W shift of part V is unusable at p: W is defined for
    x2 > 0 and z1 + z2 > 1, its square-root argument may dip below zero
    only within the membership band, and W itself must clear the zero band."""
    s, _, arg = w_sqrt_arg(p)
    return (
        p.x2 <= tol.eq_tol
        or s <= tol.eq_tol
        or arg < -tol.mem_tol
        or w_shift(p) <= tol.eq_tol
    )


def _part5_piece(p: HullPoint, tol: Tolerances) -> dict[str, float]:
    """Part V: the two perspective bounds and the X11 gap of q_V >= 0, at a
    point where :func:`_w_degenerate` is false."""
    base, slope, cc = x11_terms("V", p)
    return {
        "V.persp1": p.X11 - persp_sq(p.x1, p.z1, tol),
        "V.persp2": p.X22 - persp_sq(p.x2, p.z2, tol),
        "V.W-ineq": _x11_gap(p.X11 - base, slope, cc, tol),
    }


def _edge_slacks(p: HullPoint, tol: Tolerances) -> dict[str, float]:
    """Closure system on the z1 = 0 / z2 = 0 edges when X12 > 0.

    The hull closure there collapses to (X11 - x1^2/z1)(X22 - x2^2/z2)
    >= X12^2 together with the two perspective bounds; this is the limit of
    the part II/III products as the vanishing indicator goes to zero.
    """
    out = _part1_slacks(p, tol)
    out["edge.product"] = _x11_gap(out["I.persp1"], out["I.persp2"], p.X12 * p.X12, tol)
    return out


def _on_edge_face(p: HullPoint, tol: Tolerances) -> bool:
    """Whether the R1 piece at p is the indicator-edge system."""
    return p.X12 > tol.eq_tol and on_indicator_edge(p, tol)


def _rescuable(p: HullPoint, tol: Tolerances) -> bool:
    """Whether a neighbouring piece may rescue p: the face and edge systems
    are exact and excluded."""
    return p.X12 > tol.eq_tol and not on_indicator_edge(p, tol)


#: The hull piece of each cell in cell order, as (slacks function, arguments,
#: face, face function): part I on R1, R2 and R6, family II on R3 and R4,
#: family III on R5, part IV on R7, part V on R8.  Where the face holds, the
#: face function replaces the piece; None marks R8 where W degenerates.
_PIECES = {
    Region.R1: (_part1_slacks, (), _on_edge_face, _edge_slacks),
    Region.R2: (_part1_slacks, (), None, None),
    Region.R3: (_shifted_slacks, ("II",), None, None),
    Region.R4: (_shifted_slacks, ("II",), None, None),
    Region.R5: (_shifted_slacks, ("III",), None, None),
    Region.R6: (_part1_slacks, (), None, None),
    Region.R7: (_part4_slacks, (), None, None),
    Region.R8: (_part5_piece, (), _w_degenerate, None),
}


def piece_slacks(
    p: HullPoint, region: Region, tol: Tolerances = DEFAULT_TOL
) -> dict[str, float]:
    """Named slacks of the hull piece attached to ``region`` evaluated at p.

    Raises :class:`NumericallyDegenerate` for the R8 piece when W is
    degenerate, and :class:`KeyError` for NotCovered, which has no piece.
    """
    fn, args, face, face_fn = _PIECES[region]
    if face is not None and face(p, tol):
        if face_fn is None:
            raise NumericallyDegenerate(
                f"W undefined or within the zero band at {p}: needs x2 > 0, "
                "z1 + z2 > 1 and a square-root argument above -mem_tol"
            )
        return face_fn(p, tol)
    return fn(p, *args, tol)


def member_hull(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> MembershipReport:
    """Decide hull membership.  The hull is the union of the closures of the
    cell pieces, so p is a member when the piece of a cell whose closure
    holds p is satisfied.

    The piece of p's own cell decides first.  If it rejects p with X12 > 0
    off the indicator edges, or p is an uncovered corner, the first other
    closure piece that holds makes p a member; the eight closures come from
    one evaluation of the cell systems, with U2 split once.  Otherwise an
    uncovered corner reports its first usable closure piece (part I if none
    is usable), and raises :class:`NumericallyDegenerate` if that piece names
    no violated inequality.  Where W degenerates in R8 the numeric witness
    oracle decides and the report is flagged degenerate.  Its ``V.W-ineq``
    slack is X11 less the oracle's objective, where the closed form's is X11
    less F; the objective is an upper bound on the least hull-feasible X11,
    which the oracle stops lowering once a certificate decides the point, so
    that slack is not the distance to the boundary, but its sign (beyond
    oracle_tol) still matches the decision.
    """
    region = classify(p, tol)
    slacks = w_val = None
    if region is not Region.NOT_COVERED:
        try:
            slacks = piece_slacks(p, region, tol)
        except NumericallyDegenerate:
            from .oracle import oracle_member  # loaded only where W degenerates

            is_member, wit = oracle_member(p, tol)
            slacks = {**_part1_slacks(p, tol), "V.W-ineq": p.X11 - wit.objective}
            violated = () if is_member else ("V.W-ineq",)
            return MembershipReport(is_member, region, violated, slacks, None, True)
        if region is Region.R8:
            w_val = w_shift(p)
        violated = tuple(k for k, v in slacks.items() if v < -tol.mem_tol)
        if not violated or not _rescuable(p, tol):
            return MembershipReport(not violated, region, violated, slacks, w_val)
    for other, near in zip(_PIECES, _cell_systems(p, tol, True)):
        if other is region or not near:
            continue
        try:
            other_slacks = piece_slacks(p, other, tol)
        except NumericallyDegenerate:
            continue
        if all(v >= -tol.mem_tol for v in other_slacks.values()):
            return MembershipReport(True, region, (), other_slacks, w_val)
        if slacks is None:
            slacks = other_slacks
    slacks = slacks or _part1_slacks(p, tol)
    violated = tuple(k for k, v in slacks.items() if v < -tol.mem_tol)
    if not violated:
        raise NumericallyDegenerate(
            "uncovered point rejected by every piece yet no inequality names it"
        )
    return MembershipReport(False, region, violated, slacks, w_val)


def closed_witness(
    p: HullPoint, region: Region, tol: Tolerances = DEFAULT_TOL
) -> tuple[float, float, float] | None:
    """The closed form's witness (xt41, xt42, lambda4) of the oracle's
    problem at a point p of the cell ``region``, or None where the cell has
    none at p.

    Its objective is the least X11 of the cell's piece, F: x1^2/z1 on R1,
    R2 and R6 (part I), x11_root of family II on R3 and R4, of family III on
    R5, x1^2 + (X12 - x1 x2)^2/(X22 - x2^2) on R7 (part IV) and x11_root of
    family V on R8.  R4 and the z1 <= z2 part of R5 put the whole of x1 and
    x2 at the smaller indicator.  None for NotCovered, for R1 on its
    X12 = 0 face, its indicator edges or with x1 or x2 in the zero band,
    for R8 where W degenerates, and where a formula divides by zero.  The
    oracle checks the triple with its own objective, so nothing here is
    trusted.
    """
    e = tol.eq_tol
    x1, x2, X12, X22, z1, z2 = p.x1, p.x2, p.X12, p.X22, p.z1, p.z2
    s = z1 + z2 - 1.0
    try:
        if region is Region.R1:
            if X12 <= e or x1 <= e or x2 <= e or on_indicator_edge(p, tol):
                return None
            lam = X12 * z1 * z2 / (x1 * x2)
            return lam * x1 / z1, lam * x2 / z2, lam
        if region is Region.R2:
            return x1, X12 * z1 / x1, z1
        if region is Region.R3:
            a2 = (X12 * x2 * z1 + x1 * (X22 * (z2 - z1) - x2 * x2)) / (X12 * z2 - x1 * x2)
            return x1, a2, z1
        if region is Region.R4:
            return x1, x2, z2
        if region is Region.R5:
            if not z2 < z1 - e:
                return x1, x2, z1
            a1 = (x1 * (X22 * z2 - x2 * x2) + X12 * x2 * (z1 - z2)) / (X22 * z1 - x2 * x2)
            return a1, x2, z2
        if region is Region.R6:
            return s * x1 / z1, X12 * z1 / x1, s
        if region is Region.R7:
            a1 = (X12 * x2 * (1.0 - z2) + x1 * (X22 * z2 - x2 * x2)) / (X22 - x2 * x2)
            a2 = (x1 * (x2 * x2 - X22 * (1.0 - z1)) - X12 * x2 * z1) / (x1 * x2 - X12)
            return a1, a2, s
        if region is Region.R8 and not _w_degenerate(p, tol):
            w = w_shift(p)
            return s * X12 * z2 / (x2 * w), x2 * w / z2, s
    except ZeroDivisionError:
        pass
    return None


#: Most slacks of one piece.
_SLOTS = 3


def _held(value) -> np.ndarray:
    """A 0-d object array holding value, to assign a tuple to many rows."""
    out = np.empty((), object)
    out[()] = value
    return out


@dataclass(eq=False)  # numpy columns have no truth value; batches compare by identity
class MembershipBatch:
    """:func:`member_hull` on every row of a batch, as columns.

    Row i reports the slacks named ``names[i]``, whose values are the first
    entries of ``slacks[i]`` (NaN past them); ``violated[i]`` flags the
    violated ones, ``W`` is NaN where the report has no W, and ``errors``
    maps the rows whose decision raised to the error, one of
    :data:`~pairhull.core.ROW_ERRORS`.  :meth:`report` rebuilds one row's report.
    """

    member: np.ndarray
    cell: np.ndarray
    names: np.ndarray
    slacks: np.ndarray
    violated: np.ndarray
    W: np.ndarray
    degenerate: np.ndarray
    errors: dict[int, Exception] = field(default_factory=dict)

    @classmethod
    def empty(cls, n: int) -> "MembershipBatch":
        return cls(
            np.zeros(n, bool),
            np.zeros(n, np.intp),
            np.full(n, _held(()), object),
            np.full((n, _SLOTS), np.nan),
            np.zeros((n, _SLOTS), bool),
            np.full(n, np.nan),
            np.zeros(n, bool),
        )

    def __len__(self) -> int:
        return len(self.member)

    @property
    def region(self) -> np.ndarray:
        """The :class:`Region` of every row."""
        return regions_of(self.cell)

    def report(self, i: int) -> MembershipReport:
        """Row i as the :class:`MembershipReport` of :func:`member_hull`;
        raises the row's error if its decision raised."""
        if i in self.errors:
            raise self.errors[i]
        names = self.names[i]
        w = float(self.W[i])
        return MembershipReport(
            bool(self.member[i]),
            CELLS[self.cell[i]],
            tuple(k for k, bad in zip(names, self.violated[i]) if bad),
            dict(zip(names, self.slacks[i, : len(names)].tolist())),
            None if math.isnan(w) else w,
            bool(self.degenerate[i]),
        )

    def _store(self, i: int, rep: MembershipReport) -> None:
        names = tuple(rep.slacks)
        self.member[i] = rep.member
        self.cell[i] = CODE_OF[rep.region]
        self.names[i] = names
        self.slacks[i] = np.nan
        self.slacks[i, : len(names)] = list(rep.slacks.values())
        self.violated[i] = [k in rep.violated for k in names] + [False] * (_SLOTS - len(names))
        self.W[i] = np.nan if rep.W is None else rep.W
        self.degenerate[i] = rep.degenerate


def _piece_columns(cols: HullColumns, piece: tuple, tol: Tolerances):
    """:func:`piece_slacks` of a piece of :data:`_PIECES` on every row: (usable,
    names, slacks).  The piece's slacks, named ``names``, fill the first
    columns of ``slacks`` (NaN past them).  ``usable`` is false on the rows
    where the piece's face holds (R1 on the indicator edge with X12 > 0, R8
    with W degenerate): :func:`member_hull` decides those rows."""
    fn, args, face, _ = piece
    usable = np.ones(len(cols), bool) if face is None else ~elementwise(face)(cols, tol)
    named = elementwise(fn)(cols, *args, tol)
    slacks = np.full((len(cols), _SLOTS), np.nan)
    for j, values in enumerate(named.values()):
        slacks[:, j] = values
    return usable, tuple(named), slacks


def member_batch(rows, tol: Tolerances = DEFAULT_TOL) -> MembershipBatch:
    """:func:`member_hull` on every row of an ``(n, 7)`` array in
    :data:`~pairhull.core.COORD_NAMES` order, bit for bit.

    The cells, the pieces and the neighbour rescue run on columns.
    Uncovered corners and the rows on a face of their piece (R1 on an
    indicator edge with X12 > 0, R8 with W degenerate) go through
    :func:`member_hull` one by one.  Raises the error of
    :func:`member_hull` for the first row outside the ambient domain; the
    errors of single rows are reported in ``errors``.
    """
    return member_columns(HullColumns.of_rows(rows), tol)


def member_columns(cols: HullColumns, tol: Tolerances = DEFAULT_TOL) -> MembershipBatch:
    """:func:`member_batch` on a column view."""
    return decide_rows(MembershipBatch.empty(len(cols)), cols, _decide_columns, member_hull, tol)


def _decide_columns(cols: HullColumns, tol: Tolerances, out: MembershipBatch) -> np.ndarray:
    """The column path of :func:`member_batch` on validated columns: fill
    ``out`` and return the mask of the rows left to :func:`member_hull`."""
    m = tol.mem_tol
    with np.errstate(all="ignore"):
        cell = out.cell = cell_codes(cols, tol)
        scalar = cell == NOT_COVERED_CODE
        # each distinct piece once: part I serves R2 and R6, family II R3 and R4
        pieces = list(dict.fromkeys(_PIECES.values()))
        piece_of = np.array([pieces.index(piece) for piece in _PIECES.values()] + [-1])[cell]
        for j, piece in enumerate(pieces):
            idx = np.flatnonzero(piece_of == j)
            if not idx.size:
                continue
            sub = cols.take(idx)
            usable, names, slacks = _piece_columns(sub, piece, tol)
            if not usable.all():
                scalar[idx[~usable]] = True
                idx, sub, slacks = idx[usable], sub.take(usable), slacks[usable]
            out.names[idx] = _held(names)
            out.slacks[idx] = slacks
            if piece is _PIECES[Region.R8]:
                out.W[idx] = elementwise(w_shift)(sub)
        out.violated = out.slacks < -m

        todo = np.flatnonzero(
            out.violated.any(axis=1) & ~scalar & elementwise(_rescuable)(cols, tol)
        )
        if todo.size:
            sub = cols.take(todo)
            closures = cell_masks(sub, tol, closed=True)
            for code, other in enumerate(CELLS[:NOT_COVERED_CODE]):
                near = np.flatnonzero((cell[todo] != code) & closures[code])
                if not near.size:
                    continue
                usable, names, slacks = _piece_columns(sub.take(near), _PIECES[other], tol)
                fits = usable & (slacks[:, : len(names)] >= -m).all(axis=1)
                if not fits.any():
                    continue
                saved = todo[near[fits]]
                out.names[saved] = _held(names)
                out.slacks[saved] = slacks[fits]
                out.violated[saved] = False
                keep = np.ones(len(todo), bool)
                keep[near[fits]] = False
                todo, sub, closures = todo[keep], sub.take(keep), closures[:, keep]
        out.member = ~out.violated.any(axis=1)
    return scalar

