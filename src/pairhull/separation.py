"""Separation over the hull: touch points and Taylor cuts.

For a relaxation point outside the hull, the violated piece inequality is
one of three families: the shifted product with denominator z2 (cells R3,
R4), the shifted product with denominator z1 (cell R5), or the weighted
form with the W shift (cell R8).  The boundary function q of the family is
affine in X11, so the touch point (:func:`_touch`) solves q = 0 for X11 in
closed form, after an X22 bump where X22 sits on its perspective bound, and
the first-order Taylor expansion of q there is a violated supporting cut.
The column path of :func:`separate_batch` reads the same guards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .columns import column_version, elementwise
from .core import (
    DEFAULT_TOL,
    HullColumns,
    HullPoint,
    Tolerances,
    ctilde_holds,
    decide_rows,
    diff_of_products,
    in_relaxation_ctilde,
)
from .errors import (
    DegenerateGradient,
    InputOutsideCtilde,
    NumericallyDegenerate,
    PairhullError,
    SeparationInvariantError,
)
from .families import (
    FAMILY_BY_CELL,
    q_gradient,
    q_value,
    w_root_vanishes,
    w_shift,
    x11_root,
    x11_slope,
)
from .hull import MembershipReport, member_columns, member_hull
from .regions import CELLS, CODE_OF, Region, region_closure_contains


def copositive(a: float, b: float, c: float) -> bool:
    """Whether a t1^2 + b t1 t2 + c t2^2 >= 0 for all t >= 0, decided exactly
    where no product underflows."""
    h = 0.5 * b
    return a >= 0.0 and c >= 0.0 and (
        b >= 0.0 or (min(a, c) > 0.0 and diff_of_products(a, c, h, h) >= 0.0)
    )


def copositive_x12(a: float, b: float, c: float) -> float:
    """The X12 coefficient b of a cut with X11 and X22 coefficients a and c,
    moved toward zero by the fewest ulps that make [[a, b/2], [b/2, c]]
    copositive; b itself where a or c < 0, which no b repairs.  Rounding tips
    about half of the rank-one tangents of the perspective boundary,
    b = -2 sqrt(a c), past that edge, which leaves them unbounded below on S2."""
    if copositive(a, b, c) or not (a >= 0.0 and c >= 0.0):
        return b
    x = _edge_start(a, b, c)
    for _ in range(_EDGE_STEPS):
        x = _edge_step(a, x, c)
    return x


#: Most steps of the walk of :func:`copositive_x12`: at most 4 are needed,
#: 5 where the walk crosses a power of two (at most 3 on 600000 random rows).
_EDGE_STEPS = 5


def _edge_start(a: float, b: float, c: float) -> float:
    """b, or 2 ulps outside the rounded edge -2 sqrt(a c), which is under
    1.5 ulps off the exact one, whichever is nearer zero."""
    x = -2.0 * math.sqrt(a * c)
    return max(b, math.nextafter(math.nextafter(x, -math.inf), -math.inf))


def _edge_step(a: float, x: float, c: float) -> float:
    """x, or one ulp nearer zero where the form is not copositive."""
    return x if copositive(a, x, c) else math.nextafter(x, 0.0)


@column_version(copositive_x12)
def _copositive_x12_columns(a, b, c):
    """copositive_x12 on columns.  The walk toward zero runs on the rows
    the kept test leaves out only, and stops after the first step that
    moves none of them: a copositive row takes no further step."""
    out = np.array(b, float)
    walk = np.flatnonzero(~elementwise(copositive)(a, b, c) & (a >= 0.0) & (c >= 0.0))
    a, c = a[walk], c[walk]
    x = elementwise(_edge_start)(a, b[walk], c)
    for _ in range(_EDGE_STEPS):
        x, last = elementwise(_edge_step)(a, x, c), x
        if (x == last).all():
            break
    out[walk] = x
    return out


@dataclass(frozen=True)
class Cut:
    """Affine inequality coeffs . p + constant >= 0 supporting the hull.

    ``coeffs`` follows the canonical coordinate order and is zero at the
    touching point by construction.  The cuts of :func:`separate` have a
    copositive quadratic part (:func:`copositive_x12`), so they are bounded
    below on the vertex set.
    """

    coeffs: np.ndarray
    constant: float
    touch: HullPoint

    def __post_init__(self) -> None:
        if float(np.max(np.abs(self.coeffs))) <= 0.0:
            raise DegenerateGradient("cut coefficients are all zero")

    def evaluate(self, p: HullPoint) -> float:
        return float(np.dot(self.coeffs, p.coords()) + self.constant)

    def normalized(self) -> "Cut":
        """Divide by the largest |coefficient| (same hyperplane), then set the
        X12 coefficient by :func:`copositive_x12`; where that moves the
        largest one toward zero, the max-norm ends a few ulps below 1."""
        m = float(np.max(np.abs(self.coeffs)))
        coeffs = self.coeffs / m
        coeffs[3] = copositive_x12(*map(float, coeffs[2:5]))
        return Cut(coeffs, self.constant / m, self.touch)


@dataclass(frozen=True)
class SeparationResult:
    inside: bool
    cut: Cut | None
    region: Region


#: Largest gradient max-norm that counts as a vanished gradient.
_FLAT_GRADIENT = 1e-12


def _off_boundary(family: str, touch: HullPoint, tol: Tolerances) -> bool:
    """Whether q misses zero at the touch point by more than the membership
    band, relative to the size of the point."""
    scale = 1.0 + abs(touch.X11) * (1.0 + abs(touch.X22)) + touch.X12 * touch.X12
    return abs(q_value(family, touch)) > tol.mem_tol * scale


def _family_cut(family: str, touch: HullPoint, tol: Tolerances) -> Cut:
    if _off_boundary(family, touch, tol):
        q0 = q_value(family, touch)
        raise ValueError(f"q(touch) = {q0} is not zero within tolerance")
    if family == "V" and w_root_vanishes(touch):
        raise DegenerateGradient(
            "square-root term of the W shift is nondifferentiable here"
        )
    grad = q_gradient(family, touch)
    if float(np.max(np.abs(grad))) <= _FLAT_GRADIENT:
        raise DegenerateGradient("boundary gradient vanished at the touch point")
    constant = -float(np.dot(grad, touch.coords()))
    return Cut(grad, constant, touch)


def _out_of_reach(p: HullPoint, family: str, tol: Tolerances) -> bool:
    """Whether the family has no closed-form touch point at p: family V
    needs z2 < 1 and x2 > 0, II and III always have one."""
    if family == "V":
        return p.z2 >= 1.0 - 1e-9 or p.x2 <= tol.eq_tol
    return False


def _on_bound(p: HullPoint, family: str, tol: Tolerances) -> bool:
    """Whether X22 sits on its perspective bound within the band: the gap
    X22 z2 - x2^2 for family V, the X11 coefficient of q for II and III."""
    if family == "V":
        gap = p.X22 * p.z2 - p.x2 * p.x2
    else:
        gap = x11_slope(family, p)
    return gap <= tol.eq_tol * (1.0 + abs(p.X22))


def _flat(p: HullPoint, family: str, tol: Tolerances) -> bool:
    """Whether the X11 root of q is out of use: W or the X11 coefficient
    is within the zero band (family V), the coefficient is <= 0 (II, III)."""
    if family == "V":
        return w_shift(p) <= tol.eq_tol or x11_slope(family, p) <= tol.eq_tol
    return x11_slope(family, p) <= 0.0


def _bump_X22(p: HullPoint, region: Region, family: str, tol: Tolerances) -> HullPoint:
    """p with X22 raised off its perspective bound: by the base step
    max(1e-6, 1e-6 |X22|), halved up to 40 times until the point stays in
    the closure of the cell, keeps W > eq_tol (family V) and still
    violates the family, q < -eq_tol."""
    e = tol.eq_tol
    eps = max(1e-6, 1e-6 * abs(p.X22))
    for _ in range(41):
        cand = replace(p, X22=p.X22 + eps)
        kept = region_closure_contains(cand, region, tol) and (family != "V" or w_shift(cand) > e)
        if kept and q_value(family, cand) < -e:
            return cand
        eps *= 0.5
    raise DegenerateGradient("no X22 perturbation preserves the cell constraints")


def _touch(p: HullPoint, region: Region, family: str, tol: Tolerances) -> HullPoint:
    """The touch point of family II, III or V for the query p of the cell
    ``region``: p with X22 bumped off its perspective bound if it sits on
    it (:func:`_bump_X22`), and X11 the root of q there.  Raises where a
    guard leaves no closed-form root."""
    if _out_of_reach(p, family, tol):
        raise NumericallyDegenerate("family V needs z2 < 1 and x2 > 0; no closed-form cut here")
    base = _bump_X22(p, region, family, tol) if _on_bound(p, family, tol) else p
    if _flat(base, family, tol):
        if family == "V":
            raise NumericallyDegenerate(
                f"W = {w_shift(base)} or the X11 coefficient of family V is not positive"
            )
        raise DegenerateGradient("X11 coefficient of the boundary is not positive")
    return replace(base, X11=x11_root(family, base))


def _plain_touch(p: HullPoint, family: str, tol: Tolerances) -> bool:
    """Whether :func:`_touch` returns the X11 root at p itself: none of its
    guards fires, so it neither bumps X22 nor raises.  The column path of
    :func:`separate_batch` builds the touch points of these rows only."""
    if family != "V":
        # an X11 coefficient above the band is positive, so not flat
        return not _on_bound(p, family, tol)
    return not (_out_of_reach(p, family, tol) or _on_bound(p, family, tol) or _flat(p, family, tol))


def _touch_edge(p: HullPoint, tol: Tolerances) -> tuple[HullPoint, str]:
    """Touching point on a zero-indicator edge (X12 > 0).

    The vanishing indicator and its decision value are snapped to exact
    zero; the governing boundary is the z2-shifted family on the z1 edge
    and the z1-shifted family on the z2 edge (their limits coincide there).
    """
    e = tol.eq_tol
    z1e = p.z1 <= e
    z2e = p.z2 <= e
    base = replace(
        p,
        x1=0.0 if z1e else p.x1,
        z1=0.0 if z1e else p.z1,
        x2=0.0 if z2e else p.x2,
        z2=0.0 if z2e else p.z2,
    )
    family = "II" if z1e else "III"
    return _touch(base, Region.R1, family, tol), family


_OUTSIDE_CTILDE = "separation input must satisfy the relaxation"
#: The violated systems a family cell may report for a cut.
_CUT_SYSTEMS = frozenset({"II.product", "III.product", "V.W-ineq", "edge.product"})


def separate(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> SeparationResult:
    """Decide membership for a relaxation point; emit a violated supporting
    cut (:meth:`Cut.normalized`: max-norm 1 or a few ulps below, with the X12
    coefficient of :func:`copositive_x12`, so it is valid on the whole vertex
    set) when the point is outside."""
    if not in_relaxation_ctilde(p, tol):
        raise InputOutsideCtilde(_OUTSIDE_CTILDE)
    report: MembershipReport = member_hull(p, tol)
    region = report.region
    if report.member:
        return SeparationResult(True, None, region)
    if report.degenerate:
        raise NumericallyDegenerate(
            "membership was decided by the numeric oracle; no closed-form cut"
        )

    if region is Region.NOT_COVERED:
        # Tolerance-band corner: cut through any surrounding cell whose
        # separating form is violated here.
        region = next(
            (
                Region(tag)
                for tag, family in FAMILY_BY_CELL.items()
                if region_closure_contains(p, Region(tag), tol)
                and q_value(family, p) < -tol.eq_tol
            ),
            Region.NOT_COVERED,
        )

    family = FAMILY_BY_CELL.get(region.value)
    if family is not None:
        if not set(report.violated) <= _CUT_SYSTEMS:
            raise SeparationInvariantError(
                f"unexpected violations {report.violated} in cell {region.value}"
            )
        touch = _touch(p, region, family, tol)
    elif region is Region.R1 and "edge.product" in report.violated:
        touch, family = _touch_edge(p, tol)
    else:
        raise SeparationInvariantError(
            f"cell {region.value} cannot carry a violated system inside the "
            f"relaxation; got {report.violated}"
        )

    with np.errstate(all="ignore"):  # as on the column path of separate_batch
        cut = _family_cut(family, touch, tol).normalized()
        if not cut.evaluate(p) < 0.0:  # a NaN cut separates nothing
            raise SeparationInvariantError("constructed cut fails to separate the query")
    return SeparationResult(False, cut, region)


#: Separating family of each cell code, "" for the cells without one.
_FAMILY_OF_CODE = np.array([FAMILY_BY_CELL.get(r.value, "") for r in CELLS])


@dataclass(eq=False)  # numpy columns have no truth value; batches compare by identity
class SeparationBatch:
    """:func:`separate` on every row of a batch, as columns.

    ``inside`` is the decision and ``cell`` the code of the region in
    :data:`~pairhull.regions.CELLS`.  The rows with a cut hold it in
    ``coeffs`` (n, 7), ``constant`` and ``touch`` (n, 7), in
    :data:`~pairhull.core.COORD_NAMES` order; the other rows hold NaN.
    ``errors`` maps the rows whose separation raised to the error, and
    :meth:`result` rebuilds one row's result.
    """

    inside: np.ndarray
    cell: np.ndarray
    coeffs: np.ndarray
    constant: np.ndarray
    touch: np.ndarray
    errors: dict[int, Exception] = field(default_factory=dict)

    @classmethod
    def empty(cls, n: int) -> "SeparationBatch":
        return cls(
            np.zeros(n, bool),
            np.zeros(n, np.intp),
            np.full((n, 7), np.nan),
            np.full(n, np.nan),
            np.full((n, 7), np.nan),
        )

    def __len__(self) -> int:
        return len(self.inside)

    def cuts(self) -> np.ndarray:
        """Mask of the rows with a cut."""
        mask = ~self.inside
        mask[list(self.errors)] = False
        return mask

    def result(self, i: int) -> SeparationResult:
        """Row i as the :class:`SeparationResult` of :func:`separate`;
        raises the row's error if its separation raised."""
        if i in self.errors:
            raise self.errors[i]
        region = CELLS[self.cell[i]]
        if self.inside[i]:
            return SeparationResult(True, None, region)
        touch = HullPoint.from_coords(self.touch[i])
        return SeparationResult(
            False, Cut(self.coeffs[i].copy(), float(self.constant[i]), touch), region
        )

    def _store(self, i: int, res: SeparationResult) -> None:
        self.inside[i] = res.inside
        self.cell[i] = CODE_OF[res.region]
        if res.cut is not None:
            self.coeffs[i] = res.cut.coeffs
            self.constant[i] = res.cut.constant
            self.touch[i] = res.cut.touch.coords()


def separate_batch(rows, tol: Tolerances = DEFAULT_TOL) -> SeparationBatch:
    """:func:`separate` on every row of an ``(n, 7)`` array in
    :data:`~pairhull.core.COORD_NAMES` order, bit for bit.

    One :func:`~pairhull.hull.member_batch` decides membership; the touch
    points and gradients of the family II, III and V cuts run on columns,
    family by family, and one pass over the rows of all families finishes
    their cuts: normalization, X12 snap and violation check.  The rows the
    columns do not settle go through :func:`separate` one by one, which
    gives their result or error: uncovered corners, rows the oracle
    decided, indicator edges, touch points that need an X22 bump, rows
    where a guard of the touch point or the cut fires.  Raises the error of :func:`separate` for the
    first row outside the ambient domain.
    """
    cols = HullColumns.of_rows(rows)
    return decide_rows(
        SeparationBatch.empty(len(cols)), cols, _separate_columns, separate,
        (PairhullError, ArithmeticError, ValueError), tol,
    )


def _separate_columns(cols: HullColumns, tol: Tolerances, out: SeparationBatch) -> np.ndarray:
    """The column path of :func:`separate_batch` on validated columns: fill
    ``out`` and return the mask of the rows left to :func:`separate`.

    Each family builds the touch points and gradients of its own rows; one
    pass over the rows of all families then normalizes, snaps and checks
    their cuts.  A row is left where :func:`separate` bumps X22 or a guard
    of the touch point, of :func:`_family_cut` or the final violation check
    fires."""
    with np.errstate(all="ignore"):
        relaxed = elementwise(ctilde_holds)(cols, tol)
        for i in np.flatnonzero(~relaxed):
            out.errors[int(i)] = InputOutsideCtilde(_OUTSIDE_CTILDE)
        idx = np.flatnonzero(relaxed)
        sub = cols.take(idx)
        report = member_columns(sub, tol)
        out.inside[idx] = report.member
        out.cell[idx] = report.cell
        # inside the relaxation no perspective bound is violated, so a
        # family cell's non-member violates its product system alone and the
        # invariant check of separate holds
        family = _FAMILY_OF_CODE[report.cell]
        left = ~report.member & (report.degenerate | (family == ""))
        left[list(report.errors)] = True
        j = np.flatnonzero(~report.member & ~left)
        p = sub.take(j)
        table = p.table.copy()
        grad = np.empty_like(table)
        off = np.zeros(j.size, bool)
        for fam in ("II", "III", "V"):
            k = np.flatnonzero(family[j] == fam)
            if not k.size:
                continue
            q = p.take(k)
            off[k] = ~elementwise(_plain_touch)(q, fam, tol)
            table[2, k] = elementwise(x11_root)(fam, q)
            touch = HullColumns(table[:, k])
            off[k] |= elementwise(_off_boundary)(fam, touch, tol)
            if fam == "V":
                off[k] |= elementwise(w_root_vanishes)(touch)
            grad[:, k] = elementwise(q_gradient)(fam, touch)
        grad = np.ascontiguousarray(grad.T)
        norm = np.max(np.abs(grad), axis=1)
        off |= norm <= _FLAT_GRADIENT
        touch_rows = np.ascontiguousarray(table.T)
        constant = -row_dots(grad, touch_rows) / norm
        coeffs = grad / norm[:, None]
        coeffs[:, 3] = elementwise(copositive_x12)(*coeffs[:, 2:5].T)
        off |= ~(row_dots(coeffs, np.ascontiguousarray(p.table.T)) + constant < 0.0)
        left[j[off]] = True
        rows = idx[j[~off]]
        out.coeffs[rows] = coeffs[~off]
        out.constant[rows] = constant[~off]
        out.touch[rows] = touch_rows[~off]
    scalar = np.zeros(len(cols), bool)
    scalar[idx[left]] = True
    return scalar


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b, each
    rounded as :func:`numpy.dot` rounds one pair of vectors (a sum over an
    axis rounds differently)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]
