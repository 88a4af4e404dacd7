"""Domain types, closed perspective fractions, and the shared tolerance policy.

All predicates use a deterministic tolerance band: a strict inequality
``a > b`` is evaluated as ``a > b + eq_tol`` and a non-strict one as
``a >= b - eq_tol``, so floating-point boundary points land on a fixed side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .columns import Dual, elementwise, np  # the oracle reads Dual from here
from .errors import NegativeDenominator, NotInAmbientBox, PairhullError

#: Canonical coordinate order used by arrays, cut coefficients and JSON records.
COORD_NAMES = ("x1", "x2", "X11", "X12", "X22", "z1", "z2")


@dataclass(frozen=True)
class Tolerances:
    """Slack bands shared by every predicate in the package.

    ``eq_tol`` bounds equality/strictness bands in region tests, ``mem_tol``
    bounds membership slacks, ``oracle_tol`` bounds the numeric oracle's
    objective gap.  They must be finite, positive and nested, except that
    ``oracle_tol`` may be 0, which compares the oracle's objective with X11
    itself.
    """

    eq_tol: float = 1e-9
    mem_tol: float = 1e-8
    oracle_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not (
            0.0 < self.eq_tol <= self.mem_tol < math.inf
            and (self.oracle_tol == 0.0 or self.mem_tol <= self.oracle_tol < math.inf)
        ):
            raise ValueError(
                "tolerances must be finite and satisfy 0 < eq_tol <= mem_tol <= oracle_tol"
                " or oracle_tol = 0"
            )


DEFAULT_TOL = Tolerances()


def gt(a: float, b: float, eq_tol: float) -> bool:
    """Banded strict comparison: true iff a exceeds b beyond the band."""
    return a > b + eq_tol


def ge(a: float, b: float, eq_tol: float) -> bool:
    """Banded non-strict comparison: true iff a is not below b beyond the band."""
    return a >= b - eq_tol


@dataclass(frozen=True)
class HullPoint:
    """A point (x1, x2, X11, X12, X22, z1, z2) of the lifted indicator space.

    ``x`` are the decision values, ``X`` the lifted products and ``z`` the
    relaxed indicators.  The ambient domain is x >= 0, X11, X22, X12 >= 0 and
    z in [0, 1]^2; checked by :func:`validate_point`.
    """

    x1: float
    x2: float
    X11: float
    X12: float
    X22: float
    z1: float
    z2: float

    def coords(self) -> tuple[float, ...]:
        """Coordinates in the canonical :data:`COORD_NAMES` order."""
        return (self.x1, self.x2, self.X11, self.X12, self.X22, self.z1, self.z2)

    @staticmethod
    def from_coords(c) -> "HullPoint":
        x1, x2, X11, X12, X22, z1, z2 = map(float, c)
        return HullPoint(x1, x2, X11, X12, X22, z1, z2)


class HullColumns:
    """Column view of an ``(n, 7)`` array of points in :data:`COORD_NAMES`
    order: ``cols.x1`` is the array of the x1 values, and so on, so the
    formulas written for one :class:`HullPoint` evaluate every row at once.
    """

    __slots__ = ("table", "_points") + COORD_NAMES

    def __init__(self, table: np.ndarray) -> None:
        self.table = table  # (7, n), one row per coordinate
        self._points = None
        for name, col in zip(COORD_NAMES, table):
            setattr(self, name, col)

    @staticmethod
    def of_rows(rows) -> "HullColumns":
        """The view of an ``(n, 7)`` array of points."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(COORD_NAMES):
            raise ValueError(f"expected an (n, 7) array of points, got shape {rows.shape}")
        return HullColumns(np.ascontiguousarray(rows.T))

    def __len__(self) -> int:
        return self.table.shape[1]

    def take(self, idx) -> "HullColumns":
        """The view of the rows ``idx`` (indices or a mask)."""
        return HullColumns(self.table[:, idx])

    def points(self) -> tuple[HullPoint, ...]:
        """The rows as points, built on the first call: the row-by-row side
        of a batch asks for them once per scalar function."""
        if self._points is None:
            self._points = tuple(map(HullPoint, *self.table.tolist()))
        return self._points

    def point(self, i: int) -> HullPoint:
        return HullPoint.from_coords(self.table[:, i])


def _in_ambient_box(p: HullPoint, e: float) -> bool:
    """Whether p is finite with x, X >= 0 and z in [0, 1]^2, within the band e."""
    return (
        p.x1 >= -e
        and p.x1 < math.inf
        and p.x2 >= -e
        and p.x2 < math.inf
        and p.X11 >= -e
        and p.X11 < math.inf
        and p.X12 >= -e
        and p.X12 < math.inf
        and p.X22 >= -e
        and p.X22 < math.inf
        and p.z1 >= -e
        and p.z1 <= 1.0 + e
        and p.z2 >= -e
        and p.z2 <= 1.0 + e
    )


def validate_point(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> None:
    """Raise :class:`NotInAmbientBox` unless p lies in the ambient domain."""
    if not _in_ambient_box(p, tol.eq_tol):
        raise NotInAmbientBox(_box_faults(p, tol.eq_tol))


#: Fewest rows a batch decides on columns.  The column path has a fixed
#: cost of about 0.3 ms (and the first call of a process imports numpy
#: and compiles the column versions), so smaller batches, such as the
#: single lines of an interactive stream, go through the scalar functions
#: row by row.  Only :func:`by_rows` reads it; :func:`row_mask`,
#: :func:`decide_rows` and the CLI, which parses and answers such a chunk
#: on Python floats, ask it.
COLUMN_MIN_ROWS = 64


def by_rows(n: int) -> bool:
    """Whether a batch of n rows goes row by row rather than on columns."""
    return n < COLUMN_MIN_ROWS


def row_mask(pred, cols: HullColumns, *args) -> np.ndarray:
    """Mask of the rows p of ``cols`` where ``pred(p, *args)`` holds: row by
    row below :data:`COLUMN_MIN_ROWS` rows, else ``elementwise(pred)`` on
    the columns."""
    if by_rows(len(cols)):
        return np.array([pred(p, *args) for p in cols.points()], bool)
    return elementwise(pred)(cols, *args)


#: The errors of one row's decision that a batch reports for that row
#: instead of raising: the package's own, and a float or value error of the
#: row's arithmetic.
ROW_ERRORS = (PairhullError, ArithmeticError, ValueError)


def decide_rows(out, cols: HullColumns, columns, decide, tol: Tolerances):
    """Fill the batch ``out`` with the decision of every row of ``cols``.

    The rows are validated as by :func:`validate_columns`.  Below
    :data:`COLUMN_MIN_ROWS` rows every row goes to the scalar
    ``decide(p, tol)``; otherwise ``columns(cols, tol, out)`` fills ``out``
    on columns and returns the mask of the rows it leaves to ``decide``.
    ``out._store(i, result)`` keeps row i's result, and a row whose
    decision raises one of :data:`ROW_ERRORS` has its error in
    ``out.errors``, so the rows before it keep their answers.
    """
    validate_columns(cols, tol)
    if by_rows(len(cols)):
        rows = enumerate(cols.points())
    else:
        rows = ((int(i), cols.point(i)) for i in np.flatnonzero(columns(cols, tol, out)))
    for i, p in rows:
        try:
            out._store(i, decide(p, tol))
        except ROW_ERRORS as exc:
            out.errors[i] = exc
    return out


def in_ambient_box(cols: HullColumns, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Mask of the rows :func:`validate_point` accepts."""
    return row_mask(_in_ambient_box, cols, tol.eq_tol)


def validate_columns(cols: HullColumns, tol: Tolerances = DEFAULT_TOL) -> None:
    """:func:`validate_point` on every row: raise its error for the first
    row outside the ambient domain."""
    inside = in_ambient_box(cols, tol)
    if not inside.all():
        validate_point(cols.point(int(np.argmin(inside))), tol)


def _box_faults(p: HullPoint, e: float) -> str:
    """The message of :class:`NotInAmbientBox`: every fault of p, named."""
    bad = []
    for name, v in zip(COORD_NAMES, p.coords()):
        if not math.isfinite(v):
            bad.append(f"{name}={v!r} not finite")
    if not bad:
        for name, v in (
            ("x1", p.x1), ("x2", p.x2), ("X11", p.X11), ("X22", p.X22), ("X12", p.X12)
        ):
            if v < -e:
                bad.append(f"{name}={v} < 0")
        for name, v in (("z1", p.z1), ("z2", p.z2)):
            if v < -e or v > 1.0 + e:
                bad.append(f"{name}={v} outside [0, 1]")
    return "; ".join(bad)


def persp_sq(u: float, v: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Closure of u^2/v on v >= 0.

    Returns u^2/v for v > 0, zero at u = v = 0 and +inf when v = 0 with u
    nonzero.  Negative v beyond the band is a caller error, raised on
    columns too when any row holds one.  Columns divide on every row, so
    their callers ignore the floating-point errors of the rows v <= 0.
    """
    e = tol.eq_tol
    if v < -e:
        raise NegativeDenominator(f"persp_sq denominator {v} < 0")
    return u * u / v if v > e else (0.0 if abs(u) <= e else math.inf)


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(p, e), p = fl(a b) and p + e = a b exactly without over- or underflow:
    Dekker's product on Veltkamp's halves, as numpy has no fma."""
    p = a * b
    t, s = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1 splits off 26 bits
    a1, b1 = t - (t - a), s - (s - b)
    a2, b2 = a - a1, b - b1
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def diff_of_products(x: float, y: float, u: float, w: float) -> float:
    """x y - u w with an exact sign, on floats and columns alike.  With
    x y = p + e and u w = q + f exactly, and e - f = t + (Knuth's TwoSum
    error), (p - q) + t is exact where it nearly cancels (Sterbenz), and
    elsewhere adding the error cannot flip the sign."""
    p, e = _two_product(x, y)
    q, f = _two_product(u, w)
    t = e - f
    v = t - e
    return ((p - q) + t) + ((e - (t - v)) - (f + v))


def copositive(a: float, b: float, c: float) -> bool:
    """Whether a t1^2 + b t1 t2 + c t2^2 >= 0 for all t >= 0, decided exactly
    where no product underflows."""
    h = 0.5 * b
    return a >= 0.0 and c >= 0.0 and (
        b >= 0.0 or (min(a, c) > 0.0 and diff_of_products(a, c, h, h) >= 0.0)
    )


def cut_value(coeffs, constant: float, p: HullPoint) -> float:
    """coeffs . p + constant, summed left to right in :data:`COORD_NAMES`
    order and the constant last, so a cut's value is the same on every CPU,
    one point or a column of them."""
    c1, c2, c11, c12, c22, cz1, cz2 = coeffs
    return (
        c1 * p.x1 + c2 * p.x2 + c11 * p.X11 + c12 * p.X12 + c22 * p.X22
        + cz1 * p.z1 + cz2 * p.z2 + constant
    )


def ctilde_slacks(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> dict[str, float]:
    """Slacks of the strengthened relaxation used as the separation input set.

    Inequalities: X11 >= x1^2/z1, X22 >= x2^2/z2 (closed fractions), the
    2x2 Schur product (X11-x1^2)(X22-x2^2) >= (X12-x1*x2)^2, and X12 >= 0.
    Box bounds are assumed validated separately.
    """
    s = {
        "persp1": p.X11 - persp_sq(p.x1, p.z1, tol),
        "persp2": p.X22 - persp_sq(p.x2, p.z2, tol),
        "shor": (p.X11 - p.x1 * p.x1) * (p.X22 - p.x2 * p.x2)
        - (p.X12 - p.x1 * p.x2) * (p.X12 - p.x1 * p.x2),
        "x12": p.X12,
    }
    return s


def ctilde_holds(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether every slack of :func:`ctilde_slacks` clears -mem_tol (false
    where a slack is NaN); the box is not checked."""
    m = -tol.mem_tol
    s = ctilde_slacks(p, tol)
    return s["persp1"] >= m and s["persp2"] >= m and s["shor"] >= m and s["x12"] >= m


def in_relaxation_ctilde(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Membership in the strengthened relaxation (within mem_tol)."""
    validate_point(p, tol)
    return ctilde_holds(p, tol)


def separable_holds(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether X11 z1 >= x1^2, X22 z2 >= x2^2 and X12 >= 0 hold within
    mem_tol; the box is not checked."""
    m = tol.mem_tol
    return (
        p.X11 * p.z1 - p.x1 * p.x1 >= -m
        and p.X22 * p.z2 - p.x2 * p.x2 >= -m
        and p.X12 >= -m
    )

