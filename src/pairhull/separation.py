"""Separation over the hull: touching-point construction and Taylor cuts.

For a relaxation point outside the hull, the violated piece inequality is
one of three families: the shifted product with denominator z2 (cells R3,
R4), the shifted product with denominator z1 (cell R5), or the weighted
form with the W shift (cell R8).  The boundary function q of the family is
affine in X11, so the touching point solves q = 0 in closed form and the
first-order Taylor expansion of q there is a violated supporting cut.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_TOL,
    HullPoint,
    Tolerances,
    in_relaxation_ctilde,
    validate_point,
)
from .errors import (
    DegenerateGradient,
    InputOutsideCtilde,
    NotOnBoundary,
    NumericallyDegenerate,
    SeparationInvariantError,
    StrictDomainViolated,
)
from .families import (
    FAMILY_BY_CELL,
    q_gradient,
    q_value,
    w_shift,
    x11_root,
    x11_slope,
)
from .hull import MembershipReport, member_hull
from .regions import Region, region_closure_contains


@dataclass(frozen=True)
class Cut:
    """Affine inequality coeffs . p + constant >= 0 supporting the hull.

    ``coeffs`` follows the canonical coordinate order and is zero at the
    touching point by construction.
    """

    coeffs: np.ndarray
    constant: float
    touch: HullPoint

    def __post_init__(self) -> None:
        if float(np.max(np.abs(self.coeffs))) <= 0.0:
            raise DegenerateGradient("cut coefficients are all zero")

    def evaluate(self, p: HullPoint) -> float:
        return float(np.dot(self.coeffs, p.coords()) + self.constant)

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (n, 7) coordinate array."""
        return rows @ self.coeffs + self.constant

    def normalized(self) -> "Cut":
        """Rescale to unit max-norm coefficients (same hyperplane)."""
        m = float(np.max(np.abs(self.coeffs)))
        return Cut(self.coeffs / m, self.constant / m, self.touch)


@dataclass(frozen=True)
class SeparationResult:
    inside: bool
    cut: Cut | None
    region: Region


def taylor_cut(region: Region, touch: HullPoint, tol: Tolerances = DEFAULT_TOL) -> Cut:
    """First-order Taylor cut of the region's boundary function at a
    touching point (q(touch) must vanish within the band)."""
    family = FAMILY_BY_CELL.get(region.value)
    if family is None:
        raise ValueError(f"region {region.value} carries no separating form")
    return _family_cut(family, touch, tol)


def _family_cut(family: str, touch: HullPoint, tol: Tolerances) -> Cut:
    q0 = q_value(family, touch)
    scale = 1.0 + abs(touch.X11) * (1.0 + abs(touch.X22)) + touch.X12 * touch.X12
    if abs(q0) > tol.mem_tol * scale:
        raise ValueError(f"q(touch) = {q0} is not zero within tolerance")
    grad = q_gradient(family, touch)
    if float(np.max(np.abs(grad))) <= 1e-12:
        raise DegenerateGradient("boundary gradient vanished at the touch point")
    constant = -float(np.dot(grad, touch.coords()))
    return Cut(grad, constant, touch)


def _bump_X22(
    p: HullPoint, region: Region, still_valid, tol: Tolerances
) -> HullPoint:
    """Raise X22 by the smallest power-of-two fraction of the base step that
    keeps the point in the closure of the cell and the caller's side
    conditions intact."""
    eps = max(1e-6, 1e-6 * abs(p.X22))
    for _ in range(41):
        cand = replace(p, X22=p.X22 + eps)
        if region_closure_contains(cand, region, tol) and still_valid(cand):
            return cand
        eps *= 0.5
    raise DegenerateGradient("no X22 perturbation preserves the cell constraints")


def _touch_shifted(p: HullPoint, region: Region, family: str, tol: Tolerances) -> HullPoint:
    """Touching point for families II/III: bump X22 off the perspective
    boundary if needed, then solve the affine-in-X11 equation q = 0."""

    def violated(c: HullPoint) -> bool:
        return q_value(family, c) < -tol.eq_tol

    base = p
    if x11_slope(family, p) <= tol.eq_tol * (1.0 + abs(p.X22)):
        base = _bump_X22(p, region, violated, tol)
    if x11_slope(family, base) <= 0.0:
        raise DegenerateGradient("X11 coefficient of the boundary is not positive")
    return replace(base, X11=x11_root(family, base))


def _touch_weighted(p: HullPoint, tol: Tolerances) -> HullPoint:
    """Touching point for family V (cell R8)."""
    e = tol.eq_tol
    if p.z2 >= 1.0 - 1e-9 or p.x2 <= e:
        raise NumericallyDegenerate(
            "family V needs z2 < 1 and x2 > 0; no closed-form cut here"
        )

    def still_ok(c: HullPoint) -> bool:
        return w_shift(c) > e and q_value("V", c) < -e

    base = p
    if p.X22 * p.z2 - p.x2 * p.x2 <= e * (1.0 + abs(p.X22)):
        base = _bump_X22(p, Region.R8, still_ok, tol)
    w = w_shift(base)
    if w <= e:
        raise NumericallyDegenerate(f"W = {w} is not positive")
    if x11_slope("V", base) <= e:
        raise NumericallyDegenerate("degenerate X11 coefficient in family V")
    return replace(base, X11=x11_root("V", base))


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
    return _touch_shifted(base, Region.R1, family, tol), family


def separate(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> SeparationResult:
    """Decide membership for a relaxation point; emit a violated supporting
    cut (unit max-norm) when the point is outside the hull."""
    validate_point(p, tol)
    if not in_relaxation_ctilde(p, tol):
        raise InputOutsideCtilde("separation input must satisfy the relaxation")
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
        expected = {"II.product", "III.product", "V.W-ineq"}
        if set(report.violated) and not set(report.violated) <= expected | {
            "edge.product"
        }:
            raise SeparationInvariantError(
                f"unexpected violations {report.violated} in cell {region.value}"
            )
        if family == "V":
            touch = _touch_weighted(p, tol)
        else:
            touch = _touch_shifted(p, region, family, tol)
        cut = _family_cut(family, touch, tol).normalized()
    elif region is Region.R1 and "edge.product" in report.violated:
        touch, family = _touch_edge(p, tol)
        cut = _family_cut(family, touch, tol).normalized()
    else:
        raise SeparationInvariantError(
            f"cell {region.value} cannot carry a violated system inside the "
            f"relaxation; got {report.violated}"
        )

    if cut.evaluate(p) >= 0.0:
        raise SeparationInvariantError("constructed cut fails to separate the query")
    return SeparationResult(False, cut, region)


def psd_support_cut(
    p6: tuple[float, float, float, float, float, float],
    tol: Tolerances = DEFAULT_TOL,
) -> Cut:
    """Support cut of the 3x3 PSD moment block at a singular boundary point.

    ``p6`` is (xi, xj, Xii, Xij, Xjj, zi).  The matrix must be PSD with a
    zero eigenvalue within the band and the strict side conditions
    Xij zi > xi xj, Xjj xi > Xij xj, xi, xj > 0, 0 < zi < 1 must hold.  The
    cut is v^T M(.) v >= 0 for a null vector v, affine in the six
    coordinates and supporting the hull.
    """
    xi, xj, Xii, Xij, Xjj, zi = (float(v) for v in p6)
    e = tol.eq_tol
    if not (
        Xij * zi > xi * xj + e
        and Xjj * xi > Xij * xj + e
        and xi > e
        and xj > e
        and e < zi < 1.0 - e
    ):
        raise StrictDomainViolated(
            "strict side conditions for the PSD support cut do not hold"
        )
    m = np.array([[zi, xi, xj], [xi, Xii, Xij], [xj, Xij, Xjj]])
    evals, evecs = np.linalg.eigh(m)
    scale = 1.0 + float(np.abs(m).max())
    if evals[0] < -e * scale:
        raise NotOnBoundary(f"matrix has a negative eigenvalue {evals[0]}")
    if evals[0] > e * scale:
        raise NotOnBoundary(f"matrix is nonsingular: smallest eigenvalue {evals[0]}")
    v0, v1, v2 = (float(c) for c in evecs[:, 0])
    coeffs = np.array(
        [
            2.0 * v0 * v1,  # x1
            2.0 * v0 * v2,  # x2
            v1 * v1,  # X11
            2.0 * v1 * v2,  # X12
            v2 * v2,  # X22
            v0 * v0,  # z1
            0.0,  # z2
        ]
    )
    touch = HullPoint(xi, xj, Xii, Xij, Xjj, zi, 1.0)
    return Cut(coeffs, 0.0, touch)


__all__ = [
    "Cut",
    "SeparationResult",
    "q_value",
    "q_gradient",
    "taylor_cut",
    "separate",
    "psd_support_cut",
]
