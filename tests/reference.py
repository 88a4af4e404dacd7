"""Reference formulas the tests compare the package against.

None of these is called by the package: the PSD test of a symmetric 3x3
by minors, singular PSD moment blocks drawn as Gram matrices, the two
relaxations the hull strengthens, the eight cell
systems of one point evaluated independently, the paper's polynomial
sides of cells R6 and R7, the boundary points of one
separating family and the gradient of its boundary derived by hand, the
one-candidate-at-a-time loop that drew the cuts suite's shrunken
non-members (with its candidate builder and relaxation
bound on X11, which the boundary points share), the masked vertex
sampler and the convex combinations built on it, the separable sampler
drawn one coordinate per call, the rational copositivity test and
minimum over the vertex set of a cut, the per-query loop of the cuts
suite with that minimum as its exact certificate, and exact boundary
members of the hull with non-members just below them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from pairhull import (
    DEFAULT_TOL,
    HullPoint,
    Region,
    Tolerances,
    classify,
    in_relaxation_ctilde,
    oracle_objective,
    validate_point,
)
from pairhull.core import ge, gt
from pairhull.errors import PairhullError
from pairhull.families import (
    FAMILY_BY_CELL,
    _div0,
    q_value,
    shift_z,
    w_shift,
    w_sqrt_arg,
    x11_root,
)
from pairhull.hull import closed_witness, member_batch
from pairhull.regions import _PREDICATES, _in_u2, _r6_sides, _r7_sides
from pairhull.separation import separate_batch
from pairhull.verify import (
    GAP_FLOOR,
    LIFT_MAX,
    MAX_DRAWS,
    SHRUNKEN_REGIONS,
    SOUNDNESS_FLOOR,
    VIOLATION_FLOOR,
    XMAX,
    SuiteReport,
    _point_dict,
    shrunken_nonmembers,
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


def gram_boundary_blocks(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """Singular PSD moment blocks [[zi, xi, xj], [xi, Xii, Xij], [xj, Xij, Xjj]]:
    Gram matrices g^T g of 2x3 normal draws, kept where 0.02 < zi < 0.98,
    xi, xj > 0.02, and Xij zi > xi xj and Xjj xi > Xij xj by more than 1e-6."""
    out: list[np.ndarray] = []
    while len(out) < n:
        g = rng.normal(size=(2, 3))
        m = g.T @ g
        zi, xi, xj = m[0, 0], m[0, 1], m[0, 2]
        Xii, Xij, Xjj = m[1, 1], m[1, 2], m[2, 2]
        if not (0.02 < zi < 0.98 and xi > 0.02 and xj > 0.02):
            continue
        if Xij * zi <= xi * xj + 1e-6 or Xjj * xi <= Xij * xj + 1e-6:
            continue
        out.append(np.array([[zi, xi, xj], [xi, Xii, Xij], [xj, Xij, Xjj]]))
    return out


def persp_relaxation_member(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Perspective relaxation: X11 z1 >= x1^2, X22 z2 >= x2^2 plus the 2x2
    Schur block of X - x x^T restricted to these coordinates."""
    validate_point(p, tol)
    m = tol.mem_tol
    a = p.X11 - p.x1 * p.x1
    b = p.X22 - p.x2 * p.x2
    c = p.X12 - p.x1 * p.x2
    return (
        p.X11 * p.z1 - p.x1 * p.x1 >= -m
        and p.X22 * p.z2 - p.x2 * p.x2 >= -m
        and a >= -m
        and b >= -m
        and a * b - c * c >= -m
    )


def rankone_member(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> bool:
    """PSD test of the 3x3 moment matrix with top-left entry z1 + z2."""
    validate_point(p, tol)
    return psd3_by_minors((p.z1 + p.z2, p.x1, p.x2, p.X11, p.X12, p.X22), tol)


def region_matches(p: HullPoint, tol: Tolerances = DEFAULT_TOL) -> list[Region]:
    """Evaluate all eight cell systems independently (no short-circuit)."""
    return [tag for tag, pred in _PREDICATES if pred(p, tol)]


def closed_form_optimum(p: HullPoint) -> float | None:
    """The oracle's objective at the closed form's witness of p's cell, the
    least X11 of the cell's piece, or None where the cell has no witness."""
    triple = closed_witness(p, classify(p))
    return None if triple is None else oracle_objective(p, triple)


def u2_cells_by_system(
    p: HullPoint, tol: Tolerances = DEFAULT_TOL, closed: bool = False
) -> tuple[bool, bool, bool]:
    """Cells R6, R7 and R8 at p, open or closed, each from its own system:
    U2 with the R6 side, U2 with the R7 side, and U2 outside both open
    sides."""
    e = tol.eq_tol
    u2 = _in_u2(p, tol, closed)
    return (
        u2 and ge(*_r6_sides(p), e),
        u2 and (ge if closed else gt)(*_r7_sides(p), e),
        u2 and not ge(*_r6_sides(p), e) and not gt(*_r7_sides(p), e),
    )


def r6_polynomial_sides(p: HullPoint):
    """The paper's side of cell R6, degree 4 under (x, X) -> (t x, t^2 X):
    (1 - z1) s x1^2 (X22 z2 - x2^2) and (X12 z1 z2 - x1 x2 s)^2, s = z1 + z2 - 1;
    R6 holds the first at least the second.  On points and columns alike."""
    s = p.z1 + p.z2 - 1.0
    d = p.X12 * p.z1 * p.z2 - p.x1 * p.x2 * s
    return (1.0 - p.z1) * s * p.x1 * p.x1 * (p.X22 * p.z2 - p.x2 * p.x2), d * d


def r7_polynomial_sides(p: HullPoint):
    """The paper's side of cell R7, degree 6: a quadratic form in (x1, X12)
    whose first side R7 holds beyond the second.  On points and columns alike."""
    d = p.X22 * p.z2 - p.x2 * p.x2
    x2sq = p.x2 * p.x2
    lhs = p.x1 * p.x1 * (x2sq - p.X22 * (1.0 - p.z1)) * d
    rhs = 2.0 * p.x1 * p.x2 * p.X12 * p.z1 * d - p.X12 * p.X12 * (
        p.X22 * (p.z1 + p.z2 - 1.0) + x2sq * (1.0 - 2.0 * p.z1 - p.z2 * (1.0 - p.z1))
    )
    return lhs, rhs


def ctilde_x11_bound(p: HullPoint) -> float:
    """Smallest X11 keeping p inside the separation input set."""
    lo = p.x1 * p.x1 / p.z1
    gap2 = p.X22 - p.x2 * p.x2
    if gap2 > 1e-12:
        lo = max(lo, p.x1 * p.x1 + (p.X12 - p.x1 * p.x2) ** 2 / gap2)
    return lo


def candidate_region_point(rng: np.random.Generator, region: Region) -> HullPoint:
    """One random candidate in the target cell (X11 set later)."""
    if region is Region.R8:
        z1 = rng.uniform(0.55, 0.97)
        z2 = rng.uniform(max(1.08 - z1, 0.35), 0.96)
        x1 = rng.uniform(0.4, 1.8)
        x2 = rng.uniform(0.4, 1.8)
        s = z1 + z2 - 1.0
        X12 = rng.uniform(0.05, 0.85) * x1 * x2 * s / (z1 * z2)
        X22 = (x2 * x2 + rng.uniform(0.02, 0.5)) / z2
        return HullPoint(x1, x2, 1.0, X12, X22, z1, z2)
    if region is Region.R5:
        x1 = rng.uniform(0.4, 2.0)
        x2 = rng.uniform(0.02, 0.9)
        z1 = rng.uniform(0.15, 1.0)
        z2 = rng.uniform(0.05, 1.0)
        X12 = (x1 * x2 / z1 + 0.01) * rng.uniform(1.05, 2.5)
        X22 = max(X12 * x2 / x1 * rng.uniform(1.05, 2.0), x2 * x2 / z2 + 0.05)
        X22 = max(X22, x2 * x2 + 0.05)
        return HullPoint(x1, x2, 1.0, X12, X22, z1, z2)
    # R3 / R4: X12 x2 > X22 x1 with the matching indicator order
    if region is Region.R3:
        z1 = rng.uniform(0.05, 0.7)
        z2 = rng.uniform(min(z1 + 0.05, 0.99), 1.0)
    else:
        z2 = rng.uniform(0.05, 0.95)
        z1 = rng.uniform(z2, 1.0)
    x1 = rng.uniform(0.02, 0.8)
    x2 = rng.uniform(0.4, 2.0)
    X22 = x2 * x2 / z2 + rng.uniform(0.05, 1.5)
    X22 = max(X22, x2 * x2 + 0.05)
    X12 = X22 * x1 / x2 * rng.uniform(1.05, 3.0) + rng.uniform(0.01, 0.2)
    return HullPoint(x1, x2, 1.0, X12, X22, z1, z2)


def shrunken_nonmembers_by_loop(
    rng: np.random.Generator, n: int, tol: Tolerances = DEFAULT_TOL
) -> list[HullPoint]:
    """:func:`pairhull.verify.shrunken_nonmembers` one candidate at a time:
    the same distribution from a different stream of ``rng``."""
    out: list[HullPoint] = []
    draws = 0
    while len(out) < n and draws < MAX_DRAWS:
        draws += 1
        region = SHRUNKEN_REGIONS[int(rng.integers(len(SHRUNKEN_REGIONS)))]
        cand = candidate_region_point(rng, region)
        lo = ctilde_x11_bound(cand)
        try:
            hi = x11_root(FAMILY_BY_CELL[region.value], cand)
        except ZeroDivisionError:
            continue
        if not (hi - lo > GAP_FLOOR):
            continue
        x11 = lo + rng.uniform(0.1, 0.9) * (hi - lo)
        p = HullPoint(cand.x1, cand.x2, x11, cand.X12, cand.X22, cand.z1, cand.z2)
        if classify(p, tol) is not region:
            continue
        if not in_relaxation_ctilde(p, tol):
            continue
        out.append(p)
    if len(out) < n:
        raise RuntimeError(f"only built {len(out)}/{n} shrunken non-members")
    return out


def family_touch_points(
    rng: np.random.Generator, n: int, family: str, tol: Tolerances = DEFAULT_TOL
) -> list[HullPoint]:
    """Boundary points of one separating family (q = 0 with margins), used
    for gradient checks."""
    regions = tuple(Region(c) for c, f in FAMILY_BY_CELL.items() if f == family)
    out: list[HullPoint] = []
    draws = 0
    while len(out) < n and draws < MAX_DRAWS:
        draws += 1
        region = regions[int(rng.integers(len(regions)))]
        cand = candidate_region_point(rng, region)
        try:
            hi = x11_root(family, cand)
        except ZeroDivisionError:
            continue
        p = HullPoint(cand.x1, cand.x2, hi, cand.X12, cand.X22, cand.z1, cand.z2)
        if classify(p, tol) is not region:
            continue
        if abs(q_value(family, p)) > tol.mem_tol * (1.0 + hi * hi):
            continue
        out.append(p)
    if len(out) < n:
        raise RuntimeError(f"only built {len(out)}/{n} touch points for {family}")
    return out


def hand_q_gradient(family: str, p: HullPoint) -> tuple:
    """The gradient of the family boundary function q at p derived by hand,
    with the chain rule through W for family V, in the canonical coordinate
    order (x1, x2, X11, X12, X22, z1, z2): the reference of
    :func:`~pairhull.families.q_gradient`, the derivative of q's own body."""
    if family in ("II", "III"):
        z = shift_z(family, p)
        a, b, c = (
            p.X11 - _div0(p.x1 * p.x1, z),
            p.X22 - _div0(p.x2 * p.x2, z),
            p.X12 - _div0(p.x1 * p.x2, z),
        )
        gx1 = -_div0(2.0 * p.x1, z) * b + _div0(2.0 * p.x2, z) * c
        gx2 = -_div0(2.0 * p.x2, z) * a + _div0(2.0 * p.x1, z) * c
        gz = (
            _div0(p.x1 * p.x1, z * z) * b
            + _div0(p.x2 * p.x2, z * z) * a
            - 2.0 * c * _div0(p.x1 * p.x2, z * z)
        )
        gz1, gz2 = (0.0, gz) if family == "II" else (gz, 0.0)
        return gx1, gx2, b, -2.0 * c, a, gz1, gz2

    if family != "V":
        raise ValueError(f"unknown family {family!r}")

    s, d, arg = w_sqrt_arg(p)
    r = math.sqrt(max(arg, 0.0))
    w = w_shift(p)
    k = p.X12 * p.z1 * p.z2
    g = k / w - p.x1 * p.x2
    a1 = p.X11 - p.x1 * p.x1 / p.z1

    dw_dX22 = -p.z2 * (1.0 - p.z1) * s / (2.0 * r * p.x2)
    dw_dz1 = 1.0 - d * ((1.0 - p.z1) - s) / (2.0 * r * p.x2)
    dw_dz2 = 1.0 - (p.X22 * (1.0 - p.z1) * s + d * (1.0 - p.z1)) / (2.0 * r * p.x2)
    dw_dx2 = (1.0 - p.z1) * s / r + r / (p.x2 * p.x2)

    kw2 = k / (w * w)
    dg_dX12 = p.z1 * p.z2 / w
    dg_dX22 = -kw2 * dw_dX22
    dg_dz1 = p.X12 * p.z2 / w - kw2 * dw_dz1
    dg_dz2 = p.X12 * p.z1 / w - kw2 * dw_dz2
    dg_dx1 = -p.x2
    dg_dx2 = -p.x1 - kw2 * dw_dx2

    x2sq = p.x2 * p.x2
    lead = p.z1 * (1.0 - p.z2) * x2sq
    gx1 = -2.0 * p.x1 * (1.0 - p.z2) * x2sq - 2.0 * s * g * dg_dx1
    gx2 = 2.0 * p.z1 * (1.0 - p.z2) * a1 * p.x2 - 2.0 * s * g * dg_dx2
    gX11 = lead
    gX12 = -2.0 * s * g * dg_dX12
    gX22 = -2.0 * s * g * dg_dX22
    gz1 = (
        (1.0 - p.z2) * a1 * x2sq
        + lead * (p.x1 * p.x1 / (p.z1 * p.z1))
        - g * g
        - 2.0 * s * g * dg_dz1
    )
    gz2 = -p.z1 * a1 * x2sq - g * g - 2.0 * s * g * dg_dz2
    return gx1, gx2, gX11, gX12, gX22, gz1, gz2


def sample_s2_masked(rng: np.random.Generator, n: int) -> np.ndarray:
    """Vertex-set samples built by boolean-mask writes, the construction
    :func:`pairhull.verify._sample_s2_array` must equal bit for bit with the
    same draws from ``rng``."""
    piece = rng.integers(1, 5, size=n)
    u1 = rng.uniform(0.0, XMAX, size=n)
    u2 = rng.uniform(0.0, XMAX, size=n)
    out = np.zeros((n, 7))
    m2 = piece == 2
    out[m2, 0] = u1[m2]
    out[m2, 2] = u1[m2] ** 2
    out[m2, 5] = 1.0
    m3 = piece == 3
    out[m3, 1] = u2[m3]
    out[m3, 4] = u2[m3] ** 2
    out[m3, 6] = 1.0
    m4 = piece == 4
    out[m4, 0] = u1[m4]
    out[m4, 1] = u2[m4]
    out[m4, 2] = u1[m4] ** 2
    out[m4, 3] = u1[m4] * u2[m4]
    out[m4, 4] = u2[m4] ** 2
    out[m4, 5] = 1.0
    out[m4, 6] = 1.0
    return out


def hull_by_masked(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Convex combinations of k rows of :func:`sample_s2_masked` with
    Dirichlet(1) weights, the construction
    :func:`pairhull.verify._sample_hull_array` must equal bit for bit."""
    pts = sample_s2_masked(rng, n * k).reshape(n, k, 7)
    w = rng.dirichlet(np.ones(k), size=n)
    return np.einsum("nk,nkc->nc", w, pts)


def separable_by_columns(rng: np.random.Generator, n: int) -> np.ndarray:
    """Separable-relaxation samples drawn one coordinate per ``uniform``
    call, the construction :func:`pairhull.verify._sample_separable_array`
    must equal bit for bit with the same draws from ``rng``."""
    rows = [np.empty((0, 7))]
    have = 0
    while have < n:
        m = max(2 * (n - have), 256)
        cand = np.column_stack(
            [
                rng.uniform(0.0, XMAX, m),
                rng.uniform(0.0, XMAX, m),
                rng.uniform(0.0, LIFT_MAX, m),
                rng.uniform(0.0, LIFT_MAX, m),
                rng.uniform(0.0, LIFT_MAX, m),
                rng.uniform(0.0, 1.0, m),
                rng.uniform(0.0, 1.0, m),
            ]
        )
        keep = (cand[:, 2] * cand[:, 5] >= cand[:, 0] ** 2) & (
            cand[:, 4] * cand[:, 6] >= cand[:, 1] ** 2
        )
        rows.append(cand[keep])
        have += int(keep.sum())
    return np.concatenate(rows, axis=0)[:n]


def exact_copositive(a: float, b: float, c: float) -> bool:
    """Whether a t1^2 + b t1 t2 + c t2^2 >= 0 on t >= 0, in rational
    arithmetic."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return a >= 0 and c >= 0 and (b >= 0 or b * b <= 4 * a * c)


def _exact_ray_minimum(a: Fraction, g: Fraction) -> Fraction | None:
    """The minimum of a t^2 + g t over t >= 0, None where it is unbounded."""
    if a > 0:
        return -g * g / (4 * a) if g < 0 else Fraction(0)
    return Fraction(0) if a == 0 and g >= 0 else None


def exact_s2_minimum(coeffs, constant: float) -> float:
    """The infimum over the vertex set of the cut ``coeffs . p + constant``
    in rational arithmetic, rounded to float; -inf where it is unbounded.

    Enumerates the candidate minimizers of each piece: the origin, the
    minimizer of each axis, and where both x are free the stationary point
    by Cramer's rule, if it lies inside; the piece is unbounded where its
    quadratic part is not copositive, or singular with a null ray into the
    orthant along which the linear term falls."""
    g1, g2, a, b, c, c1, c2 = (Fraction(float(v)) for v in coeffs)
    k = Fraction(float(constant))
    ray1, ray2 = _exact_ray_minimum(a, g1), _exact_ray_minimum(c, g2)
    if ray1 is None or ray2 is None or not exact_copositive(a, b, c):
        return -math.inf
    h, p, r = b / 2, -g1 / 2, -g2 / 2
    det, n1, n2 = a * c - h * h, c * p - h * r, a * r - h * p
    if det == 0 and h < 0 and -h * g1 + a * g2 < 0:
        return -math.inf
    values = [k, k + c1 + ray1, k + c2 + ray2, k + c1 + c2 + min(ray1, ray2)]
    if det > 0 and n1 > 0 and n2 > 0:
        values.append(k + c1 + c2 - (p * n1 + r * n2) / det)
    return float(min(values))


def cuts_suite_by_loop(trials: int, seed: int, tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """:func:`pairhull.verify.run_cuts_suite` checked one query at a time
    through :meth:`SeparationBatch.result`, :meth:`Cut.evaluate` and
    :meth:`MembershipBatch.report`, with every kept cut certified by
    :func:`exact_s2_minimum`."""
    rng = np.random.default_rng(seed)
    queries = shrunken_nonmembers(rng, trials, tol)
    failures = 0
    offender = None
    worst = math.inf
    cuts = []
    sep = separate_batch(np.array([p.coords() for p in queries]), tol)
    made = sep.cuts()
    touch = member_batch(sep.touch[made], tol)
    touch_row = np.cumsum(made) - 1  # row of each query's touch point in ``touch``
    for i, p in enumerate(queries):
        try:
            res = sep.result(i)
        except PairhullError as exc:
            failures += 1
            if offender is None:
                offender = {"point": _point_dict(p), "error": str(exc)}
            continue
        bad = (
            res.inside
            or res.cut is None
            or res.cut.evaluate(p) >= -VIOLATION_FLOOR
            or abs(res.cut.evaluate(res.cut.touch)) > VIOLATION_FLOOR
            or not touch.report(int(touch_row[i])).member
        )
        if bad:
            failures += 1
            if offender is None:
                offender = {"point": _point_dict(p), "inside": res.inside}
            continue
        cuts.append((p, res.cut))
    for p, cut in cuts:
        low = exact_s2_minimum(cut.coeffs, cut.constant)
        worst = min(worst, low)
        if not SOUNDNESS_FLOOR <= low <= VIOLATION_FLOOR:
            failures += 1
            if offender is None:  # no query failed, so this is the first cut
                offender = {"point": _point_dict(p), "cut_min_on_s2": low}
    return SuiteReport(
        "cuts",
        trials,
        failures,
        worst,
        0.0,
        detail=f"cuts={len(cuts)}",
        offender=offender,
    )


#: The face kinds of :func:`face_pairs`: the three z-patterns on which the
#: face's cut attains its minimum 0 over the vertex set.
FACE_KINDS = ("00,10,11", "00,01,11", "10,01,11")


def _rational(rng: np.random.Generator, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(int(rng.integers(lo, hi + 1)), den)


def face_pairs(
    rng: np.random.Generator, n: int, kind: str, deltas=("1e-2", "1e-3", "1e-4")
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact boundary members of the hull and exact non-members below them,
    built in rational arithmetic: (members, nonmembers, delta of each
    non-member), the points as float rows.

    Each face has the cut g1 x1 + g2 x2 + a X11 + b X12 + c X22 + c1 z1
    + c2 z2 + k with a, c in [1/4, 4], g1, g2 in [-4, -1/10] and
    b^2 < 3.24 a c, so its quadratic part is copositive.  Its minimum over
    the vertex set on each z-pattern is rational: k at 00, k + c1 + r1 at
    10, k + c2 + r2 at 01 and k + c1 + c2 + r12 at 11, with r1 = -g1^2/(4a),
    r2 = -g2^2/(4c) and r12 the value at the interior stationary point of
    the full quadratic (drawn again where that point leaves the orthant).
    k, c1 and c2 make the minimum 0 on the three patterns of ``kind`` (b < 0
    for the first two kinds, b > 0 for the third) and positive on the
    fourth, so the cut is valid.  A convex combination q of the three
    minimizers, with positive rational weights, is on the cut and so on the
    hull boundary; q with X11 lowered by delta max|coef| / a is outside, as
    the cut divided by its largest |coefficient| is exactly -delta there.
    Non-members whose X11 would be negative are dropped.
    """
    members, nonmembers, depth = [], [], []
    steps = [Fraction(d) for d in deltas]
    while len(members) < n:
        a, c = _rational(rng, 25, 400, 100), _rational(rng, 25, 400, 100)
        g1, g2 = -_rational(rng, 10, 400, 100), -_rational(rng, 10, 400, 100)
        b = _rational(rng, -800, 800, 100)
        if b == 0 or b * b >= Fraction(324, 100) * a * c or (b > 0) != (kind == FACE_KINDS[2]):
            continue
        det = 4 * a * c - b * b
        t1, t2 = (b * g2 - 2 * c * g1) / det, (b * g1 - 2 * a * g2) / det
        if t1 <= 0 or t2 <= 0:
            continue
        u1, u2 = -g1 / (2 * a), -g2 / (2 * c)
        r1, r2 = g1 * u1 / 2, g2 * u2 / 2
        r12 = (g1 * t1 + g2 * t2) / 2
        if kind == FACE_KINDS[0]:
            k, c1 = Fraction(0), -r1
            c2 = -r12 - c1
        elif kind == FACE_KINDS[1]:
            k, c2 = Fraction(0), -r2
            c1 = -r12 - c2
        else:
            k = r12 - r1 - r2
            c1, c2 = -k - r1, -k - r2
        minima = {"00": k, "10": k + c1 + r1, "01": k + c2 + r2, "11": k + c1 + c2 + r12}
        face = kind.split(",")
        assert all(minima[z] == 0 for z in face)
        assert all(v > 0 for z, v in minima.items() if z not in face)
        vertex = {
            "00": (0, 0, 0, 0, 0, 0, 0),
            "10": (u1, 0, u1 * u1, 0, 0, 1, 0),
            "01": (0, u2, 0, 0, u2 * u2, 0, 1),
            "11": (t1, t2, t1 * t1, t1 * t2, t2 * t2, 1, 1),
        }
        w = [int(v) for v in rng.integers(1, 100, size=3)]
        q = [sum(Fraction(wi, sum(w)) * vertex[z][j] for wi, z in zip(w, face)) for j in range(7)]
        coeffs = (g1, g2, a, b, c, c1, c2)
        assert sum(ci * qi for ci, qi in zip(coeffs, q)) + k == 0
        members.append([float(v) for v in q])
        scale = max(abs(ci) for ci in coeffs) / a
        for delta in steps:
            p = list(q)
            p[2] -= delta * scale
            if p[2] >= 0:
                nonmembers.append([float(v) for v in p])
                depth.append(float(delta))
    return np.array(members), np.array(nonmembers).reshape(-1, 7), np.array(depth)
