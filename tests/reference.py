"""Reference formulas the tests compare the package against.

None of these is called by the package: the closed-form optimizer of the
witness problem per cell (the oracle's closed-form cross-check), the PSD
test of a symmetric 3x3 by minors, singular PSD moment blocks drawn as
Gram matrices, the two relaxations the hull strengthens, the eight cell
systems of one point evaluated independently, the boundary points of one
separating family, the one-candidate-at-a-time loop that drew the cuts
suite's shrunken non-members (with its candidate builder and relaxation
bound on X11, which the boundary points share), the masked vertex
sampler and the convex combinations built on it, the separable sampler
drawn one coordinate per call, the rational copositivity test and
minimum over the vertex set of a cut, and the per-query loop of the cuts
suite with that minimum as its exact certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from pairhull import (
    DEFAULT_TOL,
    HullPoint,
    OracleWitness,
    Region,
    Tolerances,
    classify,
    in_relaxation_ctilde,
    oracle_objective,
    validate_point,
)
from pairhull.errors import PairhullError
from pairhull.families import FAMILY_BY_CELL, q_value, w_shift, x11_root
from pairhull.hull import member_batch
from pairhull.regions import _PREDICATES, on_indicator_edge
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


class RegionHasNoClosedWitness(PairhullError):
    """No closed-form optimizer exists for this region (epsilon-interior cases)."""


def analytic_witness(
    p: HullPoint, region: Region, tol: Tolerances = DEFAULT_TOL
) -> OracleWitness:
    """Closed-form optimizer of the witness problem for the given cell.

    Available for R1, R2, R3, R6, R7, R8 and the z2 < z1 part of R5; the
    remaining cases only admit epsilon-interior optimizers and raise
    :class:`RegionHasNoClosedWitness`.  The returned triple is validated
    and scored by :func:`~pairhull.oracle.oracle_objective`.
    """
    validate_point(p, tol)
    actual = classify(p, tol)
    if actual is not region:
        raise ValueError(f"point classifies to {actual.value}, not {region.value}")
    e = tol.eq_tol
    x1, x2, X12, X22, z1, z2 = p.x1, p.x2, p.X12, p.X22, p.z1, p.z2
    s = z1 + z2 - 1.0

    if region is Region.R1:
        if X12 <= e or x1 <= e or x2 <= e or on_indicator_edge(p, tol):
            raise RegionHasNoClosedWitness(
                "R1 face/edge points have no interior closed-form witness"
            )
        lam = X12 * z1 * z2 / (x1 * x2)
        triple = (lam * x1 / z1, lam * x2 / z2, lam)
    elif region is Region.R2:
        triple = (x1, X12 * z1 / x1, z1)
    elif region is Region.R3:
        den = X12 * z2 - x1 * x2
        triple = (x1, (X12 * x2 * z1 + x1 * (X22 * (z2 - z1) - x2 * x2)) / den, z1)
    elif region is Region.R4:
        raise RegionHasNoClosedWitness("R4 optimizers are epsilon-interior only")
    elif region is Region.R5:
        if not z2 < z1 - e:
            raise RegionHasNoClosedWitness(
                "the z1 <= z2 part of R5 has epsilon-interior optimizers only"
            )
        den = X22 * z1 - x2 * x2
        triple = ((x1 * (X22 * z2 - x2 * x2) + X12 * x2 * (z1 - z2)) / den, x2, z2)
    elif region is Region.R6:
        triple = (s * x1 / z1, X12 * z1 / x1, s)
    elif region is Region.R7:
        a1 = (X12 * x2 * (1.0 - z2) + x1 * (X22 * z2 - x2 * x2)) / (X22 - x2 * x2)
        a2 = (x1 * (x2 * x2 - X22 * (1.0 - z1)) - X12 * x2 * z1) / (x1 * x2 - X12)
        triple = (a1, a2, s)
    elif region is Region.R8:
        w = w_shift(p)
        triple = (s * X12 * z2 / (x2 * w), x2 * w / z2, s)
    else:
        raise RegionHasNoClosedWitness(f"no closed-form witness for {region.value}")

    objective = oracle_objective(p, triple, tol)
    return OracleWitness(triple[0], triple[1], triple[2], objective)


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
