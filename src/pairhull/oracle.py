"""Independent membership ground truth via the disjunctive witness problem.

A point is in the hull iff the three-variable convex program over the
disjunction witness (xt41, xt42, lambda4) attains an objective no larger
than X11.  The oracle decides each point in two stages: it checks the
certificates the closed form proposes, then searches the points they leave
undecided.

Certify.  The objective f of any feasible witness is an upper bound on F,
the least hull-feasible X11, so f <= X11 + oracle_tol proves membership.
A valid cut c . q + k >= 0 with c_X11 > 0 proves non-membership where its
value at p + oracle_tol e_X11 lies below its minimum over the vertex set,
:func:`s2_minimum`: every hull point that shares the other six
coordinates of p then has X11 above X11 + oracle_tol.  The closed form
proposes one witness triple per point and, for its non-members, the cut of
``separate``; the oracle scores the witness with its own objective and
slacks and bounds the cut with its own minimum, and reads no cell or piece
formula, so a wrong closed form can only leave a point uncertified.

Search.  The minimizer is searched weight by weight: at each weight the
second split xt42 is sampled only inside the interval where the quadratic
constraint holds, whose ends are closed-form roots, and the first split
xt41 is minimized exactly from four closed-form candidates.  A coarse pass
over 64 weights is followed by a shrinking-bracket zoom over the weight,
entirely independent of the closed-form piece descriptions.  An
infeasible witness scores +inf, a plain IEEE float.

The search's decisions come with certificates too.  Besides the objective
f of its best witness, a Lagrangian lower bound L <= F, taken from the
tangent planes of the convex objective at the sampled witnesses (the
disjunctive-perspective duality of Ceria and Soares, Math. Program. 1999),
proves non-membership once L > X11 + oracle_tol.  A point leaves the search
as soon as either holds: after 17 of the coarse weights (every fourth and
the last), after a sweep of all 64, which repeats those 17, or before a
zoom pass.  f only falls and L only rises, so the decision is that of the
full search, and only the witness, its objective and L depend on where the
search stopped.  A non-member that no L certifies runs the whole zoom.

The member certificate holds only up to the closure's band.  At lam = z1
the band |x1 - a1| <= eq_tol scores (x1 - a1)^2/(z1 - lam) as 0, so a
split a1 just below x1 gives a1^2/lam under x1^2/z1, and f can fall below
F.  On the 882 valid hull combinations of ``_sample_hull_array`` (k = 4,
rng 4, eq_tol = 1e-9) the full search's f lies up to 3.4e-9 below its own
L, by 1e-9 or more on 4 of them; the gap grows like eq_tol x1/z1.  A point
whose F lies that close above X11 + oracle_tol is a member to the full
search, and may be a certified non-member to a search that L stops first.

The search scores its samples with the column versions of the objective
and g2 that score a proposed witness, compiled by ``elementwise`` when it
first runs, and takes the tangent planes of L from the same versions run
on duals (:class:`~pairhull.columns.Dual`): the objective has one body,
and no partial of it is written by hand.  It runs on numpy, read through
the package's ``np`` stand-in, so a process whose points are all
certified never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from typing import Iterable, Optional, Sequence, Union

from .core import (
    DEFAULT_TOL,
    Dual,
    HullPoint,
    Tolerances,
    copositive,
    cut_value,
    diff_of_products,
    elementwise,
    np,
    validate_point,
)
from .errors import EmptyFeasibleSet, InfeasibleWitness, PairhullError


@dataclass(frozen=True)
class OracleWitness:
    """Feasible witness triple with its objective value, an upper bound on
    the least hull-feasible X11, a lower bound on it (-inf when no
    certificate was found), and what decided the point: ``"witness"`` or
    ``"cut"``, a certificate of the closed form that the oracle checked, or
    ``"search"``."""

    xt41: float
    xt42: float
    lambda4: float
    objective: float
    lower: float
    decided_by: str = "search"


# ---------------------------------------------------------------------------
# the witness objective
# ---------------------------------------------------------------------------
# The oracle keeps its own closure of the fractions: it divides wherever
# the denominator is positive, however steep the quotient, where
# core.persp_sq divides only past eq_tol.


def _closed_sq(u, den, e: float):
    """Closure of u^2/den: den > 0 divides, the 0/0 corner gives 0 within
    the numerator band, anything else is +inf."""
    return u * u / den if den > 0.0 else (0.0 if abs(u) <= e else math.inf)


def _closed_prod(u, v, den, e: float):
    """Closure of u*v/den for u, v >= 0."""
    return u * v / den if den > 0.0 else (0.0 if u <= e or v <= e else math.inf)


def _coupling(h, g2, e: float):
    """Closure of h^2/g2, the coupling term: +inf where g2 is negative
    beyond the band or h is nonzero on the g2 <= 0 ray."""
    return h * h / g2 if g2 > 0.0 else (0.0 if abs(h) <= e and g2 >= -e else math.inf)


def _split_cost(x, z, lam, a, e: float):
    """a^2/lam + (x - a)^2/(z - lam): the cost of splitting one coordinate."""
    return _closed_sq(a, lam, e) + _closed_sq(x - a, z - lam, e)


def _witness_g2(p: HullPoint, lam, a2, e: float):
    """Slack of the quadratic constraint: X22 less the split cost of x2."""
    return p.X22 - _closed_sq(a2, lam, e) - _closed_sq(p.x2 - a2, p.z2 - lam, e)


def _objective_with_g2(p: HullPoint, lam, a1, a2, g2, e: float):
    """:func:`_witness_objective` given g2, the slack of the quadratic
    constraint at (lam, a2), which does not depend on a1."""
    h = p.X12 - _closed_prod(a1, a2, lam, e)
    return _split_cost(p.x1, p.z1, lam, a1, e) + _coupling(h, g2, e)


def _witness_objective(p: HullPoint, lam, a1, a2, e: float):
    """Objective of the witness problem at weight lam and splits (a1, a2).

    Infeasible triples (negative slack in the quadratic constraint beyond
    the band, or an infinite closed fraction with nonzero numerator) score
    +inf.  ``elementwise`` evaluates it on broadcastable arrays.
    """
    return _objective_with_g2(p, lam, a1, a2, _witness_g2(p, lam, a2, e), e)


def witness_slacks(
    p: HullPoint, triple: tuple[float, float, float], tol: Tolerances = DEFAULT_TOL
) -> dict[str, float]:
    """Constraint slacks of a witness triple (negative means violated)."""
    a1, a2, lam = float(triple[0]), float(triple[1]), float(triple[2])
    g2 = _witness_g2(p, lam, a2, tol.eq_tol)
    return {
        "lambda.lo": lam - (p.z1 + p.z2 - 1.0),
        "lambda.hi": min(p.z1, p.z2) - lam,
        "lambda.pos": lam,
        "xt41.lo": a1,
        "xt41.hi": p.x1 - a1,
        "xt42.lo": a2,
        "xt42.hi": p.x2 - a2,
        "g2": g2,
    }


def oracle_objective(
    p: HullPoint, w: tuple[float, float, float], tol: Tolerances = DEFAULT_TOL
) -> float:
    """Objective of the witness problem at triple w = (xt41, xt42, lambda4).

    Raises :class:`InfeasibleWitness` when a box or weight-interval or
    quadratic constraint is violated beyond eq_tol.  A feasible witness on
    the g2 = 0, h != 0 ray evaluates to +inf.
    """
    validate_point(p, tol)
    return _scored(p, w, tol)


def _scored(p: HullPoint, w: tuple[float, float, float], tol: Tolerances) -> float:
    """:func:`oracle_objective` at a point of the ambient domain."""
    slacks = witness_slacks(p, w, tol)
    bad = {k: v for k, v in slacks.items() if v < -tol.eq_tol}
    if bad:
        raise InfeasibleWitness(f"witness constraint(s) violated: {bad}")
    return float(_witness_objective(p, float(w[2]), float(w[0]), float(w[1]), tol.eq_tol))


# ---------------------------------------------------------------------------
# certificates proposed by the closed form
# ---------------------------------------------------------------------------


def _ray_minimum(a: float, g: float) -> float:
    """The infimum of a t^2 + g t over t >= 0."""
    return 0.0 if g >= 0.0 and a >= 0.0 else (-g * g / (4.0 * a) if a > 0.0 else -math.inf)


def s2_minimum(c: HullPoint, k: float) -> float:
    """The infimum of the cut ``c . p + k`` over the vertex set S2, -inf where
    it is unbounded below; ``c`` holds the coefficients by coordinate name.

    On S2 the cut is k at the origin, a quadratic in one x >= 0 where x1 or
    x2 alone is free, and where both are free the form [[c_X11, h], [h,
    c_X22]], h = c_X12 / 2, plus a linear term.  That piece is unbounded
    where the form is not copositive, or singular with the linear term
    falling along its null ray (-h, c_X11); else its minimum lies on an axis
    or at the stationary point (n1, n2) / det.  det, n1 and n2 are
    compensated: with naive products 233 of the 4000 cuts of
    ``shrunken_nonmembers`` (rng 6) get spurious minima as low as -1.2.
    """
    ray1, ray2 = _ray_minimum(c.X11, c.x1), _ray_minimum(c.X22, c.x2)
    h, p, r = 0.5 * c.X12, -0.5 * c.x1, -0.5 * c.x2
    det = diff_of_products(c.X11, c.X22, h, h)
    n1, n2 = diff_of_products(c.X22, p, h, r), diff_of_products(c.X11, r, h, p)
    both = k + c.z1 + c.z2
    # the cut there is both - (c_X22 p^2 - 2 h p r + c_X11 r^2) / det, and c_X11
    # times that quotient is p^2 + n2^2 / det: two terms that cannot cancel
    inside = det > 0.0 and n1 > 0.0 and n2 > 0.0
    inner = both - (p * p + n2 * n2 / det) / c.X11 if inside else math.inf
    # the linear term falls along the null ray where c_X11 c_x2 - h c_x1 =
    # -2 n2 < 0, tested unhalved and with c_x1, c_x2 scaled by 2^1000 where
    # both lie below 2^-900, so that no tiny c_x rounds to 0 in a product
    up = 2.0 ** 1000 if max(abs(c.x1), abs(c.x2)) < 2.0 ** -900 else 1.0
    falls = diff_of_products(c.X11, c.x2 * up, h, c.x1 * up) < 0.0
    bounded = copositive(c.X11, c.X12, c.X22) and not (det == 0.0 and h < 0.0 and falls)
    four = min(both + min(ray1, ray2), inner) if bounded else -math.inf
    return min(min(k, four), min(k + c.z1 + ray1, k + c.z2 + ray2))


#: What the closed form proposes for one point: a witness triple
#: (xt41, xt42, lambda4) or None, and a cut (coeffs, constant) in
#: :data:`~pairhull.core.COORD_NAMES` order or None.
Proposal = tuple[Optional[tuple], Optional[tuple]]


def _weight_interval(p: HullPoint, tol: Tolerances) -> tuple[float, float]:
    """(lam_lo, lam_hi), the weights of the witnesses of p.  Raises
    :class:`NotInAmbientBox` outside the ambient domain and
    :class:`EmptyFeasibleSet` where min(z1, z2) lies in the zero band."""
    validate_point(p, tol)
    lam_hi = min(p.z1, p.z2)
    if lam_hi <= tol.eq_tol:
        raise EmptyFeasibleSet(f"weight interval (0, {lam_hi}] is empty beyond tolerance")
    return min(max(p.z1 + p.z2 - 1.0, 0.0), lam_hi), lam_hi


def _certified(
    p: HullPoint, proposal: Proposal, lam_lo: float, tol: Tolerances
) -> Optional[tuple[bool, OracleWitness]]:
    """The decision of p, a point of the ambient domain whose least weight
    is ``lam_lo``, from its proposal, or None where neither of its
    certificates decides p.

    The witness is scored by :func:`_scored`.  A feasible witness
    whose objective f is at most X11 + oracle_tol makes p a member, with no
    lower bound.  Otherwise a cut with c_X11 > 0 whose value at p +
    oracle_tol e_X11 lies below its :func:`s2_minimum` m makes p a
    non-member, with lower = X11 + (m - cut(p)) / c_X11 and the witness's
    objective as the upper bound.  Where that objective is not finite, the
    witness is reported as the search reports a point with no finite
    objective: +inf at (0, 0, lam_lo).
    """
    triple, cut = proposal
    threshold = p.X11 + tol.oracle_tol
    f = math.inf
    if triple is not None:
        try:
            f = _scored(p, triple, tol)
        except InfeasibleWitness:
            pass
        if f <= threshold:
            return True, OracleWitness(*triple, f, -math.inf, "witness")
    if cut is None:
        return None
    coeffs, constant = cut
    c = HullPoint(*coeffs)
    m = s2_minimum(c, constant)
    if not (c.X11 > 0.0 and cut_value(coeffs, constant, replace(p, X11=threshold)) < m):
        return None
    if not f < math.inf:  # no witness, an infeasible one, or a NaN objective
        f, triple = math.inf, (0.0, 0.0, lam_lo)
    lower = p.X11 + (m - cut_value(coeffs, constant, p)) / c.X11
    return False, OracleWitness(*triple, f, lower, "cut")


# ---------------------------------------------------------------------------
# numeric minimization: coarse pass + shrinking-bracket refinement
# ---------------------------------------------------------------------------


def _a2_bracket(x2, X22, z2, lam, e: float):
    """Ends ``(lo, hi)`` of the second splits a2 in [0, x2] with
    g2 >= -eq_tol/2 at weight lam.

    g2 is concave in a2, and lam (z2 - lam) g2 is the quadratic
    lam (z2 - lam) X22 - z2 a2^2 + 2 lam x2 a2 - lam x2^2.  Its roots, with
    X22 + eq_tol/2 for X22, are lam x2 / z2 -+ sqrt(lam (z2 - lam)
    (z2 (X22 + eq_tol/2) - x2^2)) / z2: centred on the ridge lam x2 / z2,
    free of any division by z2 - lam, and exactly {0} at lam = 0 and {x2}
    at lam = z2.  Half the closure's band g2 >= -eq_tol, not all of it: at
    the roots of g2 = -eq_tol rounding puts about a third of the ends just
    below the band, where the objective is +inf, and an optimum on g2 = 0
    is then reached only from inside.  With a negative discriminant the
    bracket is the ridge point, the split of largest g2.
    """
    mid = x2 * (lam / z2)
    half = np.sqrt(np.maximum(lam * (z2 - lam) * (z2 * (X22 + 0.5 * e) - x2 * x2), 0.0)) / z2
    return np.clip(mid - half, 0.0, x2), np.clip(mid + half, 0.0, x2)


#: Second splits per bracket in each round, of the coarse pass and the zoom,
#: and weights per bracket in each pass of the zoom.
ZOOM_WIDTH = 17


def _zoom_a2(pt, lam: np.ndarray, e: float, rounds: np.ndarray):
    """Per-lambda bracket zoom over the second split (convex slice).

    Row i holds the weight lam[i] of the point whose (x1, x2, X12, X22, z1,
    z2) are entry i of the six arrays in `pt`, so one call zooms the weights
    of many points.  Row i starts from the feasible interval of
    :func:`_a2_bracket` and runs rounds[i] rounds; a row whose rounds are
    used up keeps its bracket and its best split.

    Each round samples :data:`ZOOM_WIDTH` second splits per lambda, the
    bracket ends among them, and minimizes exactly over the first split.
    For positive denominators the objective is a convex quadratic in the
    first split, so the clipped stationary point is the box minimizer; the
    closure cases are covered by the box ends and the h = 0 root.  g2 and
    the objective of these four candidates are the column versions of
    :func:`_witness_g2` and :func:`_objective_with_g2`.  It ignores the
    float errors of huge points.
    """
    g2_of, objective = elementwise(_witness_g2), elementwise(_objective_with_g2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x1, x2, X12, X22, z1, z2 = pt
        n = lam.size
        lin = np.linspace(0.0, 1.0, ZOOM_WIDTH)
        lo, hi = _a2_bracket(x2, X22, z2, lam, e)
        idx = np.arange(n)
        f_best = np.full(n, np.inf)
        a1_best = np.zeros(n)
        a2_best = np.zeros(n)
        # the per-row terms at the full (n, ZOOM_WIDTH) shape, which costs less
        # in the rounds than (n, 1) columns broadcast along rows of ZOOM_WIDTH;
        # X11 enters neither g2 nor the objective
        x1, x2, X12, X22, z1, z2, lam = np.repeat(
            np.stack([x1, x2, X12, X22, z1, z2, lam]), ZOOM_WIDTH, axis=1
        ).reshape(7, n, ZOOM_WIDTH)
        p = HullPoint(x1, x2, math.nan, X12, X22, z1, z2)
        rest1 = z1 - lam
        positive = (lam > 0.0) & (rest1 > 0.0)
        zero, lam_X12, x1_rest = np.zeros_like(x1), lam * X12, x1 / rest1
        inv_sum = 1.0 / lam + 1.0 / rest1

        for r in range(int(rounds.max())):
            ts = lo[:, None] + (hi - lo)[:, None] * lin[None, :]
            g2 = g2_of(p, lam, ts, e)
            # the h = 0 root lam X12 / a2, 0 where a2 is in the band, and the
            # stationary point where lam, z1 - lam and g2 are positive, else 0
            root = np.where(ts > e, lam_X12 / ts, 0.0)
            stationary = (x1_rest + ts * X12 / (lam * g2)) / (inv_sum + (ts / lam) ** 2 / g2)
            quad = np.where(positive & (g2 > 0.0), stationary, 0.0)
            a1 = np.stack([zero, x1, root, quad])
            np.clip(a1[2:], 0.0, x1, out=a1[2:])
            f = objective(p, lam, a1, ts, g2, e)

            # first minimum over (column, candidate) in lexicographic order:
            # the first column holding the least value, then its first
            # candidate holding it
            k = f.min(axis=0).argmin(axis=1)
            f_col = f[:, idx, k]
            c = f_col.argmin(axis=0)
            f_k = f_col[c, idx]
            live = r < rounds  # rows past their last round keep their state
            improved = (f_k < f_best) & live
            lo = np.where(live, ts[idx, np.maximum(k - 1, 0)], lo)
            hi = np.where(live, ts[idx, np.minimum(k + 1, ZOOM_WIDTH - 1)], hi)
            f_best = np.where(improved, f_k, f_best)
            a1_best = np.where(improved, a1[c, idx, k], a1_best)
            a2_best = np.where(improved, ts[idx, k], a2_best)
    return f_best, a1_best, a2_best


def _lower_bound(pt, lam_lo, lam_hi, lam, a1, a2, e: float):
    """Lagrangian lower bound on the least objective of the points of `pt`,
    at the witnesses w = (lam, a1, a2), all broadcast together.

    Where its denominators and g2 are positive, f is jointly convex and g2
    concave in v = (lam, a1, a2), so for every mu >= 0 the tangent plane of
    f - mu g2 at w lies below f on the feasible points of the box
    B = [lam_lo, lam_hi] x [0, x1] x [0, x2]:
    L(mu) = f(w) - mu g2(w) + min over B of (grad f - mu grad g2)(w).(v - w),
    whose minimum takes one end of B per coordinate.  L is concave and
    piecewise linear in mu, with a kink where a partial of f - mu g2 changes
    sign; g2 does not depend on a1, so the maximum is at mu = 0 or at one of
    the kinks df/dlam / dg2/dlam and df/da2 / dg2/da2 that are >= 0.  A
    witness with a denominator or g2 not positive, or f not finite, gives
    -inf.  f, g2 and their gradients are the derivative of the body of
    :func:`_witness_objective`: the column versions of :func:`_witness_g2`
    and :func:`_objective_with_g2` run on the duals of (lam, a1, a2).
    """
    x1, x2, X12, X22, z1, z2 = pt
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = HullPoint(x1, x2, math.nan, X12, X22, z1, z2)
        dlam, da1, da2 = Dual.seeds(lam, a1, a2)
        g2 = elementwise(_witness_g2)(p, dlam, da2, e)
        f = elementwise(_objective_with_g2)(p, dlam, da1, da2, g2, e)
        (df_lam, df_a1, df_a2), (dg_lam, _, dg_a2) = f.tangents, g2.tangents
        f, g2 = f.value, g2.value

        def box_min(c, lo, hi):
            return np.minimum(c * lo, c * hi)

        mu = np.stack([np.zeros_like(f), df_lam / dg_lam, df_a2 / dg_a2])
        low = (
            f
            - mu * g2
            + box_min(df_lam - mu * dg_lam, lam_lo - lam, lam_hi - lam)
            + box_min(df_a1, -a1, x1 - a1)
            + box_min(df_a2 - mu * dg_a2, -a2, x2 - a2)
        )
        ok = (mu >= 0.0) & np.isfinite(mu) & ~np.isnan(low)
        low = np.where(ok, low, -np.inf).max(axis=0)
        interior = (lam > 0.0) & (z1 - lam > 0.0) & (z2 - lam > 0.0) & (g2 > 0.0)
        return np.where(interior & np.isfinite(f), low, -np.inf)


def _sweep(pt, lam_ax, e: float, rounds, lam_lo, lam_hi):
    """Zoom the second split at each weight of row i of lam_ax, the weights
    of point i of `pt`, for rounds[i] rounds, in one call of
    :func:`_zoom_a2`.  Returns the column k of each row's first least
    objective, the (4, n) array of its (f, lam, a1, a2), and the greatest
    :func:`_lower_bound` of each row over the best split of every weight,
    on the box of weights [lam_lo, lam_hi]."""
    n, m = lam_ax.shape
    rows = tuple(np.repeat(c, m) for c in pt)
    f, a1, a2 = (
        v.reshape(n, m)
        for v in _zoom_a2(rows, lam_ax.reshape(-1), e, np.repeat(rounds, m))
    )
    k = f.argmin(axis=1)
    i = np.arange(n)
    column = tuple(c[:, None] for c in pt)
    lower = _lower_bound(column, lam_lo[:, None], lam_hi[:, None], lam_ax, a1, a2, e)
    return k, np.stack([f[i, k], lam_ax[i, k], a1[i, k], a2[i, k]]), lower.max(axis=1)


def _decided(f, lower, stop):
    """Points a certificate decides at threshold `stop`: objective at most
    it, or lower bound above it.  A NaN threshold decides none."""
    return (f <= stop) | (lower > stop)


def _zoom_lambda(pt, lam_lo, lam_hi, best, lower, e: float, zoom_rounds: int, stop):
    """Nested bracket zoom over the weight of every point of `pt`.

    Each pass samples :data:`ZOOM_WIDTH` weights of every point's weight
    bracket, zooms the second split inside its feasible interval at each of
    them (:func:`_sweep`), and shrinks the bracket around the best weight.
    The zoom starts from the whole interval [lam_lo, lam_hi] and runs
    `zoom_rounds` passes of 6 second-split rounds, the last pass 14; a
    one-point weight interval gets a single 14-round pass, and a point with
    x2 within the band one second-split round per pass.  `best`, the (4, n)
    array of the coarse pass's (f, lam, a1, a2), is improved in place.

    Before each pass a point leaves the zoom once its objective is at most
    its entry of `stop`, or its entry of `lower`, the greatest lower bound
    of its sweeps so far, exceeds it; a NaN entry never stops.  `lower` is
    raised in place.
    """
    lin = np.linspace(0.0, 1.0, ZOOM_WIDTH)
    passes = np.where(lam_hi - lam_lo <= e, 1, zoom_rounds)
    inner = np.where(pt[1] <= e, 1, 6)
    last = np.where(inner > 1, 14, 1)
    llo, lhi = lam_lo.copy(), lam_hi.copy()
    for r in range(zoom_rounds):
        act = np.flatnonzero((passes > r) & ~_decided(best[0], lower, stop))
        if act.size == 0:
            break
        sub = tuple(c[act] for c in pt)
        lam_ax = llo[act, None] + (lhi[act] - llo[act])[:, None] * lin
        rounds = np.where(passes[act] == r + 1, last[act], inner[act])
        k, found, low = _sweep(sub, lam_ax, e, rounds, lam_lo[act], lam_hi[act])
        better = found[0] < best[0, act]
        best[:, act[better]] = found[:, better]
        lower[act] = np.maximum(lower[act], low)
        ai = np.arange(act.size)
        llo[act] = lam_ax[ai, np.maximum(k - 1, 0)]
        lhi[act] = lam_ax[ai, np.minimum(k + 1, ZOOM_WIDTH - 1)]


#: Weights per point of the coarse pass of :func:`oracle_members`.
GRID = 64
#: Columns of the coarse weights swept first (every fourth and the last).
#: The points no certificate decides on them sweep all :data:`GRID` again.
COARSE_FIRST = (*range(0, GRID, 4), GRID - 1)
#: Points per pass of the search of :func:`oracle_members`.  Most points
#: leave it after the first coarse stage, so its cost is mostly that stage's
#: many small numpy calls, which one pass pays once for all its points; per
#: point it falls from about 0.095 ms at 16 points to 0.08 ms at 128 on the
#: points no certificate decides (see :func:`oracle_member`).
ORACLE_CHUNK = 64

OracleResult = Union[tuple[bool, OracleWitness], PairhullError]


def _oracle_chunk(
    rows: Sequence[tuple[HullPoint, float, float]], tol: Tolerances, zoom_rounds: int,
    stop: bool = True,
) -> list[tuple[bool, OracleWitness]]:
    """One chunk of :func:`oracle_members`: the search of the points p of
    the rows ``(p, lam_lo, lam_hi)``, each with its weight interval.  One
    coarse pass over the :data:`GRID` weights of every point, then one
    zoom, which each point leaves once a certificate decides it at X11 +
    oracle_tol.  The coarse pass sweeps the weights :data:`COARSE_FIRST` of
    every point, then all :data:`GRID` weights of the points no certificate
    decides on those, whose result is thus that of one sweep over all of
    them.  With `stop` false the threshold is NaN, and every point runs the
    whole coarse pass and the full zoom."""
    cols = np.array(
        [(p.x1, p.x2, p.X12, p.X22, p.z1, p.z2, lo, hi, p.X11) for p, lo, hi in rows], float
    ).T
    pt, lam_lo, lam_hi = cols[:6], cols[6], cols[7]
    threshold = cols[8] + tol.oracle_tol
    # np.linspace(lam_lo, lam_hi, GRID, axis=1) row by row: linspace takes
    # another formula for every row once one row's step is 0
    lam_ax = lam_lo[:, None] + np.arange(GRID) * ((lam_hi - lam_lo) / (GRID - 1))[:, None]
    lam_ax[:, -1] = lam_hi
    stop_at = threshold if stop else np.full(len(rows), np.nan)
    e, once = tol.eq_tol, np.ones(len(rows), dtype=int)
    _, best, lower = _sweep(pt, lam_ax[:, COARSE_FIRST], e, once, lam_lo, lam_hi)
    act = np.flatnonzero(~_decided(best[0], lower, stop_at))
    if act.size:
        _, best[:, act], lower[act] = _sweep(
            tuple(c[act] for c in pt), lam_ax[act], e, once[act], lam_lo[act], lam_hi[act]
        )
    _zoom_lambda(pt, lam_lo, lam_hi, best, lower, e, zoom_rounds, stop_at)
    return [
        (f_b <= thr, OracleWitness(a1_b, a2_b, lam_b, f_b, low))
        for (f_b, lam_b, a1_b, a2_b), low, thr in zip(
            best.T.tolist(), lower.tolist(), threshold.tolist()
        )
    ]


def oracle_members(
    points: Iterable[HullPoint],
    tol: Tolerances = DEFAULT_TOL,
    zoom_rounds: int = 10,
    proposals: Optional[Sequence[Optional[Proposal]]] = None,
) -> list[OracleResult]:
    """:func:`oracle_member` for many points, in input order.

    Each entry is the point's ``(member, witness)``, or the
    :class:`PairhullError` it raised (``NotInAmbientBox``,
    ``EmptyFeasibleSet``).  ``proposals``, if given, holds one
    :data:`Proposal` or None per point.  One pass over the points takes
    each point's weight interval, which raises those errors, and decides
    the points their proposals certify (:func:`_certified`).  The search
    runs on the other points, its coarse pass and each zoom pass once for
    every :data:`ORACLE_CHUNK` of them, which share their numpy calls.  Its
    results are those of single points, bit for bit: the search, its lower
    bounds and its stop are elementwise and take first-index minima, so
    they do not depend on the other points of its pass.
    """
    points = list(points)
    out: list = [None] * len(points)
    todo = []
    for j, (p, proposal) in enumerate(zip(points, chain(proposals or (), repeat(None)))):
        try:
            lam_lo, lam_hi = _weight_interval(p, tol)
        except PairhullError as exc:
            out[j] = exc
            continue
        if proposal is not None:
            out[j] = _certified(p, proposal, lam_lo, tol)
        if out[j] is None:
            todo.append((j, (p, lam_lo, lam_hi)))
    for i in range(0, len(todo), ORACLE_CHUNK):
        chunk = todo[i : i + ORACLE_CHUNK]
        for (j, _), res in zip(chunk, _oracle_chunk([row for _, row in chunk], tol, zoom_rounds)):
            out[j] = res
    return out


def oracle_member(
    p: HullPoint,
    tol: Tolerances = DEFAULT_TOL,
    zoom_rounds: int = 10,
) -> tuple[bool, OracleWitness]:
    """Numeric membership: minimize the witness objective, compare to X11.

    At a weight the quadratic constraint is concave in the second split,
    so its feasible splits form an interval with closed-form ends
    (:func:`_a2_bracket`); the search samples the second split only there,
    and the first split exactly from closed-form candidates.  A coarse pass
    takes :data:`GRID` weights with one round of :data:`ZOOM_WIDTH`
    second splits each; ``zoom_rounds=0`` stops there.  Then a nested
    bracket zoom exploits joint convexity: the value after minimizing out
    the splits is convex in the disjunction weight, so shrinking a sampled
    bracket around the argmin converges to the global optimum.  A final
    high-resolution zoom at the located weight polishes the witness.

    The search stops once a certificate decides the point (see the module
    docstring): ``member`` is true when the objective is at most X11 +
    oracle_tol, the witness's ``lower`` bounds the least objective from
    below (-inf where no sampled witness gave a bound), and a non-member is
    certified when ``lower`` exceeds X11 + oracle_tol.  The objective is
    therefore an upper bound that decides the point, not always the
    minimum; ``oracle_tol=0`` with X11 set to a value F asks whether the
    minimum is at most F.
    Intended for points with X12 and both indicators above eq_tol; the
    X12 = 0 face and the z = 0 edges are decided by the closed-form module.
    This is the batch of one of :func:`oracle_members`, which shares the
    numpy calls among many points.  On points no certificate decides,
    separable non-members outside the relaxation (rng 11) and relaxation
    points on the X12 = 0 face (rng 2), the search costs 0.08-0.10 ms per
    point in batches of 16 to 128, against 0.33-0.35 ms for one point alone
    (fastest of 15 calls; 2-core x86-64, Python 3.11, numpy 2.4).
    """
    (res,) = oracle_members([p], tol, zoom_rounds)
    if isinstance(res, PairhullError):
        raise res
    return res

