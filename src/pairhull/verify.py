"""Randomized verification campaigns shared by the CLI and the test suite,
and the samplers they draw from.

Each campaign is deterministic given its seed: sampling uses PCG64 streams
and every check reports the worst slack it observed together with the
first offending point, so failures reproduce exactly.  The samplers build
blocks of candidates on columns and keep, in draw order, the rows that
pass their checks.  The vertex and separable samplers fill each block as
one ``(7, m)`` table, one coordinate per row, and draw its uniform rows
with one ``rng.random`` call; that call consumes the stream as one
``uniform`` call per coordinate would, and ``uniform(0, s)`` is ``s``
times the same draw, so the samples are those of the column-by-column
draws bit for bit.  The cuts suite's non-members are built on columns
too, one cell per row, with their X11 placed between the relaxation
bound and the column :func:`~pairhull.families.x11_root` of the cell's
family.  The cuts suite certifies each cut by its minimum over the whole
vertex set in closed form, :func:`~pairhull.oracle.s2_minimum`, rather
than by sampling the set.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .columns import elementwise
from .core import (
    COORD_NAMES,
    DEFAULT_TOL,
    HullColumns,
    HullPoint,
    Tolerances,
    cut_value,
)
from .errors import PairhullError
from .families import FAMILY_BY_CELL, x11_root
from .hull import member_batch, member_hull
from .oracle import oracle_members, s2_minimum
from .regions import CODE_OF, Region, cell_codes, region_partition_audit
from .separation import oracle_proposal, separate_batch


@dataclass
class SuiteReport:
    """Outcome of one campaign: zero failures means the property held."""

    name: str
    trials: int
    failures: int
    worst_slack: float
    elapsed: float
    detail: str = ""
    offender: dict | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        state = "pass" if self.ok else "FAIL"
        line = (
            f"suite={self.name} trials={self.trials} failures={self.failures} "
            f"worst_slack={self.worst_slack:.3e} elapsed={self.elapsed:.2f}s [{state}]"
        )
        if self.detail:
            line += f" {self.detail}"
        return line


def _point_dict(p: HullPoint) -> dict:
    return dict(zip(COORD_NAMES, p.coords()))


def _row_dict(row: np.ndarray) -> dict:
    return _point_dict(HullPoint.from_coords(row))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


#: Upper end of the sampled decision values x1, x2.
XMAX = 2.0
#: Upper end of the sampled lifted products X11, X12, X22 of the separable
#: relaxation sampler.
LIFT_MAX = 4.0
#: Lower end of the sampled indicators of :func:`sample_ctilde_points`.
Z_FLOOR = 0.02
#: Least |slack| of the deciding piece (on a product system an X11 gap) at
#: the points of :func:`ctilde_margin_points`, which the oracle suite draws.
ORACLE_MARGIN = 1e-4
#: Cells of the non-members :func:`shrunken_nonmembers` builds: the cells
#: of the separating families.
SHRUNKEN_REGIONS = tuple(Region(tag) for tag in FAMILY_BY_CELL)
#: Least gap between the relaxation and the hull bound on X11 of a
#: shrunken non-member.
GAP_FLOOR = 1e-3
#: Most candidates a constructive sampler draws before it gives up.
MAX_DRAWS = 2_000_000


def _sample_s2_array(rng: np.random.Generator, n: int) -> np.ndarray:
    """Exact vertex-set samples as rows (x1, x2, X11, X12, X22, z1, z2): a
    uniform piece index, then uniform decision values in [0, XMAX] with the
    piece's zero pattern and binary indicators.  Piece 1 is the origin,
    piece 2 frees x1, piece 3 frees x2 and piece 4 frees both.  The rows
    are the transpose of one ``(7, n)`` table: the two uniform rows, drawn
    in one call, times the indicator rows, then their three products."""
    piece = rng.integers(1, 5, size=n)
    table = np.empty((7, n))
    x = table[:2]
    rng.random(out=x)
    x *= XMAX
    np.logical_or(piece == 2, piece == 4, out=table[5])
    np.greater_equal(piece, 3, out=table[6])
    x *= table[5:]
    np.multiply(x[0], x[0], out=table[2])
    np.multiply(x[0], x[1], out=table[3])
    np.multiply(x[1], x[1], out=table[4])
    return table.T


def _sample_hull_array(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Random convex combinations of k vertex samples, Dirichlet(1) weights.
    The vertex rows are copied to C order first: ``einsum`` rounds its sums
    according to the memory layout of its operands."""
    pts = np.ascontiguousarray(_sample_s2_array(rng, n * k)).reshape(n, k, 7)
    w = rng.dirichlet(np.ones(k), size=n)
    return np.einsum("nk,nkc->nc", w, pts)


#: Upper end of each coordinate in the box :func:`_sample_separable_array`
#: draws from, as a column that scales a ``(7, m)`` block of uniforms.
_SEPARABLE_BOX = np.array([XMAX, XMAX, LIFT_MAX, LIFT_MAX, LIFT_MAX, 1.0, 1.0])[:, None]


def _sample_separable_array(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform samples of the separable relaxation intersected with the
    sampling box, by rejection from the ambient box.  Each round draws one
    ``(7, m)`` block of uniforms, one coordinate per row, and keeps in draw
    order the columns that satisfy both perspective conditions."""
    rows = [np.empty((0, 7))]
    have = 0
    while have < n:
        m = max(2 * (n - have), 256)
        cand = rng.random((7, m))
        cand *= _SEPARABLE_BOX
        keep = (cand[2] * cand[5] >= cand[0] * cand[0]) & (
            cand[4] * cand[6] >= cand[1] * cand[1]
        )
        rows.append(cand.compress(keep, axis=1).T)
        have += int(keep.sum())
    return np.concatenate(rows)[:n]


def sample_ctilde_points(rng: np.random.Generator, n: int) -> list[HullPoint]:
    """Constructive samples of the separation input set: perspective bounds
    hold by construction, X12 is placed inside the Schur cap, so the sample
    is the first n rows of one block of max(2 n, 64) candidates (none for
    n <= 0)."""
    if n <= 0:
        return []
    m = max(2 * n, 64)
    x = rng.uniform(0.0, XMAX, (m, 2))
    z = rng.uniform(Z_FLOOR, 1.0, (m, 2))
    a = rng.uniform(0.0, 3.0, m)
    b = rng.uniform(0.0, 3.0, m)
    X11 = x[:, 0] ** 2 / z[:, 0] + a
    X22 = x[:, 1] ** 2 / z[:, 1] + b
    cap = np.sqrt(np.maximum((X11 - x[:, 0] ** 2) * (X22 - x[:, 1] ** 2), 0.0))
    t = rng.uniform(-0.999, 0.999, m)
    X12 = np.maximum(x[:, 0] * x[:, 1] + t * cap, 0.0)
    table = np.array([x[:, 0], x[:, 1], X11, X12, X22, z[:, 0], z[:, 1]])
    return list(HullColumns(table[:, :n]).points())


def ctilde_margin_points(
    rng: np.random.Generator, n: int, tol: Tolerances = DEFAULT_TOL
) -> list[HullPoint]:
    """Relaxation points whose membership decision has slack >= ORACLE_MARGIN
    on every inequality of the deciding piece (robust for oracle comparison)."""
    out: list[HullPoint] = []
    while len(out) < n:
        for p in sample_ctilde_points(rng, 4 * (n - len(out))):
            if min(p.z1, p.z2) < 0.05 or p.X12 < 0.05:
                continue
            rep = member_hull(p, tol)
            if rep.degenerate or rep.region is Region.NOT_COVERED:
                continue
            finite = [s for s in rep.slacks.values() if math.isfinite(s)]
            if not finite or min(abs(s) for s in finite) < ORACLE_MARGIN:
                continue
            out.append(p)
            if len(out) == n:
                break
    return out


def _ctilde_x11_bound(cols: HullColumns) -> np.ndarray:
    """Smallest X11 keeping each row of ``cols`` inside the separation input
    set: the perspective bound x1^2/z1, raised to the Schur bound where
    X22 - x2^2 > 1e-12."""
    x1sq = cols.x1 * cols.x1
    lo = x1sq / cols.z1
    gap2 = cols.X22 - cols.x2 * cols.x2
    wide = gap2 > 1e-12
    schur = x1sq + (cols.X12 - cols.x1 * cols.x2) ** 2 / np.where(wide, gap2, 1.0)
    return np.where(wide, np.maximum(lo, schur), lo)


def _shrunken_candidates(rng: np.random.Generator, cells: np.ndarray) -> HullColumns:
    """Columns of random candidates, row i aimed at the cell
    ``SHRUNKEN_REGIONS[cells[i]]``; X11 is left at 1, to be set later."""
    table = np.empty((len(COORD_NAMES), len(cells)))
    for code, region in enumerate(SHRUNKEN_REGIONS):
        idx = np.flatnonzero(cells == code)
        u = functools.partial(rng.uniform, size=idx.size)
        if region is Region.R8:
            z1 = u(0.55, 0.97)
            z2 = u(np.maximum(1.08 - z1, 0.35), 0.96)
            x1 = u(0.4, 1.8)
            x2 = u(0.4, 1.8)
            s = z1 + z2 - 1.0
            X12 = u(0.05, 0.85) * x1 * x2 * s / (z1 * z2)
            X22 = (x2 * x2 + u(0.02, 0.5)) / z2
        elif region is Region.R5:
            x1 = u(0.4, 2.0)
            x2 = u(0.02, 0.9)
            z1 = u(0.15, 1.0)
            z2 = u(0.05, 1.0)
            X12 = (x1 * x2 / z1 + 0.01) * u(1.05, 2.5)
            X22 = np.maximum(X12 * x2 / x1 * u(1.05, 2.0), x2 * x2 / z2 + 0.05)
            X22 = np.maximum(X22, x2 * x2 + 0.05)
        else:  # R3 / R4: X12 x2 > X22 x1 with the matching indicator order
            if region is Region.R3:
                z1 = u(0.05, 0.7)
                z2 = u(np.minimum(z1 + 0.05, 0.99), 1.0)
            else:
                z2 = u(0.05, 0.95)
                z1 = u(z2, 1.0)
            x1 = u(0.02, 0.8)
            x2 = u(0.4, 2.0)
            X22 = x2 * x2 / z2 + u(0.05, 1.5)
            X22 = np.maximum(X22, x2 * x2 + 0.05)
            X12 = X22 * x1 / x2 * u(1.05, 3.0) + u(0.01, 0.2)
        table[:, idx] = np.broadcast_arrays(x1, x2, 1.0, X12, X22, z1, z2)
    return HullColumns(table)


def _shrunken_rows(rng: np.random.Generator, n: int, tol: Tolerances) -> np.ndarray:
    """The ``(n, 7)`` array of :func:`shrunken_nonmembers`."""
    families = np.array([FAMILY_BY_CELL[r.value] for r in SHRUNKEN_REGIONS])
    targets = np.array([CODE_OF[r] for r in SHRUNKEN_REGIONS])
    found = [np.empty((0, len(COORD_NAMES)))]
    have = draws = 0
    while have < n and draws < MAX_DRAWS:
        # about three in four candidates are kept
        m = min(max(3 * (n - have) // 2, 256), MAX_DRAWS - draws)
        draws += m
        cells = rng.integers(len(SHRUNKEN_REGIONS), size=m)
        cols = _shrunken_candidates(rng, cells)
        # a zero X11 slope divides by zero: hi is inf or NaN and the row is dropped
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = _ctilde_x11_bound(cols)
            hi = np.empty(m)
            for family in dict.fromkeys(families):
                idx = np.flatnonzero(families[cells] == family)
                hi[idx] = elementwise(x11_root)(family, cols.take(idx))
            cols.X11[:] = lo + rng.uniform(0.1, 0.9, m) * (hi - lo)
        # X11 above lo keeps every row in the box and the separation input set
        idx = np.flatnonzero(np.isfinite(hi) & (hi - lo > GAP_FLOOR))
        idx = idx[cell_codes(cols.take(idx), tol) == targets[cells[idx]]][: n - have]
        found.append(cols.table[:, idx].T)
        have += idx.size
    if have < n:
        raise RuntimeError(f"only built {have}/{n} shrunken non-members")
    return np.concatenate(found)


def shrunken_nonmembers(
    rng: np.random.Generator, n: int, tol: Tolerances = DEFAULT_TOL
) -> list[HullPoint]:
    """Relaxation points strictly below their cell's hull bound on X11.

    Each round draws a block of candidates, one of the cells R3, R4, R5, R8
    per row uniformly, and places X11 uniformly in the middle 80% of the
    gap between the relaxation bound and the hull bound, which leaves the
    cell unchanged (no cell involves X11).  A candidate is kept, in draw
    order, when its gap exceeds GAP_FLOOR and it lies in its target cell,
    which puts it inside the separation input set too.  Raises
    :class:`RuntimeError` when MAX_DRAWS candidates give fewer than n points.
    """
    return list(HullColumns(_shrunken_rows(rng, n, tol).T).points())


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def run_partition_suite(
    trials: int, seed: int, tol: Tolerances = DEFAULT_TOL
) -> SuiteReport:
    """Disjointness and coverage of the cells on relaxation samples."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    rows = _sample_separable_array(rng, trials)
    audit = region_partition_audit(rows, tol)
    failures = audit.n_multi + audit.n_none
    offender = None
    if audit.first_multi is not None:
        i, matches = audit.first_multi
        offender = {"point": _row_dict(rows[i]), "matches": matches}
    elif audit.first_none is not None:
        offender = {"point": _row_dict(rows[audit.first_none]), "matches": []}
    return SuiteReport(
        "partition",
        trials,
        failures,
        0.0,
        time.perf_counter() - t0,
        detail=f"counts={audit.counts}",
        offender=offender,
    )


def run_hull_suite(trials: int, seed: int, tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Every convex combination of vertex samples must be a member."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, 9, size=trials)
    counts = [int(np.sum(ks == k)) for k in range(1, 9)]
    groups = [_sample_hull_array(rng, c, k) for k, c in enumerate(counts, 1) if c]
    rows = np.concatenate(groups) if groups else np.empty((0, len(COORD_NAMES)))
    batch = member_batch(rows, tol)
    if batch.errors:
        raise batch.errors[min(batch.errors)]
    finite = batch.slacks[np.isfinite(batch.slacks)]
    worst = float(finite.min()) if finite.size else math.inf
    bad = np.flatnonzero(~batch.member)
    offender = None
    if bad.size:
        rep = batch.report(int(bad[0]))
        offender = {"point": _row_dict(rows[bad[0]]), "violated": list(rep.violated)}
    return SuiteReport(
        "hull", trials, bad.size, worst, time.perf_counter() - t0, offender=offender
    )


#: A cut of the cuts suite must be below -VIOLATION_FLOOR at its query, and
#: within VIOLATION_FLOOR of zero at its touch point and in its minimum over
#: the vertex set (a supporting cut touches the set).
VIOLATION_FLOOR = 1e-9
#: Least minimum over the vertex set a cut of the cuts suite may have.
SOUNDNESS_FLOOR = -1e-8


def run_cuts_suite(trials: int, seed: int, tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Soundness and violation of cuts on constructed non-members.

    A query fails when its separation raised a :class:`PairhullError`, when
    it is called inside, when its cut is not below -VIOLATION_FLOOR at it or
    not within VIOLATION_FLOOR of zero at the touch point, or when the
    touch point is not a member; these checks run on columns, and the first
    failing query is the offender.  Any other error of a separation, and the
    error of the membership of a touch point that is asked, is raised.
    Each kept cut's minimum over the vertex set,
    :func:`~pairhull.oracle.s2_minimum` on columns, must lie in
    [SOUNDNESS_FLOOR, VIOLATION_FLOOR]: below, the cut cuts off part of the
    hull; above, it does not support it.  The worst
    slack is the least of these minima.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    rows = _shrunken_rows(rng, trials, tol)
    sep = separate_batch(rows, tol)
    made = np.flatnonzero(sep.cuts())
    touch = member_batch(sep.touch[made], tol)
    value = elementwise(cut_value)
    with np.errstate(all="ignore"):  # the rows without a cut hold NaN
        at_query = value(sep.coeffs.T, sep.constant, HullColumns(rows.T))
        at_touch = value(sep.coeffs.T, sep.constant, HullColumns(sep.touch.T))
    failed = (
        sep.inside
        | (at_query >= -VIOLATION_FLOOR)
        | (np.abs(at_touch) > VIOLATION_FLOOR)
    )
    failed[list(sep.errors)] = True
    raised = {i: e for i, e in sep.errors.items() if not isinstance(e, PairhullError)}
    raised.update(
        (int(made[k]), e) for k, e in touch.errors.items() if not failed[made[k]]
    )
    if raised:
        raise raised[min(raised)]
    failed[made[~touch.member]] = True
    bad = np.flatnonzero(failed)
    failures = bad.size
    offender = None
    if bad.size:
        i = int(bad[0])
        offender = {"point": _row_dict(rows[i])}
        if i in sep.errors:
            offender["error"] = str(sep.errors[i])
        else:
            offender["inside"] = bool(sep.inside[i])
    kept = np.flatnonzero(~failed)
    with np.errstate(all="ignore"):  # branches a row does not take divide by 0
        low = elementwise(s2_minimum)(HullColumns(sep.coeffs[kept].T), sep.constant[kept])
    wrong = np.flatnonzero((low < SOUNDNESS_FLOOR) | (low > VIOLATION_FLOOR))
    failures += wrong.size
    if offender is None and wrong.size:
        i = int(wrong[0])
        offender = {"point": _row_dict(rows[kept[i]]), "cut_min_on_s2": float(low[i])}
    return SuiteReport(
        "cuts",
        trials,
        failures,
        float(low.min(initial=math.inf)),
        time.perf_counter() - t0,
        detail=f"cuts={kept.size}",
        offender=offender,
    )


def run_oracle_suite(trials: int, seed: int, tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Agreement of the closed-form decision with the numeric oracle.

    The oracle gets the closed form's proposals
    (:func:`~pairhull.separation.oracle_proposal`), checks them and searches
    the points they leave undecided.  The slack of a point is its oracle
    decision margin, signed so that it is negative when the oracle
    disagrees with the closed form: X11 + oracle_tol - f where the closed
    form says member, its negation where it says non-member (an infinite
    objective f gives -inf or +inf).  A point the oracle cannot decide (its
    :class:`PairhullError`) is a failure with no slack, and its error is
    the offender's.  The detail counts the points each way decided them, a
    checked witness, a checked cut or the search, and the search's
    uncertified non-members, whose lower bound never exceeded X11 +
    oracle_tol before the search ran out.  An offender that disagrees with
    the closed form carries its lower bound, whether it was certified and
    what decided it.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    pts = ctilde_margin_points(rng, trials, tol)
    reps = [member_hull(p, tol) for p in pts]
    proposals = [oracle_proposal(p, rep, tol) for p, rep in zip(pts, reps)]
    failures = 0
    offender = None
    n_member = n_uncertified = 0
    decided = dict.fromkeys(("witness", "cut", "search"), 0)
    worst = math.inf
    for p, rep, res in zip(pts, reps, oracle_members(pts, tol, proposals=proposals)):
        n_member += int(rep.member)
        if isinstance(res, PairhullError):
            failures += 1
            if offender is None:
                offender = {"point": _point_dict(p), "error": str(res)}
            continue
        dec, wit = res
        decided[wit.decided_by] += 1
        certified = dec or wit.lower > p.X11 + tol.oracle_tol
        n_uncertified += not certified
        margin_in = p.X11 + tol.oracle_tol - wit.objective
        worst = min(worst, margin_in if rep.member else -margin_in)
        if dec != rep.member:
            failures += 1
            if offender is None:
                offender = {
                    "point": _point_dict(p),
                    "closed_form": rep.member,
                    "oracle": dec,
                    "objective": None if math.isinf(wit.objective) else wit.objective,
                    "lower": None if math.isinf(wit.lower) else wit.lower,
                    "certified": certified,
                    "decided_by": wit.decided_by,
                    "slacks": rep.slacks,
                }
    counts = " ".join(f"{k}={v}" for k, v in decided.items())
    return SuiteReport(
        "oracle",
        trials,
        failures,
        worst,
        time.perf_counter() - t0,
        detail=(
            f"members={n_member} nonmembers={trials - n_member} {counts}"
            f" uncertified={n_uncertified}"
        ),
        offender=offender,
    )


SUITES = {
    "partition": run_partition_suite,
    "hull": run_hull_suite,
    "cuts": run_cuts_suite,
    "oracle": run_oracle_suite,
}
