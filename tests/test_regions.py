import dataclasses
import json

import numpy as np
import pytest

import pairhull.core
from pairhull import (
    DEFAULT_TOL,
    HullPoint,
    PartitionAuditReport,
    Region,
    Tolerances,
    classify,
    region_partition_audit,
    validate_point,
)
from pairhull.errors import NotInAmbientBox
from pairhull import regions
from pairhull.columns import elementwise
from pairhull.core import HullColumns, separable_holds
from pairhull.regions import region_closure_contains
from pairhull.verify import (
    _sample_hull_array,
    _sample_separable_array,
    _shrunken_rows,
    run_partition_suite,
    sample_ctilde_points,
)
from reference import (
    FACE_KINDS,
    face_pairs,
    r6_polynomial_sides,
    r7_polynomial_sides,
    region_matches,
    u2_cells_by_system,
)


class TestClassifyExamples:
    def test_balanced_midpoint_is_r1(self):
        p = HullPoint(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
        assert classify(p) is Region.R1

    def test_worked_nonmember_is_r4(self):
        p = HullPoint(0.1, 1.0, 1.0, 1.2, 2.5, 0.5, 0.5)
        assert classify(p) is Region.R4

    def test_origin_is_r1_via_zero_cross_moment(self):
        assert classify(HullPoint(0, 0, 0, 0, 0, 0, 0)) is Region.R1

    def test_zero_indicators_classify_to_r1(self):
        # both with and without a positive cross moment
        assert classify(HullPoint(0, 1, 4, 0.5, 1.5, 0.0, 1.0)) is Region.R1
        assert classify(HullPoint(1, 0, 2, 0.0, 0.0, 0.5, 0.0)) is Region.R1
        assert classify(HullPoint(1, 0, 3, 1.2, 1.0, 0.5, 0.0)) is Region.R1


class TestCodeMap:
    def test_codes_round_trip_through_cells(self):
        assert len(regions.CODE_OF) == len(Region)
        for tag in Region:
            assert regions.CELLS[regions.CODE_OF[tag]] is tag
        assert regions.CODE_OF[Region.NOT_COVERED] == regions.NOT_COVERED_CODE


class TestPartitionAudit:
    def test_uniform_samples_have_no_violations(self):
        rng = np.random.default_rng(41)
        rows = _sample_separable_array(rng, 2000)
        report = region_partition_audit(rows)
        assert report.ok
        assert report.audited == len(rows)
        assert sum(report.counts.values()) == len(rows)

    def test_single_vertex_point_matches_exactly_one(self):
        p = HullPoint(1.2, 0.7, 1.44, 0.84, 0.49, 1.0, 1.0)
        assert region_matches(p) == [Region.R1]
        report = region_partition_audit(np.array([p.coords()]))
        assert report.ok and report.counts == {"R1": 1}

    def test_empty_array_gives_empty_report(self):
        report = region_partition_audit(np.empty((0, 7)))
        assert report.total == 0 and report.ok and report.counts == {}

    def test_zero_trials_give_an_empty_passing_suite(self):
        report = run_partition_suite(0, 1)
        assert report.ok and report.trials == 0 and report.offender is None
        assert report.detail == "counts={}"
        rng = np.random.default_rng(1)
        assert _sample_separable_array(rng, 0).shape == (0, 7)
        assert rng.random() == np.random.default_rng(1).random()  # nothing drawn


AUDIT_TOLS = [DEFAULT_TOL, Tolerances(1e-2, 1e-2, 1e-2), Tolerances(0.3, 0.3, 0.3)]


def _audit_rows(n: int, seed: int) -> np.ndarray:
    """Separable samples with every fourth row replaced by a point of the
    sampling box, most of them outside the separable relaxation."""
    rng = np.random.default_rng(seed)
    rows = _sample_separable_array(rng, n) if n else np.empty((0, 7))
    rows[::4] = rng.uniform(0.0, 1.0, (n, 7))[::4] * [2.0, 2.0, 4.0, 4.0, 4.0, 1.0, 1.0]
    return rows


def _reference_audit(points, tol) -> PartitionAuditReport:
    """The audit one sample at a time."""
    ref = PartitionAuditReport(total=len(points))
    for i, p in enumerate(points):
        tag = classify(p, tol).value
        ref.counts[tag] = ref.counts.get(tag, 0) + 1
        if not separable_holds(p, tol):
            continue
        ref.audited += 1
        matches = [m.value for m in region_matches(p, tol)]
        if not matches:
            ref.n_none += 1
            if ref.first_none is None:
                ref.first_none = i
        elif len(matches) > 1:
            ref.n_multi += 1
            if ref.first_multi is None:
                ref.first_multi = (i, matches)
    return ref


def _assert_audit_matches_reference(rows, tol):
    got = region_partition_audit(rows, tol)
    ref = _reference_audit([HullPoint.from_coords(r) for r in rows], tol)
    assert got == ref
    assert list(got.counts.items()) == list(ref.counts.items())
    json.dumps(dataclasses.asdict(got))  # plain ints throughout
    return ref


#: Fewest rows decided on columns that puts a whole batch on one side of
#: the row-by-row or columns switch.
SIDES = {"rows": 10**9, "columns": 1}


class TestColumnAudit:
    @pytest.mark.parametrize("side", list(SIDES))
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 10_000])
    @pytest.mark.parametrize("tol", AUDIT_TOLS, ids=["default", "1e-2", "0.3"])
    def test_equals_the_row_by_row_audit(self, tol, n, side, monkeypatch):
        monkeypatch.setattr(pairhull.core, "COLUMN_MIN_ROWS", SIDES[side])
        ref = _assert_audit_matches_reference(_audit_rows(n, seed=3 + n), tol)
        if n == 10_000 and tol.eq_tol == 0.3:
            # of several violations of each kind the first is recorded
            assert ref.n_multi > 1 and ref.n_none > 1
            assert ref.audited < n

    @pytest.mark.parametrize("tol", AUDIT_TOLS, ids=["default", "1e-2", "0.3"])
    def test_rows_past_column_max_are_audited_row_by_row(self, tol):
        rows = _audit_rows(100, seed=8)
        rows[10, 3] = 1e3 * 1e64  # X12
        rows[50, 4] = 1e30 * 1e64  # X22
        # (x, X) -> (t x, t^2 X): the squares of the cell systems overflow
        # to inf, and the reference's scalar classify raises no OverflowError
        for lo, t in ((60, 1e80), (80, 1e120)):
            rows[lo : lo + 10, :2] *= t
            rows[lo : lo + 10, 2:5] *= t * t
        _assert_audit_matches_reference(rows, tol)

    @pytest.mark.parametrize("side", list(SIDES))
    @pytest.mark.parametrize("n", [5, 200])
    def test_first_row_outside_the_box_raises_its_scalar_error(self, n, side, monkeypatch):
        monkeypatch.setattr(pairhull.core, "COLUMN_MIN_ROWS", SIDES[side])
        rows = _audit_rows(n, seed=9)
        rows[n - 3, 5] = 1.5  # z1
        rows[n - 1, 0] = -1.0  # x1
        with pytest.raises(NotInAmbientBox) as scalar:
            validate_point(HullPoint.from_coords(rows[n - 3]))
        with pytest.raises(NotInAmbientBox) as exc:
            region_partition_audit(rows)
        assert str(exc.value) == str(scalar.value) == "z1=1.5 outside [0, 1]"


class TestDisjointnessAndCoverage:
    def test_each_sample_matches_exactly_one_cell(self):
        rng = np.random.default_rng(99)
        for row in _sample_separable_array(rng, 3000):
            p = HullPoint.from_coords(row)
            matches = region_matches(p)
            assert len(matches) == 1, (p, matches)
            assert classify(p) is matches[0]

    def test_classification_is_deterministic(self):
        rng = np.random.default_rng(5)
        pts = [HullPoint.from_coords(r) for r in _sample_separable_array(rng, 200)]
        tags = [classify(p) for p in pts]
        assert tags == [classify(p) for p in pts]


class TestClosures:
    def test_cell_lies_in_its_closure(self):
        rng = np.random.default_rng(17)
        for row in _sample_separable_array(rng, 1000):
            p = HullPoint.from_coords(row)
            tag = classify(p)
            if tag is Region.NOT_COVERED:
                continue
            assert region_closure_contains(p, tag)

    def test_indicator_edge_points_lie_in_their_closure(self):
        # separable samples with one or both indicators (and their decision
        # values) moved onto the zero edge, where classify answers R1
        rng = np.random.default_rng(18)
        pts = [HullPoint(0.0, 0.8, 0.5, 0.3, 1.5, 0.0, 0.6)]
        for i, row in enumerate(_sample_separable_array(rng, 600)):
            x1, x2, X11, X12, X22, z1, z2 = map(float, row)
            if i % 3 != 1:
                x1, z1 = 0.0, (0.0 if i % 2 else 5e-10)
            if i % 3 != 0:
                x2, z2 = 0.0, 0.0
            pts.append(HullPoint(x1, x2, X11, X12, X22, z1, z2))
        for p in pts:
            tag = classify(p)
            assert tag is Region.R1, p
            assert region_closure_contains(p, tag), p


class TestU2Sides:
    """The square-root sides of cells R6 and R7 decide as the paper's
    polynomials wherever both clear the band."""

    def test_verdicts_agree_with_the_polynomials(self):
        e = DEFAULT_TOL.eq_tol
        rows = np.concatenate([_sample_separable_array(np.random.default_rng(3), 300000)] + [
            _sample_hull_array(np.random.default_rng(200 + k), 5000, k) for k in range(1, 9)
        ])
        cols = HullColumns.of_rows(rows)
        with np.errstate(all="ignore"):
            u2 = cols.take(elementwise(regions._in_u2)(cols, DEFAULT_TOL, False))
            old6, new6, old7, new7 = (np.subtract(*sides(u2)) for sides in (
                r6_polynomial_sides, elementwise(regions._r6_sides),
                r7_polynomial_sides, elementwise(regions._r7_sides),
            ))
        clear6 = (abs(old6) > e) & (abs(new6) > e)
        assert clear6.sum() > 20000
        assert ((old6 >= 0) == (new6 >= 0))[clear6].all()
        # outside R6 only the root of the square-root form bounds R7
        clear7 = clear6 & (new6 < 0) & (abs(old7) > e) & (abs(new7) > e)
        assert clear7.sum() > 8000
        assert ((old7 > 0) == (new7 > 0))[clear7].all()


@pytest.fixture(scope="module")
def mask_cases():
    """Rows of every sampler and of the exact faces down to delta = 1e-6,
    with the scalar open and closed systems of each row and its cell."""
    rows = [_sample_hull_array(np.random.default_rng(100 + k), 1250, k) for k in range(1, 9)]
    rows.append(_sample_separable_array(np.random.default_rng(3), 10000))
    rows.append(_shrunken_rows(np.random.default_rng(6), 4000, DEFAULT_TOL))
    rows.append(np.array([p.coords() for p in sample_ctilde_points(np.random.default_rng(2), 4000)]))
    deltas = ("1e-2", "1e-3", "1e-4", "1e-5", "1e-6")
    for kind in FACE_KINDS:
        rows += face_pairs(np.random.default_rng(0), 100, kind, deltas)[:2]
    rows = np.concatenate(rows)
    systems = {
        closed: np.array([
            [pred(p, DEFAULT_TOL, closed) for _, pred in regions._PREDICATES[:5]]
            + list(u2_cells_by_system(p, DEFAULT_TOL, closed))
            for p in map(HullPoint.from_coords, rows)
        ]).T
        for closed in (False, True)
    }
    cells = np.array([
        regions.CODE_OF[classify(HullPoint.from_coords(row))] for row in rows
    ])
    return rows, systems, cells


class TestCellMasks:
    """cell_masks splits U2 once per row; its masks are the scalar systems."""

    @pytest.mark.parametrize("size", [1, 63, 64, 4000])
    def test_masks_are_the_scalar_systems(self, mask_cases, size):
        rows, systems, cells = mask_cases
        assert set(range(8)) <= set(cells.tolist())  # every cell
        for lo in range(0, len(rows), size):
            cols = HullColumns.of_rows(rows[lo : lo + size])
            with np.errstate(all="ignore"):
                masks = regions.cell_masks(cols, DEFAULT_TOL)
                closures = regions.cell_masks(cols, DEFAULT_TOL, closed=True)
            hi = lo + len(cols)
            assert (masks == systems[False][:, lo:hi]).all(), lo
            assert (closures == systems[True][:, lo:hi]).all(), lo
            assert (regions.first_cells(masks) == cells[lo:hi]).all(), lo

    def test_views_and_closures_read_the_split(self, mask_cases):
        rows, systems, _ = mask_cases
        for i in range(0, len(rows), 7):
            p = HullPoint.from_coords(rows[i])
            for k, (tag, pred) in enumerate(regions._PREDICATES):
                assert pred(p, DEFAULT_TOL) == systems[False][k, i], (i, tag)
                assert region_closure_contains(p, tag) == systems[True][k, i], (i, tag)
