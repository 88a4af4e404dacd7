import functools
import math

import numpy as np
import pytest

from pairhull import (
    DEFAULT_TOL,
    HullPoint,
    Region,
    classify,
    in_relaxation_ctilde,
    member_batch,
    member_hull,
    piece_slacks,
    Tolerances,
    classify_batch,
)
from pairhull.errors import NotInAmbientBox
from pairhull.separation import separate_batch
from pairhull.verify import (
    _point_dict,
    _sample_hull_array,
    _sample_separable_array,
    run_hull_suite,
)
from reference import (
    FACE_KINDS,
    face_pairs,
    gram_boundary_blocks,
    persp_relaxation_member,
    psd3_by_minors,
    rankone_member,
)


def psd_by_char_coefficients(m: np.ndarray, band: float = 1e-9) -> bool:
    """Independent PSD oracle: all elementary symmetric functions of the
    eigenvalues (sums of principal minors) must be nonnegative."""
    e1 = np.trace(m)
    e2 = (
        m[0, 0] * m[1, 1]
        - m[0, 1] ** 2
        + m[0, 0] * m[2, 2]
        - m[0, 2] ** 2
        + m[1, 1] * m[2, 2]
        - m[1, 2] ** 2
    )
    e3 = np.linalg.det(m)
    return e1 >= -band and e2 >= -band and e3 >= -band


def as_matrix(m6):
    a11, a12, a13, a22, a23, a33 = m6
    return np.array([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])


class TestSingleVariableHull:
    """The single-variable hull {X z >= x^2} is the face z2 = 0 of the pair
    hull (and, swapped, the face z1 = 0)."""

    @staticmethod
    def _faces(x, X, z):
        return (
            member_hull(HullPoint(x, 0.0, X, 0.0, 0.0, z, 0.0)).member,
            member_hull(HullPoint(0.0, x, 0.0, 0.0, X, 0.0, z)).member,
        )

    def test_vertex(self):
        assert self._faces(1.0, 1.0, 1.0) == (True, True)

    def test_boundary(self):
        assert self._faces(1.0, 2.0, 0.5) == (True, True)

    def test_outside(self):
        assert self._faces(1.0, 1.0, 0.5) == (False, False)


class TestPsdByMinors:
    def test_identity(self):
        assert psd3_by_minors((1, 0, 0, 1, 0, 1))

    def test_indefinite_trailing_block(self):
        assert not psd3_by_minors((1, 0, 0, 1, 2, 1))

    def test_zero_corner_with_nonzero_row_is_rejected(self):
        assert not psd3_by_minors((0, 0.5, 0, 1, 0, 1))

    def test_zero_corner_falls_back_to_trailing_block(self):
        assert psd3_by_minors((0, 0, 0, 1, 0.5, 1))
        assert not psd3_by_minors((0, 0, 0, 1, 2, 1))

    def test_gram_matrices_and_their_perturbations(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            g = rng.normal(size=(3, 3))
            m = g.T @ g
            m /= m[0, 0]
            m6 = (m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2])
            assert psd3_by_minors(m6)
            assert psd_by_char_coefficients(as_matrix(m6))
            lam_min = float(np.linalg.eigvalsh(m).min())
            eps = lam_min + 1e-4
            m6_down = (
                m[0, 0] - eps,
                m[0, 1],
                m[0, 2],
                m[1, 1] - eps,
                m[1, 2],
                m[2, 2] - eps,
            )
            assert not psd3_by_minors(m6_down)
            assert not psd_by_char_coefficients(as_matrix(m6_down))

    def test_singular_gram_boundary_blocks(self):
        # rank-two Gram blocks: the least eigenvalue is zero up to rounding,
        # the minors accept the block and reject it shifted down by 1e-6
        for m in gram_boundary_blocks(np.random.default_rng(64), 200):
            assert abs(float(np.linalg.eigvalsh(m)[0])) <= 1e-12 * float(np.abs(m).max())
            m6 = (m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2])
            assert psd3_by_minors(m6)
            down = m - 1e-6 * np.eye(3)
            assert not psd3_by_minors((down[0, 0], m[0, 1], m[0, 2], down[1, 1], m[1, 2], down[2, 2]))

    def test_agreement_with_char_coefficient_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(3000):
            m = rng.normal(size=(3, 3))
            m = 0.5 * (m + m.T)
            m[0, 0] = 1.0
            lam_min = float(np.linalg.eigvalsh(m).min())
            if abs(lam_min) <= 1e-9:
                continue
            m6 = (1.0, m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2])
            assert psd3_by_minors(m6) == (lam_min > 0)
            checked += 1
        assert checked > 2500


class TestMemberHull:
    def test_balanced_midpoint_member(self):
        rep = member_hull(HullPoint(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5))
        assert rep.member and rep.region is Region.R1 and rep.violated == ()

    def test_worked_nonmember(self):
        rep = member_hull(HullPoint(0.1, 1.0, 1.0, 1.2, 2.5, 0.5, 0.5))
        assert not rep.member
        assert rep.region is Region.R4
        assert rep.violated == ("II.product",)

    def test_cross_moment_face_member(self):
        rep = member_hull(HullPoint(1.0, 0.0, 2.0, 0.0, 0.0, 0.5, 0.0))
        assert rep.member and rep.region is Region.R1

    def test_invalid_domain_raises(self):
        with pytest.raises(NotInAmbientBox):
            member_hull(HullPoint(-1.0, 0.0, 1.0, 0.0, 1.0, 0.5, 0.5))

    def test_indicator_edge_with_cross_moment(self):
        # X11 * (X22 - x2^2/z2) >= X12^2 decides the z1 = 0 edge
        inside = HullPoint(0.0, 1.0, 4.0, 0.5, 1.5, 0.0, 1.0)
        outside = HullPoint(0.0, 1.0, 1.0, 1.2, 2.5, 0.0, 0.5)
        assert member_hull(inside).member
        rep = member_hull(outside)
        assert not rep.member and rep.violated == ("edge.product",)
        assert in_relaxation_ctilde(outside)

    def test_w_value_reported_in_r8(self):
        p = HullPoint(0.7575, 0.7347, 0.8796, 0.1682, 1.2242, 0.7469, 0.5693)
        rep = member_hull(p)
        assert rep.region is Region.R8
        assert rep.W is not None and rep.W > 0

    def test_degenerate_w_falls_back_to_oracle(self, monkeypatch):
        # W = 0 requires x2^2 = X22 (1 - z1), which provably lands in R6;
        # force the R8 route to exercise the numeric guard.
        from pairhull import hull as hull_mod
        from pairhull.errors import NumericallyDegenerate

        z1, z2, x1, x2 = 0.7, 0.6, 0.3, 1.0
        X22 = x2 * x2 * (1 - 1e-13) / (1 - z1)
        X12 = 0.5 * x1 * x2 * (z1 + z2 - 1) / (z1 * z2)
        p = HullPoint(x1, x2, 5.0, X12, X22, z1, z2)
        monkeypatch.setattr(hull_mod, "classify", lambda q, tol: Region.R8)
        with pytest.raises(NumericallyDegenerate):
            piece_slacks(p, Region.R8)
        rep = member_hull(p)
        assert rep.degenerate and rep.W is None
        assert rep.member  # X11 = 5 is far above the piece bound here

    def test_uncovered_point_outside_every_closure_reports_part_one(self, monkeypatch):
        # far from unit scale an uncovered corner can lie in no cell's
        # closure; the perspective bounds of part I hold on the whole hull
        # and decide it.  Force that route at unit scale.
        from pairhull import hull as hull_mod

        p = HullPoint(0.3, 0.4, 0.1, 0.2, 0.6, 0.5, 0.5)
        monkeypatch.setattr(hull_mod, "classify", lambda q, tol: Region.NOT_COVERED)
        monkeypatch.setattr(hull_mod, "_cell_systems", lambda q, tol, closed: (False,) * 8)
        rep = member_hull(p)
        assert (rep.member, rep.region, rep.violated) == (False, Region.NOT_COVERED, ("I.persp1",))
        assert list(rep.slacks) == ["I.persp1", "I.persp2"]


class TestRelaxationOrdering:
    def test_worked_example_exhibits_the_gap(self):
        p = HullPoint(0.1, 1.0, 1.0, 1.2, 2.5, 0.5, 0.5)
        assert persp_relaxation_member(p)
        assert rankone_member(p)
        assert in_relaxation_ctilde(p)
        assert not member_hull(p).member

    def test_members_pass_all_relaxations(self):
        rng = np.random.default_rng(23)
        for k in (1, 2, 4, 8):
            for row in _sample_hull_array(rng, 300, k):
                p = HullPoint.from_coords(row)
                assert member_hull(p).member
                assert persp_relaxation_member(p)
                assert rankone_member(p)
                assert in_relaxation_ctilde(p)

    def test_singular_block_completions_are_members(self):
        # the completion z2 = 1 of a singular PSD moment block
        # [[z1, x1, x2], [x1, X11, X12], [x2, X12, X22]]; the first is the
        # touch point the retired PSD support cut built from rng 66
        rows = np.array([
            (m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2], m[0, 0], 1.0)
            for m in gram_boundary_blocks(np.random.default_rng(66), 50)
        ])
        batch = member_batch(rows)
        assert batch.member.all() and not batch.errors
        for i, row in enumerate(rows):
            p = HullPoint.from_coords(row)
            rep = member_hull(p)
            assert rep.member and batch.report(i).region is rep.region
            assert persp_relaxation_member(p)
            assert rankone_member(p)
            assert in_relaxation_ctilde(p)

    def test_persp_relaxation_examples(self):
        assert persp_relaxation_member(HullPoint(1, 1, 1, 1, 1, 1, 1))
        assert not persp_relaxation_member(HullPoint(1, 1, 1, 1, 1, 0.5, 0.5))

    def test_rankone_examples(self):
        assert rankone_member(HullPoint(1, 1, 1, 1, 1, 1, 1))
        assert rankone_member(HullPoint(0, 0, 0, 0, 0, 0, 0))
        assert not rankone_member(HullPoint(2, 0, 1, 0, 0, 1, 0))


class TestConvexityProbe:
    def test_midpoints_of_members_are_members(self):
        rng = np.random.default_rng(31)
        a = _sample_hull_array(rng, 400, 3)
        b = _sample_hull_array(rng, 400, 5)
        mid = 0.5 * (a + b)
        for row in mid:
            assert member_hull(HullPoint.from_coords(row)).member


class TestClosureConsistency:
    def test_adjacent_piece_agrees_at_cell_crossings(self):
        # walk the segment between members in different cells; at the
        # crossing both piecewise descriptions must accept the point
        rng = np.random.default_rng(53)
        a = _sample_hull_array(rng, 300, 2)
        b = _sample_hull_array(rng, 300, 6)
        checked = 0
        for ra, rb in zip(a, b):
            pa, pb = HullPoint.from_coords(ra), HullPoint.from_coords(rb)
            ta, tb = classify(pa), classify(pb)
            if ta is tb:
                continue
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                pm = HullPoint.from_coords((1 - mid) * ra + mid * rb)
                if classify(pm) is ta:
                    lo = mid
                else:
                    hi = mid
            boundary = HullPoint.from_coords((1 - lo) * ra + lo * rb)
            other = classify(HullPoint.from_coords((1 - hi) * ra + hi * rb))
            for tag in (ta, other):
                try:
                    slacks = piece_slacks(boundary, tag)
                except Exception:
                    continue
                finite = [v for v in slacks.values() if math.isfinite(v)]
                assert min(finite) >= -1e-6, (boundary, tag, slacks)
            checked += 1
        assert checked >= 20


def _reference_hull_suite(trials: int, seed: int, tol: Tolerances):
    """The hull campaign one member_hull call at a time: failures, worst
    finite slack and the first non-member."""
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, 9, size=trials)
    failures, worst, offender = 0, math.inf, None
    for k in range(1, 9):
        count = int(np.sum(ks == k))
        if count == 0:
            continue
        for row in _sample_hull_array(rng, count, k):
            p = HullPoint.from_coords(row)
            rep = member_hull(p, tol)
            finite = [s for s in rep.slacks.values() if math.isfinite(s)]
            if finite:
                worst = min(worst, min(finite))
            if not rep.member:
                failures += 1
                if offender is None:
                    offender = {"point": _point_dict(p), "violated": list(rep.violated)}
    return failures, worst, offender


class TestHullSuite:
    @pytest.mark.parametrize("trials, seed", [(0, 3), (1, 4), (40, 5), (63, 6), (3000, 7)])
    @pytest.mark.parametrize(
        "tol", [DEFAULT_TOL, Tolerances(0.3, 0.3, 0.3)], ids=["default", "0.3"]
    )
    def test_equals_the_row_by_row_campaign(self, tol, trials, seed):
        failures, worst, offender = _reference_hull_suite(trials, seed, tol)
        report = run_hull_suite(trials, seed, tol)
        assert report.failures == failures
        assert report.worst_slack.hex() == worst.hex()
        assert report.offender == offender
        if trials == 3000 and tol is not DEFAULT_TOL:
            assert failures > 1


class TestExactFaces:
    """Exact boundary members of the hull and exact non-members below them
    (:func:`reference.face_pairs`, 100 faces per kind)."""

    @staticmethod
    @functools.cache
    def _pairs(kind: str):
        return face_pairs(np.random.default_rng(0), 100, kind)

    @pytest.mark.parametrize("kind", FACE_KINDS)
    def test_boundary_members_are_members(self, kind):
        members, _, _ = self._pairs(kind)
        assert member_batch(members).member.all()
        assert all(member_hull(HullPoint.from_coords(r)).member for r in members)

    @pytest.mark.parametrize("kind", FACE_KINDS)
    def test_nonmembers_below_a_face_are_rejected(self, kind):
        # an X11 gap of delta in the normalized cut, delta >= 1e-4
        _, rows, delta = self._pairs(kind)
        assert set(delta) == {1e-2, 1e-3, 1e-4} and len(rows) > 250
        batch = member_batch(rows)
        assert not batch.member.any() and not batch.errors
        assert not any(member_hull(HullPoint.from_coords(r)).member for r in rows)
        sep = separate_batch(rows)
        assert not sep.inside[[i for i in range(len(rows)) if i not in sep.errors]].any()


class TestScaleInvariance:
    @pytest.mark.parametrize("t", [1e-3, 1e-2, 1e2])
    def test_hull_members_stay_members_under_scaling(self, t):
        # the hull is invariant under (x, X) -> (t x, t^2 X); the X11 gap of
        # every piece scales with t^2, so no member flips
        rows = np.concatenate([
            _sample_hull_array(np.random.default_rng(100 + k), 1000, k) for k in range(1, 9)
        ])
        rows = rows[rows[:, 5:].min(axis=1) > 1e-9]
        assert len(rows) == 6349
        assert member_batch(rows).member.all()
        scaled = rows * np.array([t, t, t * t, t * t, t * t, 1.0, 1.0])
        assert member_batch(scaled).member.all()

    @pytest.mark.parametrize("t", [1e-2, 1e2])
    def test_u2_decisions_stay_under_scaling(self, t):
        # rows of R6, R7 and R8 at unit scale, members and non-members: the
        # sides of those cells scale as t^3 against the absolute band, so a
        # row that crosses between them is decided the same by its new piece
        rows = _sample_separable_array(np.random.default_rng(3), 20000)
        rows = rows[np.isin(classify_batch(rows), [Region.R6, Region.R7, Region.R8])]
        assert len(rows) == 985
        member = member_batch(rows).member
        assert 0 < member.sum() < len(rows)
        scaled = rows * np.array([t, t, t * t, t * t, t * t, 1.0, 1.0])
        assert (member_batch(scaled).member == member).all()
