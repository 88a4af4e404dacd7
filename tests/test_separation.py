import functools
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairhull.core
from pairhull import separation
from pairhull import (
    DEFAULT_TOL,
    HullPoint,
    Region,
    Tolerances,
    classify,
    classify_batch,
    in_relaxation_ctilde,
    member_batch,
    member_hull,
    piece_slacks,
    q_gradient,
    q_value,
    separate,
    separate_batch,
)
from pairhull.columns import elementwise
from pairhull.core import HullColumns
from pairhull.errors import (
    DegenerateGradient,
    InputOutsideCtilde,
    NumericallyDegenerate,
)
from pairhull.families import FAMILY_BY_CELL, x11_root
from pairhull.regions import CELLS, region_closure_contains
from pairhull.separation import (
    _family_cut,
    _flat,
    _on_bound,
    _out_of_reach,
    _plain_touch,
    _touch,
    copositive_x12,
)
from pairhull.verify import (
    SOUNDNESS_FLOOR,
    VIOLATION_FLOOR,
    _shrunken_rows,
    s2_minimum,
    shrunken_nonmembers,
)
from reference import (
    exact_copositive,
    exact_s2_minimum,
    family_touch_points,
    gram_boundary_blocks,
    hand_q_gradient,
)

WORKED = HullPoint(0.1, 1.0, 1.0, 1.2, 2.5, 0.5, 0.5)


def assert_supports_s2(cut) -> None:
    """The cut's minimum over the vertex set, in closed form and in rational
    arithmetic, is finite and within the floors of the cuts suite, and its
    quadratic part is copositive in rational arithmetic."""
    c = cut.coeffs
    assert exact_copositive(c[2], c[3], c[4])
    for low in (s2_minimum(HullPoint.from_coords(c), cut.constant),
                exact_s2_minimum(c, cut.constant)):
        assert SOUNDNESS_FLOOR <= low <= VIOLATION_FLOOR


def fd_gradient(family: str, p: HullPoint, h: float = 1e-6) -> np.ndarray:
    c = np.array(p.coords())
    g = np.zeros(7)
    for i in range(7):
        step = h * (1.0 + abs(c[i]))
        up, dn = c.copy(), c.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (
            q_value(family, HullPoint.from_coords(up))
            - q_value(family, HullPoint.from_coords(dn))
        ) / (2.0 * step)
    return g


class TestWorkedExample:
    def test_separation_outcome(self):
        res = separate(WORKED)
        assert not res.inside
        assert res.region is Region.R4
        assert res.cut is not None

    def test_touch_point(self):
        res = separate(WORKED)
        touch = res.cut.touch
        assert touch.X11 == pytest.approx(2.02, abs=1e-12)
        assert abs(res.cut.evaluate(touch)) <= 1e-12
        assert member_hull(touch).member

    def test_cut_violated_by_query(self):
        res = separate(WORKED)
        assert res.cut.evaluate(WORKED) < -1e-9

    def test_raw_gradient_coefficient_on_x11(self):
        touch = separate(WORKED).cut.touch
        raw = q_gradient(FAMILY_BY_CELL["R4"], touch)
        # slope in X11 equals X22 - x2^2/z2 at the touch
        assert raw[2] == pytest.approx(0.5, abs=1e-12)

    def test_member_query_returns_inside(self):
        res = separate(HullPoint(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5))
        assert res.inside and res.cut is None

    def test_outside_relaxation_rejected(self):
        with pytest.raises(InputOutsideCtilde):
            separate(HullPoint(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5))


class TestDeterminism:
    def test_identical_inputs_identical_cuts(self):
        a = separate(WORKED).cut
        b = separate(WORKED).cut
        assert [c.hex() for c in a.coeffs] == [c.hex() for c in b.coeffs]
        assert a.constant == b.constant
        assert a.touch == b.touch


class TestGradients:
    @pytest.mark.parametrize("family", ["II", "III", "V"])
    def test_analytic_matches_finite_differences(self, family):
        rng = np.random.default_rng(61)
        for p in family_touch_points(rng, 60, family):
            ga = q_gradient(family, p)
            gf = fd_gradient(family, p)
            scale = max(float(np.max(np.abs(ga))), 1e-8)
            assert float(np.max(np.abs(ga - gf))) / scale <= 1e-5

    @pytest.mark.parametrize("family", ["II", "III", "V"])
    def test_derivative_matches_the_hand_derived_gradient(self, family):
        # q_gradient is the derivative of q_value's body; on floats and on
        # columns, as separate_batch takes it, it lies within 1e-13 of the
        # largest term of the gradient derived by hand, and the two agree
        pts = family_touch_points(np.random.default_rng(61), 300, family)
        by_columns = np.array(
            elementwise(q_gradient)(family, HullColumns.of_rows([p.coords() for p in pts]))
        )
        for p, column in zip(pts, by_columns.T):
            want = np.array(hand_q_gradient(family, p))
            got = np.array(q_gradient(family, p))
            assert np.array_equal(got, column)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("family", ["II", "III"])
    def test_derivative_on_fractions_is_exact(self, family):
        # the bodies of families II and III take no square root, so their
        # derivative runs on Fractions and is exact there; the float one
        # lies within 1e-13 of its largest term
        for p in family_touch_points(np.random.default_rng(61), 300, family):
            exact = q_gradient(family, HullPoint(*map(Fraction, p.coords())))
            assert {type(g) for g in exact} == {Fraction}
            err = max(abs(Fraction(g) - x) for g, x in zip(q_gradient(family, p), exact))
            assert err <= Fraction(1e-13) * max(map(abs, exact))

    def test_taylor_cut_zero_at_base(self):
        rng = np.random.default_rng(62)
        for p in family_touch_points(rng, 20, "II"):
            region = classify(p)
            cut = _family_cut(FAMILY_BY_CELL[region.value], p, DEFAULT_TOL)
            assert abs(cut.evaluate(p)) <= 1e-9

    def test_taylor_cut_rejects_off_boundary_base(self):
        with pytest.raises(ValueError):
            _family_cut(FAMILY_BY_CELL["R4"], WORKED, DEFAULT_TOL)  # q(WORKED) != 0


class TestCutSoundness:
    def test_cuts_support_the_vertex_set(self):
        rng = np.random.default_rng(63)
        queries = shrunken_nonmembers(rng, 200)
        for p in queries:
            res = separate(p)
            assert not res.inside
            cut = res.cut
            assert cut.evaluate(p) < -1e-9
            assert abs(cut.evaluate(cut.touch)) <= 1e-9
            assert member_hull(cut.touch).member
            assert_supports_s2(cut)

    def test_cut_normalization(self):
        cut = separate(WORKED).cut
        assert float(np.max(np.abs(cut.coeffs))) == pytest.approx(1.0)


_unit = st.floats(2.0**-40, 1.0)


@st.composite
def _x12_rows(draw):
    """(a, b, c): b within 8 ulps of the rank-one edge -2 sqrt(a c), or any
    sign; a and c positive, zero or negative."""
    a, c = (draw(st.sampled_from([0.0, -0.5]) | _unit) for _ in range(2))
    b = -2.0 * math.sqrt(max(a, 0.0)) * math.sqrt(max(c, 0.0))
    for _ in range(draw(st.integers(0, 8))):
        b = math.nextafter(b, draw(st.sampled_from([-math.inf, 0.0])))
    return a, draw(st.just(b) | st.floats(-2.0, 2.0)), c


def _rank_one_rows() -> list[tuple[float, float, float]]:
    """(v1^2, 2 v1 v2, v2^2) at the least eigenvector v of 2000 singular
    Gram blocks (rng 64): the X11, X12 and X22 coefficients of the PSD cut
    v^T M v >= 0, of which 957 round past the copositive edge."""
    rows = []
    for m in gram_boundary_blocks(np.random.default_rng(64), 2000):
        v = np.linalg.eigh(m)[1][:, 0]
        rows.append((float(v[1] * v[1]), float(2.0 * v[1] * v[2]), float(v[2] * v[2])))
    return rows


class TestCopositiveX12:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_x12_rows(), min_size=1, max_size=16))
    def test_fewest_ulps_to_an_exactly_copositive_form(self, rows):
        self._assert_fewest_ulps(rows)

    def test_gram_rank_one_forms(self):
        # 957 of these rounded past the copositive edge as the cuts of the
        # retired PSD support cut, which left them unbounded below on S2
        self._assert_fewest_ulps(_rank_one_rows())

    @staticmethod
    def _assert_fewest_ulps(rows):
        a, b, c = np.array(rows).T
        with np.errstate(invalid="ignore"):  # sqrt of a negative a or c
            columns = elementwise(copositive_x12)(a, b, c)
        for (ai, bi, ci), col in zip(rows, columns):
            got = copositive_x12(ai, bi, ci)
            assert got.hex() == float(col).hex()
            if ai < 0.0 or ci < 0.0:
                assert got == bi
                continue
            assert exact_copositive(ai, got, ci) and bi <= got <= max(bi, 0.0)
            # one ulp further from zero the form is not copositive
            assert got == bi or not exact_copositive(ai, math.nextafter(got, -math.inf), ci)

    @staticmethod
    def _batch(kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c, walk) of 64 rows.  A row that needs the walk has a, c > 0
        and b 4 ulps outside the rank-one edge -2 sqrt(a c); a row that keeps
        b has, by its index mod 4, b >= 0, b halfway to the edge, a < 0 or
        c < 0."""
        rng = np.random.default_rng(17)
        a, c = rng.uniform(0.01, 1.0, (2, 64))
        b = -2.0 * np.sqrt(a) * np.sqrt(c)
        for _ in range(4):
            b = np.nextafter(b, -np.inf)
        walk = {"none": np.zeros(64, bool), "all": np.ones(64, bool)}.get(
            kind, rng.random(64) < 0.5
        )
        why = np.where(walk, -1, np.arange(64) % 4)
        b[why == 0] = rng.uniform(0.0, 2.0, 64)[why == 0]
        b[why == 1] *= 0.5
        a[why == 2] *= -1.0
        c[why == 3] *= -1.0
        for row, needs in zip(zip(a, b, c), walk):
            assert needs == (min(row[0], row[2]) >= 0.0 and not exact_copositive(*row))
        n = 0 if kind == "empty" else 64
        return a[:n], b[:n], c[:n], walk[:n]

    @pytest.mark.parametrize("kind", ["none", "all", "mix", "empty"])
    def test_column_version_equals_the_scalar(self, kind):
        a, b, c, walk = self._batch(kind)
        got = elementwise(copositive_x12)(a, b, c)
        want = [copositive_x12(*row) for row in zip(a.tolist(), b.tolist(), c.tolist())]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
        assert ((got != b) == walk).all()


class TestIndicatorEdgeSeparation:
    def test_edge_member_is_inside(self):
        res = separate(HullPoint(0.0, 1.0, 4.0, 0.5, 1.5, 0.0, 1.0))
        assert res.inside

    def test_edge_nonmember_gets_sound_cut(self):
        p = HullPoint(0.0, 1.0, 1.0, 1.2, 2.5, 0.0, 0.5)
        res = separate(p)
        assert not res.inside
        assert res.cut.evaluate(p) < -1e-9
        assert_supports_s2(res.cut)
        assert res.cut.touch.X11 == pytest.approx(1.44 / 0.5, abs=1e-12)

    def test_second_edge_nonmember_gets_sound_cut(self):
        p = HullPoint(1.0, 0.0, 3.0, 1.2, 1.0, 0.5, 0.0)
        assert in_relaxation_ctilde(p)
        res = separate(p)
        assert not res.inside
        # bound: x1^2/z1 + X12^2 / X22 = 2 + 1.44
        assert res.cut.touch.X11 == pytest.approx(2.0 + 1.44, abs=1e-12)
        assert_supports_s2(res.cut)


# member_hull reports (member, region, violated, W, degenerate), their named
# slacks and the separate outcome ("inside", or the cut coefficients, constant
# and touch point) as float.hex, on non-members of each separating family,
# both indicator edges, an X22 on the perspective bound in R4, in R8 and on
# the z1 edge (the touch point bumps X22), an R8 point with small W, scaled
# copies, two uncovered corners outside the hull, and an R7 member of its own
# part IV piece: a change to the family formulas that moves a bit shows here.
# R8_scaled_1e-3 is the member a neighbouring piece (part IV) rescues.  The X12 coefficient is the one copositive_x12 leaves; at
# R5_nonmember, R5_scaled_1e-2 and uncovered_nonmember it moved toward zero,
# by 5, 6 and 1 ulps, to make the quadratic part of the cut copositive.
CLOSED_FORM_PINS = [
    ("R3_nonmember",
     (0.13244449792131432, 1.9178391154195902, 0.4052292625282925, 0.722464578887599,
      4.286616169951484, 0.3826840560551668, 0.9718972651216101),
     (False, "R3", ("II.product",), None, False),
     "II.persp2=0x1.011a8a1d85d38p-1 II.product=-0x1.28e8aab3e2ee0p-5",
     "cut R3 0x1.0000000000000p+0 "
     "-0x1.d6270487a2462p-1 0x1.318997cfd869ep-2 -0x1.1890970adfcbcp-1 "
     "0x1.01a21c25f0fe4p-2 0x0.0p+0 0x1.acfd01034cb8dp-1 "
     "-0x1.3039d3fa15137p-53 0x1.0f3f0f98db83dp-3 0x1.eaf78117b77a4p+0 "
     "0x1.c41180ce402b8p-2 0x1.71e6e095ae69ap-1 0x1.1257eb591c91ep+2 "
     "0x1.87de5445d48ddp-2 0x1.f19c84b189cefp-1"),
    ("R4_nonmember",
     (0.6550960776635387, 0.5470655074161551, 19.494047315370736, 5.869960908938073,
      1.968594541656306, 0.498737492493023, 0.2854509208243847),
     (False, "R4", ("II.product",), None, False),
     "II.persp2=0x1.d71d586c456acp-1 II.product=-0x1.49a4360085914p+2",
     "cut R4 0x1.98614e1531988p-3 "
     "-0x1.0000000000000p+0 0x1.be8d41bdd3fbep-7 -0x1.17edb6c50093ap-3 "
     "0x1.5ef4b9941f020p-2 0x0.0p+0 0x1.7578ab569a119p-1 "
     "0x1.e54e342d71c1fp-54 0x1.4f68c0ca9b055p-1 0x1.1818f85e3e7afp-1 "
     "0x1.8a50aba8847e9p+4 0x1.77ad70852bff5p+2 0x1.f7f5cfd77f794p+0 "
     "0x1.feb50a8e2fb28p-2 0x1.244d3f06371c0p-2"),
    ("R5_nonmember",
     (0.537038667429799, 0.22839324580456774, 0.3571972656091969, 0.18697330266280396,
      0.1364988548545918, 0.8310832954254374, 0.6030539342611494),
     (False, "R5", ("III.product",), None, False),
     "III.persp2=0x1.999999999999ap-5 III.product=-0x1.644838c80aeacp-7",
     "cut R5 -0x1.dea498fbd299bp-1 "
     "0x1.ff5f9625be53cp-2 0x1.df3abe6b299f0p-1 -0x1.ffffffffffffbp-1 "
     "0x1.118176c4f3850p-2 0x1.de0ea297390dep-3 0x0.0p+0 "
     "0x1.963818400a6a0p-54 0x1.12f6bb7298c8dp-1 0x1.d3bfd68adcfebp-3 "
     "0x1.78e7607e4cc22p-2 0x1.7eebdbe14b797p-3 0x1.178cb62c55db8p-3 "
     "0x1.a983bfec35547p-1 0x1.34c37c3ac0650p-1"),
    ("R8_nonmember",
     (1.287721136902277, 1.1955653091008096, 2.344542158763838, 0.6244599846480671,
      2.6680136439576807, 0.7597095977173154, 0.5546443248526949),
     (False, "R8", ("V.W-ineq",), "0x1.0d0a3471240c4p-2", False),
     "V.persp1=0x1.4b6eaa5d3ad70p-3 V.persp2=0x1.745d1a74770e0p-4 "
     "V.W-ineq=-0x1.afaf21e8f5f90p-6",
     "cut R8 -0x1.0000000000000p+0 "
     "-0x1.e04868e3cdab0p-1 0x1.e4955f9ee2008p-3 0x1.0fce747bfdf24p-2 "
     "0x1.6ed27efc59f7cp-3 0x1.5849fe5e8ee49p-3 0x1.5be2649fcc967p-2 "
     "0x1.c6e539671eb60p-1 0x1.49a817a95cfbep+0 0x1.3210916ed1f2ap+0 "
     "0x1.2f79535fcfdd3p+1 0x1.3fb9381772be9p-1 0x1.558178990a3e5p+1 "
     "0x1.84f8a8094e6e6p-1 0x1.1bfa57484f03ap-1"),
    ("R8_member",
     (1.287721136902277, 1.1955653091008096, 3.344542158763838, 0.6244599846480671,
      2.6680136439576807, 0.7597095977173154, 0.5546443248526949),
     (True, "R8", (), "0x1.0d0a3471240c4p-2", False),
     "V.persp1=0x1.296dd54ba75aep+0 V.persp2=0x1.745d1a74770e0p-4 "
     "V.W-ineq=0x1.f28286f0b8504p-1",
     "inside R8"),
    ("edge_z1",
     (0.0, 0.8, 0.5, 0.6,
      1.5, 0.0, 0.6),
     (False, "R1", ("edge.product",), None, False),
     "I.persp1=0x1.0000000000000p-1 I.persp2=0x1.bbbbbbbbbbbb8p-2 "
     "edge.product=-0x1.52b52b52b52bcp-2",
     "cut R1 0x1.71c71c71c71c3p-1 "
     "-0x1.0000000000000p+0 0x1.9097b425ed090p-3 -0x1.1555555555552p-1 "
     "0x1.7ffffffffffffp-2 0x0.0p+0 0x1.5555555555555p-1 "
     "0x1.ce38e38e38e34p-53 0x0.0p+0 0x1.999999999999ap-1 "
     "0x1.a95a95a95a95ep-1 0x1.3333333333333p-1 0x1.8000000000000p+0 "
     "0x0.0p+0 0x1.3333333333333p-1"),
    ("edge_z2",
     (0.8, 0.0, 1.5, 0.6,
      0.5, 0.6, 0.0),
     (False, "R1", ("edge.product",), None, False),
     "I.persp1=0x1.bbbbbbbbbbbb8p-2 I.persp2=0x1.0000000000000p-1 "
     "edge.product=-0x1.258bf258bf25cp-2",
     "cut R1 -0x1.aaaaaaaaaaaabp-1 "
     "0x1.0000000000000p+0 0x1.4000000000000p-2 -0x1.7ffffffffffffp-1 "
     "0x1.cccccccccccccp-2 0x1.1c71c71c71c72p-1 0x0.0p+0 "
     "-0x0.0p+0 0x1.999999999999ap-1 0x0.0p+0 "
     "0x1.c962fc962fc97p+0 0x1.3333333333333p-1 0x1.0000000000000p-1 "
     "0x1.3333333333333p-1 0x0.0p+0"),
    ("R4_X22_on_persp_bound",
     (0.3, 0.8, 0.5, 0.7,
      1.28, 0.7, 0.5),
     (False, "R4", ("II.product",), None, False),
     "II.persp2=-0x1.0000000000000p-52 II.product=-inf",
     "cut R4 0x1.86739a3de8ba3p-18 "
     "-0x1.0000000000000p+0 0x1.7432fa11a4a9ep-37 -0x1.e810c696f1cc0p-19 "
     "0x1.40002dc1929e2p-2 0x0.0p+0 0x1.99995f084276dp-1 "
     "-0x1.9ff70657eb2b0p-53 0x1.3333333333333p-2 0x1.999999999999ap-1 "
     "0x1.27695c29d9648p+15 0x1.6666666666666p-1 0x1.47ae29f47029ep+0 "
     "0x1.6666666666666p-1 0x1.0000000000000p-1"),
    ("R1_edge_X22_on_persp_bound",
     (0.0, 0.8, 1.0, 0.6,
      1.0666666666666667, 0.0, 0.6),
     (False, "R1", ("edge.product",), None, False),
     "I.persp1=0x1.0000000000000p+0 I.persp2=-0x1.0000000000000p-52 "
     "edge.product=-inf",
     "cut R1 0x1.dd37f568aaaaap-20 "
     "-0x1.0000000000000p+0 0x1.4d9997c947d60p-40 -0x1.65e9f80e7fffep-20 "
     "0x1.7ffffffffffffp-2 0x0.0p+0 0x1.5555555555556p-1 "
     "-0x0.0p+0 0x0.0p+0 0x1.999999999999ap-1 "
     "0x1.499700009bbebp+18 0x1.3333333333333p-1 0x1.111122f65d784p+0 "
     "0x0.0p+0 0x1.3333333333333p-1"),
    ("R8_small_W",
     (1.2, 0.9, 2.0571639826505126, 0.025585714285714288,
      2.6114999999999995, 0.7, 0.6),
     (False, "R8", ("V.W-ineq",), "0x1.47ae147ae1460p-7", False),
     "V.persp1=0x1.626d5d4f40000p-16 V.persp2=0x1.42f1a9fbe76c6p+0 "
     "V.W-ineq=-0x1.24b1a8e791fa4p-16",
     "cut R8 -0x1.0000000000000p+0 "
     "-0x1.35c5bd792270dp-2 0x1.298d0491ccc87p-2 0x1.650f9f155ac75p-3 "
     "0x1.a407c88189d19p-5 0x1.a827dc1347dc9p-2 0x1.076a826026901p-14 "
     "0x1.c8d99a6a8663dp-2 0x1.3333333333333p+0 0x1.ccccccccccccdp-1 "
     "0x1.0751b896d3908p+1 0x1.a3324386863b6p-6 0x1.4e45a1cac0830p+1 "
     "0x1.6666666666666p-1 0x1.3333333333333p-1"),
    ("R8_X22_on_persp_bound",
     (0.4573629335106726, 0.42313868973994073, 0.2637160410334129, 0.10703844896112873,
      0.3479534118820882, 0.8175239086750108, 0.5145698953959609),
     (False, "R8", ("V.W-ineq",), "0x1.541065eec1978p-2", False),
     "V.persp1=0x1.010efe973a2c0p-7 V.persp2=0x0.0p+0 V.W-ineq=-0x1.010efe973a2cap-7",
     "cut R8 -0x1.22610f5c99365p-6 "
     "-0x1.0000000000000p+0 0x1.af064101b1562p-7 0x1.2734196902a91p-7 "
     "0x1.369b130636aeap-1 0x1.08de3efa04144p-9 0x1.a1f1ba482d0b6p-2 "
     "0x1.02d1ef8e86a14p-8 0x1.d456f2e752e78p-2 0x1.b14b44c86bdd4p-2 "
     "0x1.15fbdc70e3cc3p-2 0x1.b66df2db3de73p-4 0x1.644e294e21432p-2 "
     "0x1.a2927e66ea1e4p-1 0x1.0775b49076ad9p-1"),
    ("R3_scaled_1e3",
     (132.44449792131434, 1917.8391154195901, 405229.2625282925, 722464.5788875989,
      4286616.169951485, 0.3826840560551668, 0.9718972651216101),
     (False, "R3", ("II.product",), None, False),
     "II.persp2=0x1.ea62e6bf1f690p+18 II.product=-0x1.1b27836b75958p+15",
     "cut R3 0x1.38ded0b410ceep-10 "
     "-0x1.1f4c6152d0affp-10 0x1.7e5fdea58b6a9p-22 -0x1.5f1f251177cc1p-21 "
     "0x1.426c59019e165p-22 0x0.0p+0 0x1.0000000000000p+0 "
     "-0x1.8f3a41620c12bp-53 0x1.08e3953b465ecp+7 0x1.df75b411292d6p+10 "
     "0x1.af20413ab22a5p+18 0x1.60c412863f493p+19 0x1.05a260ae07c31p+22 "
     "0x1.87de5445d48ddp-2 0x1.f19c84b189cefp-1"),
    ("R5_scaled_1e-2",
     (0.00537038667429799, 0.0022839324580456776, 3.571972656091969e-05, 1.8697330266280396e-05,
      1.364988548545918e-05, 0.8310832954254374, 0.6030539342611494),
     (False, "R5", ("III.product",), None, False),
     "III.persp2=0x1.4f8b588e368f0p-18 III.product=-0x1.23ddc67a1880ap-20",
     "cut R5 -0x1.3254dcca2062ap-7 "
     "0x1.47476a559887bp-8 0x1.df3abe6b299f4p-1 -0x1.ffffffffffffap-1 "
     "0x1.118176c4f384dp-2 0x1.879fdaccfb8a7p-16 0x0.0p+0 "
     "0x1.73e79b33a1890p-67 0x1.5ff423220b3e8p-8 0x1.2b5c0e6d5a3cap-9 "
     "0x1.34c2758cbd098p-15 0x1.39b06c0940b22p-16 0x1.ca039f9e3ed85p-17 "
     "0x1.a983bfec35547p-1 0x1.34c37c3ac0650p-1"),
    ("R8_scaled_1e-3",
     (0.001287721136902277, 0.0011955653091008096, 2.3445421587638382e-06, 6.24459984648067e-07,
      2.6680136439576806e-06, 0.7597095977173154, 0.5546443248526949),
     (True, "R8", (), "0x1.0d0a3471240c5p-2", False),
     "IV.diag1=0x1.70769cb9e13dap-21 IV.persp2=0x1.86739d954db20p-24 "
     "IV.shor=0x1.60430349bccc0p-27",
     "inside R8"),
    ("uncovered",
     (0.0023614562234584202, 0.0018389504695006781, 3.303684937974451e-05, 3.261422087943452e-05,
      1.785549495622005e-05, 0.28771104292453, 0.4770477567323037),
     (False, "NotCovered", ("II.product",), None, False),
     "II.persp2=0x1.69446fcd4d63ep-17 II.product=-0x1.f73844c3da65cp-16",
     "cut R3 0x1.7d43cb129b537p-10 "
     "-0x1.a04933e03d680p-9 0x1.ad7a1d538c90ep-3 -0x1.d4ed3ac0e43d0p-1 "
     "0x1.0000000000000p+0 0x0.0p+0 0x1.5276fec3b3fbap-19 "
     "-0x1.3055a2289ec4fp-72 0x1.358552805a629p-9 0x1.e211e0807b036p-10 "
     "0x1.085f1d33670ccp-14 0x1.1196818b3ccd8p-15 0x1.2b90c452f5930p-16 "
     "0x1.269db9403c528p-2 0x1.e87f35072e7f8p-2"),
    ("R7_member",
     (0.01265912918967138, 0.028927739041855843, 0.0004894393558082376, 3.635929138912215e-05,
      0.0012608296600780254, 0.7456665702742226, 0.771481629446558),
     (True, "R7", (), None, False),
     "IV.diag1=0x1.592d243293746p-12 IV.persp2=0x1.7167449bf51b0p-13 "
     "IV.shor=0x1.30857021362acp-14",
     "inside R7"),
    ("uncovered_nonmember",
     (0.0031845647784178414, 0.011753868360517469, 0.00023187148831582037, 0.0003230202897677098,
      0.000525046998583723, 0.17677624583023097, 0.3172765020608486),
     (False, "NotCovered", ("II.product",), None, False),
     "II.persp2=0x1.77dbb7eb5dea0p-14 II.product=-0x1.1a581d54b3e20p-12",
     "cut R3 0x1.d3b597eefcd2dp-6 "
     "-0x1.0b8c0124914d9p-4 0x1.872ac2f6d7f74p-3 -0x1.bf8615ad3d7d7p-1 "
     "0x1.0000000000000p+0 0x0.0p+0 0x1.179d56f38717fp-10 "
     "-0x1.0a6d4a736bd23p-63 0x1.a16843268d798p-9 0x1.8126981ade62bp-7 "
     "0x1.06bd5256c66d4p-11 0x1.52b61949b6f7bp-12 0x1.13469d8092d38p-11 "
     "0x1.6a09aa14676bbp-3 0x1.44e421a08fff1p-2"),
]


class TestPinnedClosedForm:
    @pytest.mark.parametrize(
        "coords, report, slacks, outcome", [pin[1:] for pin in CLOSED_FORM_PINS],
        ids=[pin[0] for pin in CLOSED_FORM_PINS],
    )
    def test_outputs_bit_for_bit(self, coords, report, slacks, outcome, monkeypatch):
        # the batch functions decide all pins at once, listed and reversed,
        # on columns (16 rows are below the row-by-row threshold)
        monkeypatch.setattr(pairhull.core, "COLUMN_MIN_ROWS", 1)
        rows = np.array([pin[1] for pin in CLOSED_FORM_PINS])
        row = [pin[1] for pin in CLOSED_FORM_PINS].index(coords)
        mirror = len(rows) - 1 - row
        p = HullPoint(*coords)
        reports = [
            member_hull(p),
            member_batch(rows).report(row),
            member_batch(rows[::-1]).report(mirror),
        ]
        for rep in reports:
            w = None if rep.W is None else rep.W.hex()
            assert (rep.member, rep.region.value, rep.violated, w, rep.degenerate) == report
            assert " ".join(f"{k}={v.hex()}" for k, v in rep.slacks.items()) == slacks
        assert classify_batch(rows)[row].value == report[1]
        assert classify_batch(rows[::-1])[mirror].value == report[1]
        res = separate(p)
        words = ["inside" if res.inside else "cut", res.region.value]
        if not res.inside:
            cut = res.cut
            values = (*cut.coeffs, cut.constant, *cut.touch.coords())
            words += [float(v).hex() for v in values]
        assert " ".join(words) == outcome

    @pytest.mark.parametrize(
        "pin", ["R4_X22_on_persp_bound", "R8_X22_on_persp_bound", "R1_edge_X22_on_persp_bound"]
    )
    def test_touch_point_bumps_x22_off_the_perspective_bound(self, pin):
        # X22 z2 = x2^2 at these pins: the touch point raises X22 by the base
        # step max(1e-6, 1e-6 X22), which keeps the point in the closure of its cell (and in
        # R8 keeps W > 0 and q_V < 0), and is a member; the cut is violated
        coords = dict((name, c) for name, c, *_ in CLOSED_FORM_PINS)[pin]
        p = HullPoint(*coords)
        cut = separate(p).cut
        assert cut.touch.X22 == p.X22 + max(1e-6, 1e-6 * p.X22)
        assert member_hull(cut.touch).member
        assert cut.evaluate(p) < -VIOLATION_FLOOR

    def test_uncovered_point_no_piece_names_raises(self, monkeypatch):
        # at this scale the cells' polynomials of degree 4 and 6 overflow:
        # the point lies in no cell and in no cell's closure, and the
        # perspective bounds of part I, its fallback report, hold; one by
        # one and on columns alike
        monkeypatch.setattr(pairhull.core, "COLUMN_MIN_ROWS", 1)
        coords = (2.19044181155165e+77, 5.92090365280478e+76, 3.3679468820433176e+155,
                  6.895179802837099e+154, 1.8638109931093842e+154,
                  0.1880936435904989, 0.45756630567175277)
        p = HullPoint(*coords)
        assert not any(region_closure_contains(p, r) for r in CELLS if r is not Region.NOT_COVERED)
        message = "uncovered point rejected by every piece"
        with pytest.raises(NumericallyDegenerate, match=message):
            member_hull(p)
        rows = np.array([pin[1] for pin in CLOSED_FORM_PINS] + [coords])
        with pytest.raises(NumericallyDegenerate, match=message):
            member_batch(rows).report(len(rows) - 1)

    def test_scalar_separate_needs_no_numpy(self):
        # an interpreter that cannot import numpy answers the worked point
        # and every pin (the oracle decides none of them) bit for bit
        assert not any(pin[2][4] for pin in CLOSED_FORM_PINS)
        points = [WORKED.coords()] + [pin[1] for pin in CLOSED_FORM_PINS]
        code = (
            "import sys\nsys.modules['numpy'] = None\n"
            "from pairhull.core import HullPoint\nfrom pairhull.separation import separate\n"
            f"for coords in {points!r}:\n"
            "    res = separate(HullPoint(*coords))\n"
            "    words = ['inside' if res.inside else 'cut', res.region.value]\n"
            "    if not res.inside:\n"
            "        cut = res.cut\n"
            "        words += [v.hex() for v in (*cut.coeffs, cut.constant, *cut.touch.coords())]\n"
            "    print(*words)\n"
        )
        paths = (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        worked = separate(WORKED).cut
        first = ["cut", "R4"] + [
            v.hex() for v in (*worked.coeffs, worked.constant, *worked.touch.coords())
        ]
        assert out.splitlines() == [" ".join(first)] + [pin[4] for pin in CLOSED_FORM_PINS]

    def test_separate_batch_on_all_pins_bit_for_bit(self, monkeypatch):
        # all pins in one batch, listed and reversed, on columns
        monkeypatch.setattr(pairhull.core, "COLUMN_MIN_ROWS", 1)
        rows = np.array([pin[1] for pin in CLOSED_FORM_PINS])
        outcomes = [pin[4] for pin in CLOSED_FORM_PINS]
        for order in (slice(None), slice(None, None, -1)):
            batch = separate_batch(rows[order])
            for i, outcome in enumerate(outcomes[order]):
                res = batch.result(i)
                words = ["inside" if res.inside else "cut", res.region.value]
                if not res.inside:
                    cut = res.cut
                    values = (*cut.coeffs, cut.constant, *cut.touch.coords())
                    words += [float(v).hex() for v in values]
                assert " ".join(words) == outcome


#: Tolerance sets of the touch-point tests.
TOUCH_TOLS = [DEFAULT_TOL, Tolerances(1e-12, 1e-10, 1e-8), Tolerances(1e-6, 1e-5, 1e-4)]
#: The cell whose closure the touch point of each family keeps.
TOUCH_REGION = {"II": Region.R4, "III": Region.R5, "V": Region.R8}
#: Ways to push a row onto the edge of a guard of the touch point, each
#: by a multiple k of eq_tol (of 1e-9 for z2).
TOUCH_EDGES = ("none", "bound", "z2", "x2", "W", "slope")


@functools.cache
def _touch_rows() -> tuple[np.ndarray, tuple[str, ...]]:
    """Shrunken non-members of every family and the family of each."""
    rows = _shrunken_rows(np.random.default_rng(23), 240, DEFAULT_TOL)
    return rows, tuple(FAMILY_BY_CELL[classify(HullPoint.from_coords(r)).value] for r in rows)


def _pushed(row: np.ndarray, family: str, edge: str, k: float, tol) -> np.ndarray:
    """row moved onto the edge of one guard, by k in units of the band."""
    x1, x2, X11, X12, X22, z1, z2 = row
    e = tol.eq_tol
    z = z1 if family == "III" else z2
    if edge == "bound":  # the gap of the perspective bound at k e (1 + X22)
        gap = k * e * (1.0 + x2 * x2 / z)
        X22 = (x2 * x2 + gap) / z2 if family == "V" else x2 * x2 / z + gap
    elif edge == "z2":
        z2 = min(1.0, 1.0 - k * 1e-9)
    elif edge == "x2":
        x2 = max(0.0, k * e)
    elif edge == "W" and z1 + z2 - 1.0 > 0.0:  # W = k e
        s = z1 + z2 - 1.0
        X22 = (((s - k * e) * x2) ** 2 / ((1.0 - z1) * s) + x2 * x2) / z2
    elif edge == "slope":  # the X11 coefficient at k e
        if family == "V":
            x2 = math.sqrt(max(k, 0.0) * e / (z1 * (1.0 - z2)))
        else:
            X22 = x2 * x2 / z + k * e
    return np.array([x1, x2, X11, X12, max(X22, 0.0), z1, z2])


@st.composite
def _touch_batches(draw):
    """(tol, family, rows): shrunken non-members of one family, some pushed
    onto a guard edge."""
    rows, families = _touch_rows()
    tol = draw(st.sampled_from(TOUCH_TOLS))
    family = draw(st.sampled_from(("II", "III", "V")))
    mine = [i for i, f in enumerate(families) if f == family]
    picks = draw(st.lists(
        st.tuples(st.sampled_from(mine), st.sampled_from(TOUCH_EDGES),
                  st.sampled_from((-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 4.0))),
        min_size=1, max_size=24,
    ))
    return tol, family, np.array([_pushed(rows[i], family, edge, k, tol) for i, edge, k in picks])


def _bump_forbidden(*args):
    raise AssertionError("a plain touch point bumped X22")


class TestTouch:
    @settings(max_examples=150, deadline=None)
    @given(_touch_batches())
    def test_plain_touch_is_the_x11_root_on_both_paths(self, batch):
        tol, family, rows = batch
        with np.errstate(all="ignore"):  # the columns evaluate every guard on every row
            columns = elementwise(_plain_touch)(HullColumns.of_rows(rows), family, tol)
        with mock.patch.object(separation, "_bump_X22", _bump_forbidden):
            for plain, row in zip(columns.tolist(), rows):
                p = HullPoint.from_coords(row)
                assert plain == _plain_touch(p, family, tol), row.tolist()
                if plain:
                    touch = _touch(p, TOUCH_REGION[family], family, tol)
                    want = replace(p, X11=x11_root(family, p))
                    assert [v.hex() for v in touch.coords()] == [v.hex() for v in want.coords()]

    def test_touch_point_lies_on_its_piece_boundary(self):
        # the touch point's X11 is the F of the X11 gap its piece reports,
        # so that gap vanishes there up to the rounding of base + cc/slope
        # and back: measured at most 1 ulp of touch.X11 on these rows
        rows = _shrunken_rows(np.random.default_rng(6), 4000, DEFAULT_TOL)
        batch = separate_batch(rows)
        assert not batch.errors
        slack = {"II": "II.product", "III": "III.product", "V": "V.W-ineq"}
        for i in np.flatnonzero(batch.cuts()):
            res = batch.result(int(i))
            name = slack[FAMILY_BY_CELL[res.region.value]]
            touch = res.cut.touch
            assert abs(piece_slacks(touch, res.region)[name]) <= 2.0 * math.ulp(touch.X11)

    def test_pushed_rows_reach_every_guard(self):
        # the first guard to fire, in the order of _plain_touch, is each
        # guard on some pushed row of a family it can stop, and none on
        # others (a II/III slope <= 0 is on the bound already)
        rows, families = _touch_rows()
        first = set()
        for row, family in zip(rows[::8], families[::8]):
            for edge in TOUCH_EDGES:
                for k in (-1.0, 0.5, 1.5):
                    p = HullPoint.from_coords(_pushed(row, family, edge, k, DEFAULT_TOL))
                    guards = (_out_of_reach, _on_bound, _flat)
                    name = next((g.__name__ for g in guards if g(p, family, DEFAULT_TOL)), "plain")
                    assert (name == "plain") == _plain_touch(p, family, DEFAULT_TOL)
                    first.add((name, family))
        assert first == {("_on_bound", f) for f in ("II", "III", "V")} | {
            ("plain", f) for f in ("II", "III", "V")} | {("_out_of_reach", "V"), ("_flat", "V")}

    @pytest.mark.parametrize("coords, region, family, error, message", [
        ((0.5, 1.0, 1.0, 0.0, 2.0, 0.7, 1.0 - 5e-10), Region.R8, "V", NumericallyDegenerate,
         "family V needs z2 < 1 and x2 > 0; no closed-form cut here"),
        ((0.5, 0.0, 1.0, 0.0, 2.0, 0.7, 0.6), Region.R8, "V", NumericallyDegenerate,
         "family V needs z2 < 1 and x2 > 0; no closed-form cut here"),
        ((0.5, 1.0, 1.0, 0.0, 2.0, 0.7, 1.0 - 1e-9), Region.R8, "V", NumericallyDegenerate,
         "family V needs z2 < 1 and x2 > 0; no closed-form cut here"),
        ((0.5, 1e-9, 1.0, 0.0, 2.0, 0.7, 0.6), Region.R8, "V", NumericallyDegenerate,
         "family V needs z2 < 1 and x2 > 0; no closed-form cut here"),
        ((0.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5), Region.R4, "II", DegenerateGradient,
         "X11 coefficient of the boundary is not positive"),
        ((1.0, 1.0, 2.0, 0.5, 3.0, 0.5, 0.5), Region.R8, "V", NumericallyDegenerate,
         "W = 0.0 or the X11 coefficient of family V is not positive"),
        ((1.0, 10**-3.5, 2.0, 0.5, (1e-6 + 1e-7) / 0.99, 0.99, 0.99), Region.R8, "V",
         NumericallyDegenerate,
         "W = 0.6669504831500292 or the X11 coefficient of family V is not positive"),
        ((0.0, 1.0, 1.0, 0.5, 2.0, 0.3, 0.5), Region.R4, "II", DegenerateGradient,
         "no X22 perturbation preserves the cell constraints"),
        ((1.0, 1.0, 2.0, 0.5, 2.0, 0.5, 0.5), Region.R8, "V", DegenerateGradient,
         "no X22 perturbation preserves the cell constraints"),
    ], ids=["V_z2_near_one", "V_x2_zero", "V_z2_at_band", "V_x2_at_band", "II_slope_negative",
            "V_W_zero", "V_slope_small", "II_no_bump", "V_no_bump"])
    def test_guard_errors(self, coords, region, family, error, message):
        # each outcome of _touch other than a touch point, on a point built
        # for it: separate reaches none of them on sampled relaxation points
        # (no cell R8 point has z2 >= 1 - 1e-9, and member_hull hands
        # x2 <= eq_tol and W <= eq_tol to the oracle)
        with pytest.raises(error) as info:
            _touch(HullPoint(*coords), region, family, DEFAULT_TOL)
        assert type(info.value) is error and str(info.value) == message

    def test_bump_halves_until_w_clears_the_band(self):
        # in R8 the bump keeps W > eq_tol: from this point on the perspective
        # bound, W is below the band after each of the first five steps, so
        # the sixth, 2^-5 of the base step, is taken (with every step let
        # through the cell closure)
        p = HullPoint(0.5, 1e-3, 0.501, 0.3, 1e-6 / 0.51, 0.5, 0.51)
        with mock.patch.object(separation, "region_closure_contains", lambda *args: True):
            touch = _touch(p, Region.R8, "V", DEFAULT_TOL)
        assert touch.X22 == p.X22 + 1e-6 / 32
