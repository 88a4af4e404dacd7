import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairhull import (
    HullPoint,
    Tolerances,
    in_relaxation_ctilde,
    persp_sq,
    validate_point,
)
from pairhull.columns import elementwise
from pairhull.core import HullColumns, ctilde_slacks, separable_holds
from pairhull.errors import NegativeDenominator, NotInAmbientBox
from pairhull.families import q_gradient

finite_floats = st.floats(-10.0, 10.0, allow_nan=False)
pos_floats = st.floats(1e-6, 10.0, allow_nan=False)


class TestPerspSq:
    def test_origin_closure(self):
        assert persp_sq(0.0, 0.0) == 0.0

    def test_infinite_ray(self):
        assert math.isinf(persp_sq(1.0, 0.0))

    def test_direct_value(self):
        assert persp_sq(3.0, 2.0) == pytest.approx(4.5)

    def test_negative_denominator(self):
        with pytest.raises(NegativeDenominator):
            persp_sq(1.0, -0.5)

    @given(u=finite_floats, v=st.floats(1e-4, 10.0), alpha=st.floats(1e-2, 1e3))
    @settings(max_examples=300)
    def test_positive_homogeneity(self, u, v, alpha):
        # away from the zero band, where the closure cases cannot trigger
        lhs = persp_sq(alpha * u, alpha * v)
        rhs = alpha * persp_sq(u, v)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    @given(
        u1=finite_floats, v1=pos_floats, u2=finite_floats, v2=pos_floats
    )
    @settings(max_examples=300)
    def test_midpoint_convexity(self, u1, v1, u2, v2):
        mid = persp_sq(0.5 * (u1 + u2), 0.5 * (v1 + v2))
        avg = 0.5 * (persp_sq(u1, v1) + persp_sq(u2, v2))
        assert mid <= avg + 1e-9 * (1.0 + abs(avg))

    def test_columns_match_scalar_bit_for_bit(self):
        # the closure's 0 and +inf are the same IEEE values on both paths
        e = Tolerances().eq_tol
        u = np.array([0.0, 1.0, -1.0, 0.5 * e, 2.0 * e, 3.0, 3.0, 1e-300])
        v = np.array([0.0, 0.0, 0.0, 0.0, 0.5 * e, 2.0, -0.5 * e, 1e-300])
        with np.errstate(divide="ignore", invalid="ignore"):  # rows v <= 0 divide too
            cols = elementwise(persp_sq)(u, v)
        assert [c.hex() for c in cols] == [persp_sq(a, b).hex() for a, b in zip(u, v)]
        assert math.isinf(cols[1]) and cols[1] > 0.0 and cols[0] == 0.0


class TestRaiseGuard:
    """An ``if`` whose body is one ``raise`` raises on columns when any row
    trips it, and tests a caller flag as on a point."""

    def test_negative_denominator_raises_on_columns(self):
        e = Tolerances().eq_tol
        v = np.array([1.0, 0.0, -0.5 * e, -2.0 * e, 2.0])
        with pytest.raises(NegativeDenominator):
            elementwise(persp_sq)(np.ones(5), v)

    def test_rows_down_to_the_band_edge_equal_the_scalar(self):
        e = Tolerances().eq_tol
        rng = np.random.default_rng(8)
        u = rng.choice([0.0, 0.5 * e, -2.0 * e, 1e-300, 1.0, -3.0, 1e200], 400)
        v = rng.choice([-e, -0.5 * e, 0.0, 0.5 * e, 2.0 * e, 1e-300, 0.3, 7.0], 400)
        u *= rng.uniform(0.5, 2.0, 400)
        with np.errstate(all="ignore"):  # rows v <= 0 divide too
            cols = elementwise(persp_sq)(u, v)
        want = [persp_sq(a, b) for a, b in zip(u.tolist(), v.tolist())]
        assert [c.hex() for c in cols.tolist()] == [w.hex() for w in want]

    def test_a_flag_guard_raises_on_columns(self):
        p = HullPoint(0.3, 0.8, 0.5, 0.7, 1.28, 0.7, 0.5)
        cols = HullColumns.of_rows(np.array([p.coords()] * 3))
        with pytest.raises(ValueError, match="unknown family 'IV'"):
            elementwise(q_gradient)("IV", cols)


class TestTolerances:
    def test_defaults_nested(self):
        t = Tolerances()
        assert 0 < t.eq_tol <= t.mem_tol <= t.oracle_tol

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValueError):
            Tolerances(eq_tol=1e-6, mem_tol=1e-9, oracle_tol=1e-6)
        with pytest.raises(ValueError):
            Tolerances(eq_tol=0.0)

    def test_oracle_tol_may_be_zero(self):
        # oracle_tol = 0 compares the oracle's objective with X11 itself;
        # any other oracle_tol still nests above mem_tol
        assert Tolerances(oracle_tol=0.0).oracle_tol == 0.0
        for bad in (1e-9, -1e-6, math.nan, math.inf):
            with pytest.raises(ValueError):
                Tolerances(oracle_tol=bad)


class TestDomainValidation:
    def test_negative_coordinate_rejected(self):
        with pytest.raises(NotInAmbientBox):
            validate_point(HullPoint(-1.0, 0.0, 1.0, 0.0, 1.0, 0.5, 0.5))

    def test_indicator_above_one_rejected(self):
        with pytest.raises(NotInAmbientBox):
            validate_point(HullPoint(1.0, 0.0, 1.0, 0.0, 1.0, 1.5, 0.5))

    def test_non_finite_rejected(self):
        with pytest.raises(NotInAmbientBox):
            validate_point(HullPoint(math.nan, 0.0, 1.0, 0.0, 1.0, 0.5, 0.5))


class TestRelaxationMembership:
    def test_vertex_point(self):
        assert in_relaxation_ctilde(HullPoint(1, 1, 1, 1, 1, 1, 1))

    def test_edge_point(self):
        assert in_relaxation_ctilde(HullPoint(1, 0, 2, 0, 0, 0.5, 0))

    def test_perspective_violation(self):
        assert not in_relaxation_ctilde(HullPoint(1, 1, 1, 1, 1, 0.5, 0.5))

    def test_infinite_closure_enters_the_slack_as_neg_inf(self):
        # z1 = 0 with x1 > 0: x1^2/z1 closes to +inf, so X11 - (+inf) = -inf
        p = HullPoint(0.5, 1, 1, 0.5, 1, 0, 1)
        s = ctilde_slacks(p)
        assert s["persp1"] == -math.inf and math.isfinite(s["persp2"])
        assert not in_relaxation_ctilde(p)

    def test_all_vertex_samples_pass(self, s2_batch):
        for row in s2_batch[:2000]:
            p = HullPoint.from_coords(row)
            assert in_relaxation_ctilde(p)
            assert separable_holds(p)
