import json

import numpy as np
import pytest

from pairhull import (
    HullPoint,
    Region,
    SampleSeed,
    analytic_witness,
    aux_weight_maximizer,
    classify,
    in_relaxation_ctilde,
    member_hull,
    oracle_member,
    oracle_members,
    oracle_objective,
    sample_S2,
    sample_hull,
    sample_separable_relaxation,
)
from pairhull.errors import (
    EmptyFeasibleSet,
    InfeasibleWitness,
    NotInAmbientBox,
    RegionHasNoClosedWitness,
)
from pairhull.core import Tolerances
from pairhull.columns import elementwise
from pairhull.oracle import (
    _grid_eval,
    _sample_separable_array,
    _witness_objective,
    witness_slacks,
)
from pairhull.verify import (
    ctilde_margin_points,
    run_oracle_suite,
    sample_ctilde_points,
    shrunken_nonmembers,
)

WORKED = HullPoint(0.1, 1.0, 1.0, 1.2, 2.5, 0.5, 0.5)


class TestObjective:
    def test_vertex_witness_collapses(self):
        p = HullPoint(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        f = oracle_objective(p, (1.0, 1.0, 1.0))
        assert f.value == pytest.approx(1.0)

    def test_zero_slack_with_nonzero_coupling_is_infinite(self):
        p = HullPoint(1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0)
        f = oracle_objective(p, (0.0, 1.0, 1.0))  # g2 = 0, h = 0.5
        assert f.infinite

    def test_balanced_point_attains_lower_bound(self):
        p = HullPoint(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
        lam = p.X12 * p.z1 * p.z2 / (p.x1 * p.x2)
        w = (lam * p.x1 / p.z1, lam * p.x2 / p.z2, lam)
        f = oracle_objective(p, w)
        assert f.value == pytest.approx(p.x1 ** 2 / p.z1)

    def test_infeasible_witness_rejected(self):
        with pytest.raises(InfeasibleWitness):
            oracle_objective(WORKED, (0.2, 0.5, 0.4))  # xt41 > x1

    def test_witness_slacks_names(self):
        s = witness_slacks(WORKED, (0.05, 0.5, 0.25))
        assert set(s) == {
            "lambda.lo",
            "lambda.hi",
            "lambda.pos",
            "xt41.lo",
            "xt41.hi",
            "xt42.lo",
            "xt42.hi",
            "g2",
        }


class TestOracleMember:
    def test_worked_nonmember_objective(self):
        member, wit = oracle_member(WORKED)
        assert not member
        assert wit.objective.value == pytest.approx(2.02, abs=1e-3)

    def test_convex_combinations_are_members(self):
        for k in (2, 5, 8):
            for p in sample_hull(SampleSeed(101 + k, 15), k):
                if min(p.z1, p.z2) <= 1e-9:
                    continue
                member, _ = oracle_member(p)
                assert member, p

    def test_vertex_point_witness_weight_is_one(self):
        p = HullPoint(1.2, 0.7, 1.44, 0.84, 0.49, 1.0, 1.0)
        member, wit = oracle_member(p)
        assert member
        assert wit.lambda4 == pytest.approx(1.0)

    def test_returned_witness_is_feasible(self):
        rng = np.random.default_rng(71)
        for row in _sample_separable_array(rng, 25, 2.0, 4.0):
            p = HullPoint.from_coords(row)
            if min(p.z1, p.z2) < 0.05:
                continue
            _, wit = oracle_member(p)
            slacks = witness_slacks(p, (wit.xt41, wit.xt42, wit.lambda4))
            assert min(slacks.values()) >= -1e-9

    def test_empty_weight_interval(self):
        with pytest.raises(EmptyFeasibleSet):
            oracle_member(HullPoint(1.0, 0.0, 2.0, 0.0, 0.0, 0.5, 0.0))

    def test_nonmembers_are_separated_by_margin(self):
        rng = np.random.default_rng(72)
        for p in shrunken_nonmembers(rng, 10):
            member, wit = oracle_member(p)
            assert not member
            assert wit.objective.value > p.X11 + 10 * 1e-6

    def test_objective_is_nonnegative(self):
        rng = np.random.default_rng(78)
        for row in _sample_separable_array(rng, 40, 2.0, 4.0):
            p = HullPoint.from_coords(row)
            if min(p.z1, p.z2) < 0.05:
                continue
            _, wit = oracle_member(p)
            assert wit.objective.infinite or wit.objective.value >= 0.0

    def test_stationarity_at_interior_optima(self):
        objective = elementwise(_witness_objective)
        rng = np.random.default_rng(79)
        checked = 0
        for row in _sample_separable_array(rng, 200, 2.0, 4.0):
            p = HullPoint.from_coords(row)
            if min(p.z1, p.z2) < 0.1 or p.X12 < 0.05:
                continue
            _, wit = oracle_member(p)
            base = np.array([wit.lambda4, wit.xt41, wit.xt42])
            lo = np.array([max(p.z1 + p.z2 - 1.0, 0.0), 0.0, 0.0])
            hi = np.array([min(p.z1, p.z2), p.x1, p.x2])
            if np.any(base - lo < 1e-4) or np.any(hi - base < 1e-4):
                continue  # box-boundary optimum, gradient need not vanish
            g2 = witness_slacks(p, (wit.xt41, wit.xt42, wit.lambda4))["g2"]
            if g2 < 0.05:
                # near the quadratic-constraint boundary the curvature of
                # the coupling term swamps finite differences
                continue
            grad = np.zeros(3)
            for i in range(3):
                up, dn = base.copy(), base.copy()
                up[i] += 1e-7
                dn[i] -= 1e-7
                with np.errstate(divide="ignore", invalid="ignore"):
                    fa = float(objective(p, up[0], up[1], up[2], 1e-9))
                    fb = float(objective(p, dn[0], dn[1], dn[2], 1e-9))
                grad[i] = (fa - fb) / 2e-7
            if not np.all(np.isfinite(grad)):
                continue  # optimum on the feasibility boundary
            assert float(np.max(np.abs(grad))) <= 1e-5
            checked += 1
        assert checked >= 5


# oracle_member outputs (member, xt41, xt42, lambda4, objective), objective
# "inf" when infinite, as float.hex: any change to the grid or zoom
# arithmetic that moves a bit of the witness shows here.
ORACLE_PINS = [
    ("lam_lo_zero", (0.3, 0.4, 0.5, 0.2, 0.6, 0.4, 0.5), True,
     "0x1.8c24130d59ed7p-4", "0x1.111110fcccccdp-2", "0x1.08180ca000000p-3",
     "0x1.ccccccccccccap-3"),
    # both z - lambda denominators reach 0 at lambda_hi
    ("z1_eq_z2", (0.3, 0.4, 0.5, 0.2, 0.6, 0.6, 0.6), True,
     "0x1.75d75d75d75d6p-3", "0x1.999999999999ap-2", "0x1.75d75d75d75d6p-2",
     "0x1.3333333333332p-3"),
    ("z1_eq_z2_lam_lo_zero", (0.3, 0.4, 0.5, 0.2, 0.6, 0.4, 0.4), True,
     "0x1.99dd5e4ccda93p-4", "0x1.111111199999ap-2", "0x1.113e3ee666668p-3",
     "0x1.ccccccccccccap-3"),
    # the zoom stops after one round
    ("x2_zero", (0.3, 0.0, 0.5, 0.1, 0.3, 0.7, 0.6), True,
     "0x1.0750750750750p-3", "0x0.0p+0", "0x1.3333333333330p-2",
     "0x1.4b94b94b94b94p-3"),
    ("x1_zero", (0.0, 0.4, 0.5, 0.2, 0.6, 0.7, 0.6), True,
     "0x0.0p+0", "0x1.c09c09c09c099p-3", "0x1.5075075075072p-2",
     "0x1.eb851eb851ebap-4"),
    ("X12_zero", (0.3, 0.4, 0.5, 0.0, 0.6, 0.7, 0.6), True,
     "0x1.0750750750750p-3", "0x0.0p+0", "0x1.3333333333330p-2",
     "0x1.0750750750750p-3"),
    # X22 < x2^2 / z2: g2 <= 0 on every grid column, objective +inf
    ("g2_nonpositive_everywhere", (0.3, 0.4, 0.5, 0.2, 0.2, 0.7, 0.6), False,
     "0x0.0p+0", "0x0.0p+0", "0x1.3333333333330p-2", "inf"),
    ("worked_nonmember", (0.1, 1.0, 1.0, 1.2, 2.5, 0.5, 0.5), False,
     "0x1.999999999999ap-4", "0x1.2bffff8000000p-3", "0x1.9fffff0000000p-5",
     "0x1.028f5c28f5c26p+1"),
    # one-point weight interval lambda = 1
    ("both_indicators_one", (0.5, 0.5, 0.3, 0.25, 0.3, 1.0, 1.0), True,
     "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p+0",
     "0x1.0000000000000p-2"),
    ("small_indicator", (0.01, 0.5, 0.2, 0.05, 0.6, 0.001, 0.8), True,
     "0x1.c47ad921551c8p-11", "0x1.47ae142000000p-8", "0x1.69fbe083126eap-14",
     "0x1.9999999999998p-4"),
    ("scaled_member", (30.0, 40.0, 5000.0, 1500.0, 6000.0, 0.7, 0.6), True,
     "0x1.8e92492492493p+4", "0x1.1800000000000p+5", "0x1.299999999999ap-1",
     "0x1.416db6db6db6dp+10"),
    ("interior_member", (0.5, 0.6, 0.6, 0.35, 0.8, 0.55, 0.65), True,
     "0x1.90da17875a97bp-3", "0x1.8a3d7095fffffp-2", "0x1.b8efe69f3333ap-3",
     "0x1.d1745d1745d14p-2"),
]


def _hex_result(res):
    member, wit = res
    obj = "inf" if wit.objective.infinite else float(wit.objective.value).hex()
    return (
        bool(member),
        float(wit.xt41).hex(),
        float(wit.xt42).hex(),
        float(wit.lambda4).hex(),
        obj,
    )


class TestPinnedOracle:
    @pytest.mark.parametrize(
        "coords, expected", [(pin[1], pin[2:]) for pin in ORACLE_PINS],
        ids=[pin[0] for pin in ORACLE_PINS],
    )
    def test_edge_case_outputs_bit_for_bit(self, coords, expected):
        member, wit = oracle_member(HullPoint(*coords))
        obj = "inf" if wit.objective.infinite else float(wit.objective.value).hex()
        got = (
            bool(member),
            float(wit.xt41).hex(),
            float(wit.xt42).hex(),
            float(wit.lambda4).hex(),
            obj,
        )
        assert got == expected

    # one batch mixes the one-round zoom (x2_zero), the single 14-round
    # pass (both_indicators_one) and the +inf objective with regular points
    @pytest.mark.parametrize("order", [1, -1], ids=["listed", "reversed"])
    def test_batch_outputs_bit_for_bit(self, order):
        pins = ORACLE_PINS[::order]
        got = oracle_members([HullPoint(*pin[1]) for pin in pins])
        assert [_hex_result(res) for res in got] == [tuple(pin[2:]) for pin in pins]

    def test_failing_points_hold_their_error_in_a_batch(self):
        good = [HullPoint(*pin[1]) for pin in ORACLE_PINS[:6]]
        z2_zero = HullPoint(0.3, 0.4, 0.5, 0.2, 0.6, 0.5, 0.0)
        outside = HullPoint(-1.0, 0.4, 0.5, 0.2, 0.6, 0.5, 0.5)
        got = oracle_members(good[:3] + [z2_zero] + good[3:5] + [outside] + good[5:])
        assert isinstance(got[3], EmptyFeasibleSet)
        assert isinstance(got[6], NotInAmbientBox)
        rest = got[:3] + got[4:6] + got[7:]
        assert [_hex_result(res) for res in rest] == [
            _hex_result(oracle_member(p)) for p in good
        ]

    def test_grid_is_exact_argmin_of_the_objective(self):
        e = 1e-9
        pts = ctilde_margin_points(np.random.default_rng(91), 6)
        pts += shrunken_nonmembers(np.random.default_rng(92), 4)
        pts += [p for p in sample_hull(SampleSeed(93, 6), 3) if min(p.z1, p.z2) > e]
        for p in pts:
            lam_hi = min(p.z1, p.z2)
            lam = np.linspace(min(max(p.z1 + p.z2 - 1.0, 0.0), lam_hi), lam_hi, 64)
            a1_ax = np.linspace(0.0, p.x1, 64)
            a2_ax = np.linspace(0.0, p.x2, 64)
            cols1 = np.tile(a1_ax, (64, 1))
            cols2 = np.tile(a2_ax, (64, 1))
            if p.x1 > 0.0:  # ridge columns a_i = lam x_i / z_i
                cols1 = np.column_stack([cols1, np.clip(lam * p.x1 / p.z1, 0.0, p.x1)])
            if p.x2 > 0.0:
                cols2 = np.column_stack([cols2, np.clip(lam * p.x2 / p.z2, 0.0, p.x2)])
            with np.errstate(divide="ignore", invalid="ignore"):
                f = elementwise(_witness_objective)(
                    p, lam[:, None, None], cols1[:, :, None], cols2[:, None, :], e
                )
            i, j, k = np.unravel_index(int(np.argmin(f)), f.shape)
            expected = (float(f[i, j, k]), lam[i], cols1[i, j], cols2[i, k])
            assert _grid_eval(p, lam, a1_ax, a2_ax, e) == expected


class TestOracleSuite:
    def test_worst_slack_is_smallest_signed_margin(self):
        report = run_oracle_suite(5, seed=11)
        margins = []
        for p in ctilde_margin_points(np.random.default_rng(11), 5):
            _, wit = oracle_member(p)
            m = p.X11 + 1e-6 - wit.objective.value
            margins.append(m if member_hull(p).member else -m)
        assert report.ok
        assert report.worst_slack == min(margins) > 0.0

    def test_disagreement_gives_nonpositive_worst_slack(self):
        # an oracle band wider than every margin turns non-members into
        # oracle members
        report = run_oracle_suite(5, seed=11, tol=Tolerances(oracle_tol=100.0))
        assert not report.ok
        assert report.worst_slack <= 0.0

    def test_relaxation_samples_carry_plain_floats(self):
        pts = sample_ctilde_points(np.random.default_rng(12), 4)
        pts += ctilde_margin_points(np.random.default_rng(13), 2)
        for p in pts:
            assert all(type(v) is float for v in p.coords())
        member, _ = oracle_member(pts[-1])
        assert type(member) is bool
        json.dumps({"member": member})


class TestAnalyticWitness:
    def test_r2_formula(self):
        rng = np.random.default_rng(73)
        p = _find_region_point(rng, Region.R2)
        w = analytic_witness(p, Region.R2)
        assert w.xt41 == pytest.approx(p.x1)
        assert w.xt42 == pytest.approx(p.X12 * p.z1 / p.x1)
        assert w.lambda4 == pytest.approx(p.z1)
        # part I bound: the lower envelope value is x1^2/z1
        assert w.objective.value == pytest.approx(p.x1 ** 2 / p.z1, rel=1e-9)

    def test_r6_formula_zeroes_the_coupling(self):
        rng = np.random.default_rng(74)
        p = _find_region_point(rng, Region.R6)
        w = analytic_witness(p, Region.R6)
        s = p.z1 + p.z2 - 1.0
        assert w.lambda4 == pytest.approx(s)
        assert w.xt41 == pytest.approx(s * p.x1 / p.z1)
        assert w.xt42 == pytest.approx(p.X12 * p.z1 / p.x1)
        assert w.objective.value == pytest.approx(p.x1 ** 2 / p.z1, rel=1e-9)

    @pytest.mark.parametrize(
        "region",
        [Region.R1, Region.R2, Region.R3, Region.R5, Region.R6, Region.R7, Region.R8],
    )
    def test_matches_numeric_minimum(self, region):
        rng = np.random.default_rng(75)
        checked = 0
        while checked < 8:
            p = _find_region_point(rng, region)
            try:
                w = analytic_witness(p, region)
            except RegionHasNoClosedWitness:
                continue
            _, nw = oracle_member(p)
            assert not w.objective.infinite and not nw.objective.infinite
            assert abs(w.objective.value - nw.objective.value) <= 1e-4 * (
                1.0 + abs(w.objective.value)
            )
            checked += 1

    def test_epsilon_interior_regions_refuse(self):
        rng = np.random.default_rng(76)
        p = _find_region_point(rng, Region.R4)
        with pytest.raises(RegionHasNoClosedWitness):
            analytic_witness(p, Region.R4)

    def test_region_mismatch_rejected(self):
        with pytest.raises(ValueError):
            analytic_witness(WORKED, Region.R5)


def _find_region_point(rng, region, z_floor=0.05):
    from pairhull.verify import sample_ctilde_points

    while True:
        for p in sample_ctilde_points(rng, 64):
            if min(p.z1, p.z2) < z_floor or p.X12 < 0.05:
                continue
            if classify(p) is region:
                return p


class TestAuxWeightMaximizer:
    def test_matches_grid_maximum(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 40:
            x1, x2 = rng.uniform(0.1, 2.0, 2)
            z1, z2 = rng.uniform(0.1, 1.0, 2)
            X12 = rng.uniform(0.05, 2.0)
            X22 = x2 * x2 / z2 + rng.uniform(0.0, 2.0)
            p = HullPoint(x1, x2, 1.0, X12, X22, z1, z2)
            a2 = X12 * z1 / x1
            lam_star = aux_weight_maximizer(p)
            if not 1e-6 < lam_star < z2 - 1e-6:
                continue
            lam = np.linspace(1e-9, z2 - 1e-9, 20001)
            vals = X22 - a2 * a2 / lam - (x2 - a2) ** 2 / (z2 - lam)
            lam_best = lam[int(np.argmax(vals))]
            assert lam_star == pytest.approx(lam_best, abs=2 * (z2 / 20000))
            checked += 1


class TestSamplers:
    def test_seed_count_validated(self):
        with pytest.raises(ValueError):
            SampleSeed(1, 0)

    def test_reproducible_streams(self):
        a = sample_S2(SampleSeed(5, 50))
        b = sample_S2(SampleSeed(5, 50))
        assert a == b
        c = sample_hull(SampleSeed(5, 20), 4)
        d = sample_hull(SampleSeed(5, 20), 4)
        assert c == d

    def test_vertex_patterns(self):
        for p in sample_S2(SampleSeed(9, 500)):
            z = (round(p.z1), round(p.z2))
            assert (p.z1, p.z2) == z
            if z == (0, 0):
                assert p.coords() == (0, 0, 0, 0, 0, 0, 0)
            elif z == (1, 0):
                assert p.x2 == p.X12 == p.X22 == 0
                assert p.X11 == pytest.approx(p.x1 ** 2)
            elif z == (0, 1):
                assert p.x1 == p.X11 == p.X12 == 0
                assert p.X22 == pytest.approx(p.x2 ** 2)
            else:
                assert p.X11 == pytest.approx(p.x1 ** 2)
                assert p.X12 == pytest.approx(p.x1 * p.x2)
                assert p.X22 == pytest.approx(p.x2 ** 2)

    def test_single_point_combination_is_vertex(self):
        (p,) = sample_hull(SampleSeed(3, 1), 1)
        assert p.z1 in (0.0, 1.0) and p.z2 in (0.0, 1.0)
        assert p.X11 == pytest.approx(p.x1 ** 2)

    def test_midpoint_example(self):
        origin = np.zeros(7)
        vertex = np.array([1, 1, 1, 1, 1, 1, 1], dtype=float)
        mid = HullPoint.from_coords(0.5 * (origin + vertex))
        assert mid == HullPoint(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
        assert classify(mid) is Region.R1
        assert member_hull(mid).member

    def test_vertex_samples_pass_membership(self):
        for p in sample_S2(SampleSeed(13, 800)):
            assert in_relaxation_ctilde(p)
            assert member_hull(p).member

    def test_separable_samples_in_relaxation(self):
        from pairhull import in_separable_relaxation

        for p in sample_separable_relaxation(SampleSeed(15, 300)):
            assert in_separable_relaxation(p)
