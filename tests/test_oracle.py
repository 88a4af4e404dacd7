import ast
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pairhull import (
    HullPoint,
    Region,
    classify,
    in_relaxation_ctilde,
    member_hull,
    oracle_member,
    oracle_members,
    oracle_objective,
)
from pairhull import hull
from pairhull.errors import (
    EmptyFeasibleSet,
    InfeasibleWitness,
    NotInAmbientBox,
)
from pairhull.core import DEFAULT_TOL, Tolerances, ctilde_holds, separable_holds
from pairhull.columns import elementwise
from pairhull.families import x11_root
from pairhull.hull import closed_witness
from pairhull.oracle import (
    COARSE_FIRST,
    GRID,
    ORACLE_CHUNK,
    ZOOM_WIDTH,
    _a2_bracket,
    _oracle_chunk,
    _sweep,
    _weight_interval,
    _witness_g2,
    _witness_objective,
    witness_slacks,
)
from pairhull.separation import oracle_proposal
from pairhull.verify import (
    LIFT_MAX,
    ORACLE_MARGIN,
    XMAX,
    Z_FLOOR,
    _sample_hull_array,
    _sample_s2_array,
    _sample_separable_array,
    ctilde_margin_points,
    run_oracle_suite,
    sample_ctilde_points,
    shrunken_nonmembers,
)
from reference import closed_form_optimum

WORKED = HullPoint(0.1, 1.0, 1.0, 1.2, 2.5, 0.5, 0.5)
SRC = Path(__file__).resolve().parent.parent / "src" / "pairhull"
#: Compares the oracle's objective with X11 itself.  X11 does not enter the
#: search, so "member at X11 = F + d" states "objective <= F + d" exactly.
EXACT = Tolerances(oracle_tol=0.0)


def _points(rows):
    return [HullPoint.from_coords(row) for row in rows]


def _full_search(points, tol=DEFAULT_TOL, zoom_rounds=10):
    """oracle_members with the stop threshold at NaN, which never fires:
    every point runs the whole zoom."""
    rows = [(p, *_weight_interval(p, tol)) for p in points]
    out = []
    for i in range(0, len(rows), ORACLE_CHUNK):
        out += _oracle_chunk(rows[i : i + ORACLE_CHUNK], tol, zoom_rounds, stop=False)
    return out


class TestObjective:
    def test_vertex_witness_collapses(self):
        p = HullPoint(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        f = oracle_objective(p, (1.0, 1.0, 1.0))
        assert f == pytest.approx(1.0)

    def test_zero_slack_with_nonzero_coupling_is_infinite(self):
        p = HullPoint(1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0)
        f = oracle_objective(p, (0.0, 1.0, 1.0))  # g2 = 0, h = 0.5
        assert math.isinf(f)

    def test_balanced_point_attains_lower_bound(self):
        p = HullPoint(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
        lam = p.X12 * p.z1 * p.z2 / (p.x1 * p.x2)
        w = (lam * p.x1 / p.z1, lam * p.x2 / p.z2, lam)
        f = oracle_objective(p, w)
        assert f == pytest.approx(p.x1 ** 2 / p.z1)

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
        # the least objective is 2.02 within 1e-3
        member, _ = oracle_member(WORKED)
        assert not member
        assert oracle_member(replace(WORKED, X11=2.021), EXACT)[0]
        assert not oracle_member(replace(WORKED, X11=2.019), EXACT)[0]

    def test_convex_combinations_are_members(self):
        for k in (2, 5, 8):
            for p in _points(_sample_hull_array(np.random.default_rng(101 + k), 15, k)):
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
        for row in _sample_separable_array(rng, 25):
            p = HullPoint.from_coords(row)
            if min(p.z1, p.z2) < 0.05:
                continue
            _, wit = oracle_member(p)
            slacks = witness_slacks(p, (wit.xt41, wit.xt42, wit.lambda4))
            assert min(slacks.values()) >= -1e-9

    def test_empty_weight_interval(self):
        with pytest.raises(EmptyFeasibleSet):
            oracle_member(HullPoint(1.0, 0.0, 2.0, 0.0, 0.0, 0.5, 0.0))

    def test_r8_optimum_on_a_narrow_a2_interval(self):
        # point 156 of ctilde_margin_points(default_rng(7), 200): the optimum
        # sits at lambda = z1 + z2 - 1 with g2 = 0, where the feasible a2
        # interval [1.30908, 1.31704] is about a third of x2 / 63 wide, so
        # the search must reach it by sampling a2 inside that interval
        # (_a2_bracket), not across [0, x2]; 2.122941640066569 is its
        # closed-form optimum (closed_witness)
        p = HullPoint(
            1.4130575426467569, 1.5410279630693609, 2.1326427688477576,
            1.687031822085912, 6.806505247396112, 0.9483849477436118,
            0.34891514518086963,
        )
        member, _ = oracle_member(p)
        assert member
        assert oracle_member(replace(p, X11=2.122941640066569 + 1e-9), EXACT)[0]

    def test_nonmembers_are_separated_by_margin(self):
        rng = np.random.default_rng(72)
        for p in shrunken_nonmembers(rng, 10):
            member, wit = oracle_member(p)
            assert not member
            assert wit.objective > p.X11 + 10 * 1e-6

    def test_objective_is_nonnegative(self):
        rng = np.random.default_rng(78)
        for row in _sample_separable_array(rng, 40):
            p = HullPoint.from_coords(row)
            if min(p.z1, p.z2) < 0.05:
                continue
            _, wit = oracle_member(p)
            assert math.isinf(wit.objective) or wit.objective >= 0.0

    def test_stationarity_at_interior_optima(self):
        objective = elementwise(_witness_objective)
        rng = np.random.default_rng(79)
        checked = 0
        for row in _sample_separable_array(rng, 200):
            p = HullPoint.from_coords(row)
            if min(p.z1, p.z2) < 0.1 or p.X12 < 0.05:
                continue
            ((_, wit),) = _full_search([p])
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


# outputs (member, xt41, xt42, lambda4, objective) of the full search
# (_full_search), objective "inf" when infinite, as float.hex: any change to
# the coarse pass or zoom arithmetic that moves a bit of the witness shows
# here.
ORACLE_PINS = [
    ("lam_lo_zero", (0.3, 0.4, 0.5, 0.2, 0.6, 0.4, 0.5), True,
     "0x1.cb977f6984c46p-3", "0x1.11111106bddadp-2", "0x1.3264ff999999ap-2",
     "0x1.ccccccccccccbp-3"),
    # both z - lambda denominators reach 0 at lambda_hi
    ("z1_eq_z2", (0.3, 0.4, 0.5, 0.2, 0.6, 0.6, 0.6), True,
     "0x1.75d75d75d75d6p-3", "0x1.999999999999ap-2", "0x1.75d75d75d75d6p-2",
     "0x1.3333333333332p-3"),
    ("z1_eq_z2_lam_lo_zero", (0.3, 0.4, 0.5, 0.2, 0.6, 0.4, 0.4), True,
     "0x1.999999954e16cp-4", "0x1.11111113ee130p-2", "0x1.1111111111111p-3",
     "0x1.ccccccccccccap-3"),
    # the zoom stops after one round
    ("x2_zero", (0.3, 0.0, 0.5, 0.1, 0.3, 0.7, 0.6), True,
     "0x1.075075075074fp-3", "0x0.0p+0", "0x1.3333333333330p-2",
     "0x1.4b94b94b94b94p-3"),
    ("x1_zero", (0.0, 0.4, 0.5, 0.2, 0.6, 0.7, 0.6), True,
     "0x0.0p+0", "0x1.a800000000000p-3", "0x1.3dffffffffffdp-2",
     "0x1.eb851eb851ebap-4"),
    ("X12_zero", (0.3, 0.4, 0.5, 0.0, 0.6, 0.7, 0.6), True,
     "0x1.075075075074fp-3", "0x0.0p+0", "0x1.3333333333330p-2",
     "0x1.0750750750750p-3"),
    # X22 < x2^2 / z2: g2 < -eq_tol at every split, objective +inf
    ("g2_nonpositive_everywhere", (0.3, 0.4, 0.5, 0.2, 0.2, 0.7, 0.6), False,
     "0x0.0p+0", "0x0.0p+0", "0x1.3333333333330p-2", "inf"),
    ("worked_nonmember", (0.1, 1.0, 1.0, 1.2, 2.5, 0.5, 0.5), False,
     "0x1.999999999999ap-4", "0x1.ffe56663904cep-1", "0x1.ffe3fffd00000p-2",
     "0x1.028f5c28f5c26p+1"),
    # one-point weight interval lambda = 1
    ("both_indicators_one", (0.5, 0.5, 0.3, 0.25, 0.3, 1.0, 1.0), True,
     "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p+0",
     "0x1.0000000000000p-2"),
    ("small_indicator", (0.01, 0.5, 0.2, 0.05, 0.6, 0.001, 0.8), True,
     "0x1.51eb83f9b0558p-8", "0x1.47ae13ddc92cbp-8", "0x1.0e560322d0e56p-11",
     "0x1.9999999999999p-4"),
    ("scaled_member", (30.0, 40.0, 5000.0, 1500.0, 6000.0, 0.7, 0.6), True,
     "0x1.9ca5c0492491fp+3", "0x1.1800000000000p+5", "0x1.341c2fffffffcp-2",
     "0x1.416db6db6db6cp+10"),
    ("interior_member", (0.5, 0.6, 0.6, 0.35, 0.8, 0.55, 0.65), True,
     "0x1.9e5cef21a133fp-3", "0x1.8a3d70a69c5afp-2", "0x1.c7cca0a800006p-3",
     "0x1.d1745d1745d14p-2"),
]


# the full search on the 64 rows of _sample_separable_array(default_rng(7),
# 64), in the format of ORACLE_PINS; z1 + z2 <= 1, and with it a
# lambda = 0 weight of the coarse pass, on 25 of them
SEPARABLE_PINS = [
    (True, "0x1.591126e9a1a80p-7", "0x1.0c72876cb8438p-2",
     "0x1.86b57801ec743p-3", "0x1.336c42edb9c42p-1"),
    (False, "0x1.df2a571c79f0ep-1", "0x1.4cd9b5800fd8fp-3",
     "0x1.496b141388bdcp-2", "0x1.edb329e9415a7p+3"),
    (True, "0x1.5802ca138eb14p-2", "0x1.dc06ea58ce55ep-2",
     "0x1.1205684c50508p-2", "0x1.65ede908cb903p-1"),
    (True, "0x1.fbcdd5b06b6c2p-3", "0x1.8c863d7740cd0p-3",
     "0x1.7a0f4694ec800p-3", "0x1.2605fa9593b77p-1"),
    (False, "0x1.244af7ce3b760p-4", "0x1.cecf03af2535fp-1",
     "0x1.2e063f60979fbp-1", "0x1.5bca75894d8e0p+3"),
    (False, "0x1.d0bf8d5ba4fbdp-1", "0x1.86d62e1686428p-2",
     "0x1.10a7e51196da4p-1", "0x1.b92776b7c276ep+1"),
    (False, "0x1.fae91a7b08f64p-2", "0x1.55f8f71cb6982p-1",
     "0x1.0548fe90adaf8p-1", "0x1.68b68e1fdd96fp+4"),
    (True, "0x1.c5f0e31bba457p-3", "0x1.7962a94f1bc60p-2",
     "0x1.c9ecb9a8760abp-4", "0x1.e8990cba75828p-1"),
    (False, "0x1.4789022d6a74dp+0", "0x1.fc5b0324d17d7p-1",
     "0x1.302765b7b78b6p-1", "0x1.aa397cacbf028p+2"),
    (False, "0x1.71ef349abe7c4p-1", "0x1.60826ccd4c954p-1",
     "0x1.600929186d54cp-1", "0x1.2fc477267c9bcp+1"),
    (True, "0x1.37383f199cf7fp-5", "0x1.111d718f3f270p-4",
     "0x1.165835d9f0217p-5", "0x1.16a785b2db2a0p-2"),
    (True, "0x1.339bea61ce224p-2", "0x1.697aaa4d3d91bp-1",
     "0x1.238a41d3a2f82p-1", "0x1.698d8cddf7286p+0"),
    (True, "0x1.801f49f97918bp-2", "0x1.285be50c33ed9p-1",
     "0x1.6dc7eef84eda1p-3", "0x1.5708978dc8ab0p+1"),
    (False, "0x1.eaa082aadd2c8p-2", "0x1.1efff895d16d4p-2",
     "0x1.116115068ac4cp-3", "0x1.19da2c6694f9ep+2"),
    (True, "0x1.9f95619590b70p-3", "0x1.f95eca341a408p-3",
     "0x1.ae912f7d17182p-6", "0x1.437524de63146p+1"),
    (False, "0x1.f3eab4182970bp-2", "0x1.6a1a14e16dae0p-2",
     "0x1.258b0516f480dp-3", "0x1.b3eadf140ac6ep+1"),
    (False, "0x1.0d8c97c443a6cp-2", "0x1.b4d758fd8702bp-2",
     "0x1.042baf5bedc9dp-3", "0x1.7d524c3a46701p+2"),
    (True, "0x1.0002f2cc16873p-4", "0x1.ffc9388d7ff8fp-3",
     "0x1.9eea5fa633f9dp-6", "0x1.6f9f9b303088ep-1"),
    (True, "0x1.296f74f465f34p-2", "0x1.0ab7c284ea340p-4",
     "0x1.6bc7ffeda0cd4p-1", "0x1.70d197106abbbp+0"),
    (True, "0x1.4529a83b684e5p+0", "0x1.f99450076f88fp-2",
     "0x1.90c10d87661fbp-1", "0x1.0a86656a14188p+1"),
    (True, "0x1.1dae3eedee6fdp-1", "0x1.c448d2ea9c830p-1",
     "0x1.b846680fbf18cp-2", "0x1.f40ae020b70e3p-1"),
    (False, "0x1.d92688d609b8dp-2", "0x1.d11877b752930p-4",
     "0x1.67abe7e59017ep-3", "0x1.70ba83b1dde40p+2"),
    (False, "0x1.9ca6884ddc6d2p-2", "0x1.d1437c75f4a4cp-2",
     "0x1.ed25283f1fa8ep-3", "0x1.11decdc6d5e8fp+1"),
    (True, "0x1.9992821b44baep-5", "0x1.0e88308d98cd0p-4",
     "0x1.338bb8d88015dp-1", "0x1.1e900956a6d10p-1"),
    (True, "0x1.90d2eda02824ep-5", "0x1.f85aff1d790f8p-3",
     "0x1.85218a8961ec2p-1", "0x1.11a74ce134de2p-7"),
    (True, "0x1.f75db57e83e90p-3", "0x1.690139202b2f8p-2",
     "0x1.07c7d55822544p-3", "0x1.171e277bd1432p+1"),
    (True, "0x1.bf69b1601e283p-1", "0x1.058c55398c998p-1",
     "0x1.d267c72c66e7fp-2", "0x1.77da14b0b716cp+1"),
    (True, "0x1.5366f34ec2600p-7", "0x1.2cff5160952b8p-3",
     "0x1.daef89ad44879p-3", "0x1.60e8d99311bfep-5"),
    (True, "0x1.cfb71d69d8620p-2", "0x1.42eb4a77f1812p-1",
     "0x1.745016bbfcfb8p-2", "0x1.0320321e1a0ccp+0"),
    (False, "0x1.8c4bfc6b5a40fp-3", "0x1.0ff7940fbf780p-3",
     "0x1.79e26548346b6p-7", "0x1.80475dc5e2382p+2"),
    (True, "0x1.13e399fafcde3p-1", "0x1.dc399817a7a9cp-1",
     "0x1.eb1c5b45220e4p-3", "0x1.4eda1899812d0p+0"),
    (False, "0x1.a586917d7f628p-1", "0x1.4bf4000b37265p-1",
     "0x1.e7f1cdf30a9dfp-2", "0x1.03f771c482f04p+2"),
    (False, "0x1.197544e18b580p-3", "0x1.e66d4354b31c4p-4",
     "0x1.850934b6ae371p-3", "0x1.06aeed65e921fp+1"),
    (True, "0x1.a41dd31e6e277p-2", "0x1.2697b0f0c3b27p+0",
     "0x1.527824755b401p-1", "0x1.515c156bdf1a6p-2"),
    (True, "0x1.9645b3458d241p-1", "0x1.6a97c860a4e9bp-2",
     "0x1.6872fa0c0d62cp-2", "0x1.cbae67e7403fep+0"),
    (True, "0x1.cc69f6797dfb0p-3", "0x1.90955c981c230p-2",
     "0x1.0f3b7c0d7fcfcp-2", "0x1.51976f5cbd4c1p-1"),
    (True, "0x1.a00475d831350p-1", "0x1.89d0df911088bp+0",
     "0x1.4f22e9a7fb247p-1", "0x1.1dc397bec98d7p+0"),
    (False, "0x1.8e9dfe5c42d44p-1", "0x1.5b2b181f58770p-3",
     "0x1.3da73dfffb7a0p-5", "0x1.16cb0aa422aadp+4"),
    (False, "0x1.e08106d0ef932p-4", "0x1.4472ead427b70p-4",
     "0x1.aa4bcff316e10p-3", "0x1.8fcffeaece6f2p+1"),
    (True, "0x1.8af08aa3a8496p-6", "0x1.9fe7e162d08d8p-3",
     "0x1.65847affc4acap-4", "0x1.a62d9f43fb21cp-6"),
    (False, "0x1.f04093cae4a60p-5", "0x1.230a95177eda6p-3",
     "0x1.83c031317c93ep-3", "0x1.567c794dfeb06p+1"),
    (True, "0x1.4d6d95cf9d29ap-2", "0x1.952e3e341bfacp-2",
     "0x1.a4b36bab248bep-3", "0x1.5c3a5e053ef1cp+0"),
    (False, "0x1.fd122635a75c0p-2", "0x1.acce56e1fb934p-1",
     "0x1.d74b56a075e07p-2", "0x1.3825e3ab689f2p+2"),
    (False, "0x1.3f5f3c07ceb90p-4", "0x1.4f3cf419121e7p-2",
     "0x1.bb8aa1af29c4ap-4", "0x1.9df222361c6bcp+3"),
    (True, "0x1.ce5fd160d4d7fp-4", "0x1.55cf874b1f8b5p-2",
     "0x1.54375a40a4da8p-3", "0x1.ce1167acec89cp-3"),
    (False, "0x1.9f69d5e082d60p-4", "0x1.861b0eeb07c0ap-1",
     "0x1.314826559a966p-1", "0x1.c69d067315780p+1"),
    (True, "0x1.358c3db277687p-1", "0x1.117dbe06e0369p-2",
     "0x1.7c76ad8b9ec6bp-1", "0x1.055f33079408cp-1"),
    (False, "0x1.4f052ec5725d4p-1", "0x1.4f0d7fb24a2b8p-1",
     "0x1.dc4cba708d07cp-3", "0x1.021166b24aabbp+2"),
    (True, "0x1.4ac6f9911b13cp-2", "0x1.5f5a85828fcdap-1",
     "0x1.247dc0583815cp-2", "0x1.7fd2096294df7p+1"),
    (False, "0x1.b57dc61634300p-5", "0x1.ec0e1fec519eap-3",
     "0x1.273619073b699p-2", "0x1.3c8567072b838p+0"),
    (True, "0x1.af8f3f182c8c8p-4", "0x1.a0e6dec9a3dccp-1",
     "0x1.4f949bd164370p-1", "0x1.b1b1d420b280ep-5"),
    (False, "0x1.b87036925e2e4p-2", "0x1.9be38ec5b4175p-2",
     "0x1.5dccfeafc7384p-2", "0x1.1e1b1665abbe4p+2"),
    (True, "0x1.fab1e145af9c0p-2", "0x1.40fc3fb8eba93p-1",
     "0x1.c6348fc87bf4dp-2", "0x1.d57a9441bcab4p-1"),
    (True, "0x1.5231ab621edaap-8", "0x1.aaba0930c3500p-8",
     "0x1.026ff0719de06p-4", "0x1.92546119b83cdp-2"),
    (False, "0x1.2e4c71415e93ap-4", "0x1.378f0b2520be0p-5",
     "0x1.e409eec9e5ab5p-5", "0x1.136d114dc8507p+1"),
    (True, "0x1.849aad2d4fa64p-3", "0x1.ae66d5fa60ef8p-2",
     "0x1.d4cb7f4852becp-4", "0x1.1121224d1f09ap+1"),
    (False, "0x1.3a345b216c860p-1", "0x1.3993155e63f95p-1",
     "0x1.8e7e83ffacb7cp-2", "0x1.53f2366852939p+2"),
    (False, "0x1.895fd3863c8e6p-1", "0x1.317d42e4705e1p-3",
     "0x1.3432b997d92f6p-2", "0x1.610e34525221bp+4"),
    (False, "0x1.2ae7b37fead6ep-1", "0x1.6472c082729bfp-3",
     "0x1.d0a6b7830ea69p-4", "0x1.5f6f250735bdap+6"),
    (False, "0x1.67e4788b2a500p-2", "0x1.6f943db6deb9ap-2",
     "0x1.68bbde161656dp-2", "0x1.be4685a8b5740p+2"),
    (False, "0x1.be5e1970c1db1p-2", "0x1.95031f02caa34p-2",
     "0x1.50c6df543a13bp-4", "0x1.48acb45d2529dp+1"),
    (False, "0x1.12b9c3d4429a9p-1", "0x1.b223408814e98p-3",
     "0x1.8ac118574c1e4p-1", "0x1.fce05559ee6a8p+1"),
    (False, "0x1.1656c3b49a3a0p-5", "0x1.5b169dc4dfb63p-3",
     "0x1.6903c263f8d25p-3", "0x1.796444be69522p+3"),
    (False, "0x1.1231f660b7306p-1", "0x1.b6776bedb4280p-3",
     "0x1.d7a5749666ae7p-5", "0x1.d7b5a993b028cp+2"),
]


# outputs of the public oracle_member/oracle_members, which stop each point
# once a certificate decides it, on the points of ORACLE_PINS and of
# SEPARABLE_PINS: the format of ORACLE_PINS plus the lower bound, "-inf"
# where no witness gave one.  Every member bit is that of the full search.
PUBLIC_ORACLE_PINS = [
    ("lam_lo_zero", True, "0x1.895becc72593fp-4", "0x1.0ecd09f2e5866p-2",
     "0x1.0410410410410p-3", "0x1.ccd0a41111ecdp-3", "0x1.ca806b7bb35adp-3"),
    ("z1_eq_z2", True, "0x1.1ad1ad1ad1ad1p-3", "0x1.999999999999ap-2",
     "0x1.1ad1ad1ad1ad1p-2", "0x1.3333333333333p-3", "0x1.3333333333333p-3"),
    ("z1_eq_z2_lam_lo_zero", True, "0x1.11111112f9bd0p-2", "0x1.1111110f28652p-2",
     "0x1.6c16c16c16c17p-2", "0x1.ccccccccccccdp-3", "0x1.cbdb42354f503p-3"),
    ("x2_zero", True, "0x1.075075075074fp-3", "0x0.0p+0",
     "0x1.3333333333330p-2", "0x1.4b94b94b94b94p-3", "0x1.4b94b94b94b95p-3"),
    ("x1_zero", True, "0x0.0p+0", "0x1.999999999999ap-3",
     "0x1.3333333333330p-2", "0x1.eb851eb851ebcp-4", "0x1.eb851eb851eaep-4"),
    ("X12_zero", True, "0x1.075075075074fp-3", "0x0.0p+0",
     "0x1.3333333333330p-2", "0x1.0750750750750p-3", "0x1.075075075074fp-3"),
    ("g2_nonpositive_everywhere", False, "0x0.0p+0", "0x0.0p+0",
     "0x1.3333333333330p-2", "inf", "-inf"),
    ("worked_nonmember", False, "0x1.999999999999ap-4", "0x1.0000000000000p+0",
     "0x1.0000000000000p-1", "0x1.028f5c28f5c29p+1", "0x1.fb3d1520667f2p+0"),
    ("both_indicators_one", True, "0x1.0000000000000p-1", "0x1.0000000000000p-1",
     "0x1.0000000000000p+0", "0x1.0000000000000p-2", "-inf"),
    ("small_indicator", True, "0x1.4e02353a9fc0ap-10", "0x1.45ef3a7207597p-8",
     "0x1.0a4e15852f5d3p-13", "0x1.9999e06a8123dp-4", "0x1.9896ecd389fd1p-4"),
    ("scaled_member", True, "0x1.9b6db6db6db6ap+3", "0x1.1800000000000p+5",
     "0x1.3333333333330p-2", "0x1.416db6db6db6ep+10", "0x1.416db6db6db6cp+10"),
    ("interior_member", True, "0x1.20c9481c96e33p-2", "0x1.8c60d4c366dc8p-2",
     "0x1.3e93e93e93e96p-2", "0x1.d176c32db3f41p-2", "0x1.cf3c554dfa204p-2"),
]

PUBLIC_SEPARABLE_PINS = [
    (True, "0x1.591126e9a1a80p-7", "0x1.0c7323ff3b5ecp-2",
     "0x1.86b66c3576cc0p-3", "0x1.336c42edb9c44p-1", "0x1.2ea7d45d82c80p-1"),
    (False, "0x1.df2a571c79f0ep-1", "0x1.4cd9b58a3fb80p-3",
     "0x1.496b14660cb04p-2", "0x1.edb329e9415a9p+3", "0x1.ed5c97659cad0p+3"),
    (True, "0x1.4e5bdbc24e27cp-2", "0x1.e27c5c681f174p-2",
     "0x1.0ab24cf0e4928p-2", "0x1.65f04a1b4526bp-1", "0x1.648c3748f0451p-1"),
    (True, "0x1.fbcdd5b06b6c2p-3", "0x1.8c863d7740cd0p-3",
     "0x1.7a0f4694ec800p-3", "0x1.2605fa9593b77p-1", "0x1.2605fa9593b78p-1"),
    (False, "0x1.244af7ce3b760p-4", "0x1.fb5186816750ep-1",
     "0x1.4b93dd0ba74efp-1", "0x1.5bcab8662a660p+3", "0x1.590d0b5070504p+3"),
    (False, "0x1.eb0cd45166a8cp-1", "0x1.86d62e1686428p-2",
     "0x1.2db5a7af5bf46p-1", "0x1.b92776b7c276ep+1", "0x1.b92776b7c2770p+1"),
    (False, "0x1.fae91a7b08f64p-2", "0x1.52ef92f88c6bbp-1",
     "0x1.003d102d8bd94p-1", "0x1.690cb6e78c451p+4", "0x1.0a14c0f29ef2ap+4"),
    (True, "0x1.07c526e2e014ep-2", "0x1.7962a94f1bc60p-2",
     "0x1.b41e67aca12ecp-3", "0x1.e8990cba75828p-1", "0x1.e8990cba7582ap-1"),
    (False, "0x1.4789022d6a74dp+0", "0x1.0119a95b259fcp+0",
     "0x1.2dfa84edefcb0p-1", "0x1.aab0877b55a7ap+2", "0x1.8ba4897afafd9p+2"),
    (False, "0x1.71ef349abe7c4p-1", "0x1.607978be29b95p-1",
     "0x1.60e4926cf226cp-1", "0x1.2fc54b726d074p+1", "0x1.2eb377fdfd2dap+1"),
    (True, "0x1.459fe2b74ca14p-5", "0x1.111d718f3f270p-4",
     "0x1.49e3ce0bc7441p-5", "0x1.16a785b2db2a0p-2", "0x1.16a785b2db2a2p-2"),
    (True, "0x1.339bea61ce224p-2", "0x1.5b3779afdc2b0p-1",
     "0x1.031e8df326210p-1", "0x1.698d95d282ecap+0", "0x1.690e838798385p+0"),
    (True, "0x1.f4dfec98a0ec8p-1", "0x1.274b7c4c68088p-1",
     "0x1.dcad74864e362p-2", "0x1.5709342afac62p+1", "0x1.56937c0f9b9c2p+1"),
    (False, "0x1.eaa082aadd2c8p-2", "0x1.1c23228777026p-2",
     "0x1.2d5695af75c07p-4", "0x1.19da6a55d395dp+2", "0x1.19bd1b3c94198p+2"),
    (True, "0x1.d9b9e4c02f9a2p-3", "0x1.f95eca341a408p-3",
     "0x1.ae912f7d17182p-4", "0x1.437524de63146p+1", "0x1.437524de63148p+1"),
    (False, "0x1.b6ee31cc444aap-2", "0x1.6a1a14e16dae0p-2",
     "0x1.bff433faa701cp-4", "0x1.b3eadf140ac6fp+1", "0x1.b3eadf140ac70p+1"),
    (False, "0x1.0d8c97c443a6cp-2", "0x1.b49408497c10dp-2",
     "0x1.042baf7d46a34p-3", "0x1.7d527e137804fp+2", "0x1.6da3f9d234a06p+2"),
    (True, "0x1.0821b7d845ba8p-3", "0x1.022a4fce4fe1fp-2",
     "0x1.ad296b0fbc147p-5", "0x1.6fa14873ccbf2p-1", "0x1.6e23e1cb36dfdp-1"),
    (True, "0x1.274378021b6a7p-2", "0x1.0ab7c284ea340p-4",
     "0x1.678ac88b8f88ap-1", "0x1.70d197106abbcp+0", "0x1.70d197106abbdp+0"),
    (True, "0x1.21a7896370890p+0", "0x1.fa58c5ec470adp-2",
     "0x1.6501e67817161p-1", "0x1.0a866e6e13b6ap+1", "0x1.0a5f7b6f4923ap+1"),
    (True, "0x1.76d30693cba1ap-1", "0x1.c4c7451a52b8ep-1",
     "0x1.20d89b2f603d0p-1", "0x1.f40b2b60c98bdp-1", "0x1.f3e707779a577p-1"),
    (False, "0x1.ecb11537e02bdp-2", "0x1.d11877b752930p-4",
     "0x1.8397fd44cac08p-3", "0x1.70ba83b1dde41p+2", "0x1.70ba83b1dde44p+2"),
    (False, "0x1.b47f4ebfbd262p-2", "0x1.d1437c75f4a4cp-2",
     "0x1.2fc0d01c769c7p-2", "0x1.11decdc6d5e90p+1", "0x1.11decdc6d5e92p+1"),
    (True, "0x1.365942ef67d67p-5", "0x1.0e88308d98cd0p-4",
     "0x1.12fd508e47f10p-2", "0x1.1e900956a6d11p-1", "0x1.1e900956a6d13p-1"),
    (True, "0x1.934d39a79d8e4p-5", "0x1.f85aff1d790f8p-3",
     "0x1.88149158b53f8p-1", "0x1.11a74ce134de2p-7", "0x1.11a74ce134de4p-7"),
    (True, "0x1.f75db57e83e90p-3", "0x1.6912442957f38p-2",
     "0x1.07e8cb4aaca78p-3", "0x1.171e277bd1434p+1", "0x1.1666cb516f9f4p+1"),
    (True, "0x1.75c036c4100d3p-1", "0x1.0539715028babp-1",
     "0x1.858e6c055535dp-2", "0x1.77da18fbe31b3p+1", "0x1.77cb300b45f40p+1"),
    (True, "0x1.5366f34ec2600p-7", "0x1.a2bd8b0708ec2p-3",
     "0x1.db77c924e6124p-2", "0x1.60e8e8bd2bafap-5", "0x1.609b12c681814p-5"),
    (True, "0x1.cfb71d69d8620p-2", "0x1.42eb52eb0cefap-1",
     "0x1.745064ee27b52p-2", "0x1.0320321e1a0cdp+0", "0x1.02d03dd540e2ep+0"),
    (False, "0x1.8e6fb9fc6fea1p-3", "0x1.0ff7940fbf780p-3",
     "0x1.8529bc3528a6ep-7", "0x1.80475dc5e2384p+2", "0x1.80475dc5e2384p+2"),
    (True, "0x1.12a69cbcb2c35p-1", "0x1.dc399817a7a9cp-1",
     "0x1.db5507b4d48bap-3", "0x1.4eda1899812d2p+0", "0x1.4eda1899812d4p+0"),
    (False, "0x1.a586917d7f628p-1", "0x1.51572d13e2928p-1",
     "0x1.5c498114b4781p-1", "0x1.03fb7b4523e95p+2", "0x1.fbd45d5121ae8p+1"),
    (False, "0x1.197544e18b580p-3", "0x1.bb29aa7b2ec56p-5",
     "0x1.c52ff7074d79ep-6", "0x1.06b59d1ac3e75p+1", "0x1.fd878de82d278p+0"),
    (True, "0x1.a8b8f6cb6f3eep-2", "0x1.2697b0f0c3b27p+0",
     "0x1.59bb6f09e8646p-1", "0x1.515c156bdf1a6p-2", "0x1.515c156bdf1a8p-2"),
    (True, "0x1.8f4f3ed6cd31ep-1", "0x1.6fd88b9a682cep-2",
     "0x1.6271bbd9ae194p-2", "0x1.cbd5a36ae568bp+0", "0x1.b641d728cc4f2p+0"),
    (True, "0x1.cc69f6797dfb0p-3", "0x1.915a1114208b2p-2",
     "0x1.1b473fc7a4c70p-2", "0x1.519772935bf47p-1", "0x1.51923a268f5a0p-1"),
    (True, "0x1.9d437c6139f59p-1", "0x1.89d0df911088bp+0",
     "0x1.49c072a56114cp-1", "0x1.1dc397bec98d8p+0", "0x1.1dc397bec98d8p+0"),
    (False, "0x1.95cf423508d78p-1", "0x1.5b2b181f58770p-3",
     "0x1.3da73dfffb7a0p-3", "0x1.16cb0aa422aadp+4", "0x1.16cb0aa422aafp+4"),
    (False, "0x1.e08106d0ef932p-4", "0x1.4472ead427b70p-4",
     "0x1.aa4bcff316e10p-3", "0x1.8fcffeaece6f2p+1", "0x1.8fcffeaece6f5p+1"),
    (True, "0x1.f32ea19ae3ecfp-5", "0x1.9dfc5209f2c0ap-3",
     "0x1.c3cc6b4dcec72p-3", "0x1.a62dcc3a41c6fp-6", "0x1.a5d0bc41f964ep-6"),
    (False, "0x1.f04093cae4a60p-5", "0x1.907c169017598p-4",
     "0x1.59217b6f9ff1cp-4", "0x1.567c802dfa6aep+1", "0x1.56374cd3cadbdp+1"),
    (True, "0x1.4d6d95cfd768bp-2", "0x1.952e3e341bfacp-2",
     "0x1.a4b36bac45c74p-3", "0x1.5c3a5e053ef1dp+0", "0x1.5c3a5e053ef1ep+0"),
    (False, "0x1.fd122635a75c0p-2", "0x1.3fd218b38b1a1p-1",
     "0x1.0dd68b6c1a141p-2", "0x1.382695e7d8fe2p+2", "0x1.362db3edb3ec9p+2"),
    (False, "0x1.3f5f3c07ceb90p-4", "0x1.b03eea321c7a7p-4",
     "0x1.0b02fb604015dp-5", "0x1.9dfd56bc8ee60p+3", "0x1.69d088662c9bap+3"),
    (True, "0x1.1ac12096dee78p-3", "0x1.586f6a9ba3d53p-2",
     "0x1.a2657f33bd53dp-3", "0x1.ce14f49b5b5a7p-3", "0x1.ca739b942bc97p-3"),
    (False, "0x1.9f69d5e082d60p-4", "0x1.861b0eeb3357ap-1",
     "0x1.31482655c1236p-1", "0x1.c69d067315781p+1", "0x1.c52faaf9b56adp+1"),
    (True, "0x1.3a5792f4ef761p-1", "0x1.10627801efed8p-2",
     "0x1.825aa12e53f3bp-1", "0x1.055f44d9bc281p-1", "0x1.051cf7aa5fc28p-1"),
    (False, "0x1.4f052ec5725d4p-1", "0x1.4cfa71af3e623p-1",
     "0x1.a9a9f49230725p-3", "0x1.0211898ecbd4ep+2", "0x1.018588d6b89f3p+2"),
    (True, "0x1.4ac6f9911b13cp-2", "0x1.8230a8cb6bf58p-1",
     "0x1.4e4692e3b002cp-2", "0x1.7fd2096294dfap+1", "0x1.760b9ee639bccp+1"),
    (False, "0x1.b57dc61634300p-5", "0x1.99f5ccaa02cb3p-3",
     "0x1.b24553f7dd44ap-3", "0x1.3c8567192008ap+0", "0x1.3c810ed42a243p+0"),
    (True, "0x1.afa5db61e2ac0p-4", "0x1.a1f8b8aa62e54p-1",
     "0x1.4f949bd164370p-1", "0x1.b1bc9982a5dd6p-5", "0x1.b186765200ee8p-5"),
    (False, "0x1.b87036925e2e4p-2", "0x1.9c588c52699d4p-2",
     "0x1.5ebccca8dff58p-2", "0x1.1e1b1665abbe6p+2", "0x1.1da25eea9176ep+2"),
    (True, "0x1.fab1e145af9c0p-2", "0x1.4428b452208b4p-1",
     "0x1.ce88250a0b0b8p-2", "0x1.d591c03f6c110p-1", "0x1.c276feb735473p-1"),
    (True, "0x1.a6d5b92892c37p-7", "0x1.aaba0930c3500p-8",
     "0x1.eda5ae374f688p-3", "0x1.92546119b83cep-2", "0x1.92546119b83d1p-2"),
    (False, "0x1.9e4f5b3be8c40p-5", "0x1.378f0b2520be0p-5",
     "0x1.18fbe5c13f151p-7", "0x1.136d114dc8508p+1", "0x1.136d114dc8509p+1"),
    (True, "0x1.849aad2d4fa64p-3", "0x1.ae66d5fa60ef8p-2",
     "0x1.d4cb7f4852becp-4", "0x1.1121224d1f09ap+1", "0x1.1121224d1f09dp+1"),
    (False, "0x1.3a345b216c860p-1", "0x1.2c8b37db0ee64p-1",
     "0x1.6873b17e0a587p-2", "0x1.53f239dacfbf1p+2", "0x1.53cb6bb5f96ecp+2"),
    (False, "0x1.895fd3863c8e6p-1", "0x1.43da2e353d3f2p-3",
     "0x1.6f7913d9b36bcp-2", "0x1.610e34dc31389p+4", "0x1.610537ee336c5p+4"),
    (False, "0x1.2ae7b37fead6ep-1", "0x1.6472c08286288p-3",
     "0x1.d0a6b7832bb10p-4", "0x1.5f6f250735bddp+6", "0x1.5c4fa31cb3627p+6"),
    (False, "0x1.67e4788b2a500p-2", "0x1.6f943e519280cp-2",
     "0x1.68bbdee859498p-2", "0x1.be4685a8b5743p+2", "0x1.bcd1735a84449p+2"),
    (False, "0x1.0733c6b45a983p-1", "0x1.95031f02caa34p-2",
     "0x1.5aa4fec14b1c3p-3", "0x1.48acb45d2529ep+1", "0x1.48acb45d2529fp+1"),
    (False, "0x1.0f7f37a515069p-1", "0x1.b223408814e98p-3",
     "0x1.81d5e1f087023p-1", "0x1.fce05559ee6a9p+1", "0x1.fce05559ee6acp+1"),
    (False, "0x1.1656c3b49a3a0p-5", "0x1.5eb257634fbfep-5",
     "0x1.1e3d7435eb2f2p-5", "0x1.7965516e9043bp+3", "0x1.77c51898b555ep+3"),
    (False, "0x1.0b71beacc2215p-1", "0x1.b6776bedb4280p-3",
     "0x1.74a8a7f86a6a3p-5", "0x1.d7b5a993b028dp+2", "0x1.d7b5a993b028dp+2"),
]


def _coarse_cases():
    """Points of the coarse-pass tests: margin points, non-members, hull
    combinations, and the edge cases of the weight interval and of x."""
    pts = ctilde_margin_points(np.random.default_rng(91), 6)
    pts += shrunken_nonmembers(np.random.default_rng(92), 4)
    hull = _points(_sample_hull_array(np.random.default_rng(93), 6, 3))
    pts += [p for p in hull if min(p.z1, p.z2) > 1e-9]
    return pts + [
        HullPoint(0.3, 0.4, 0.5, 0.2, 0.6, 0.4, 0.5),  # z1 + z2 <= 1: lambda = 0
        HullPoint(0.5, 0.6, 0.3, 0.25, 0.8, 1.0, 0.7),  # one-point weight interval
        HullPoint(0.0, 0.4, 0.5, 0.2, 0.6, 0.7, 0.6),  # x1 = 0
        HullPoint(0.3, 0.0, 0.5, 0.1, 0.3, 0.7, 0.6),  # x2 = 0
        HullPoint(0.0, 0.0, 0.5, 0.1, 0.3, 0.7, 0.6),  # ties across lambda
        # X22 below every split cost x2^2 / z2 of x2: every sample +inf
        HullPoint(0.3, 0.4, 0.5, 0.2, 0.2, 0.7, 0.6),
        # X22 = x2^2 / z2: g2 = 0 at lambda = 0, a2 = 0, in the band
        HullPoint(0.3, 0.4, 0.5, 0.2, 0.4 * 0.4 / 0.5, 0.4, 0.5),
        HullPoint(0.3, 0.4, 0.5, 0.0, 0.4 * 0.4 / 0.5, 0.4, 0.5),
    ]


def _weight_columns(pts):
    """The (x1, x2, X12, X22, z1, z2) columns of `pts` and the ends of
    their weight intervals."""
    cols = np.array([(p.x1, p.x2, p.X12, p.X22, p.z1, p.z2) for p in pts]).T
    lam_hi = np.minimum(cols[4], cols[5])
    lam_lo = np.minimum(np.maximum(cols[4] + cols[5] - 1.0, 0.0), lam_hi)
    return cols, lam_lo, lam_hi


def _coarse_weights(lam_lo, lam_hi):
    """The GRID coarse weights of each point, np.linspace row by row."""
    return np.stack([np.linspace(lo, hi, GRID) for lo, hi in zip(lam_lo, lam_hi)])


def _oracle_check_points():
    """The member --oracle lines of the perfbench oracle-check streams of
    seeds 1-10: the first 16 of their 4000 margin points."""
    return [
        p for seed in range(1, 11)
        for p in ctilde_margin_points(np.random.default_rng(seed), 4000)[:16]
    ]


def _search_points():
    """The 252 rows of the search cross-check of the CI: 126 separable
    non-members outside the relaxation (rng 11), which separate cannot cut,
    and 126 relaxation points on the X12 = 0 face (rng 2), which no closed
    witness covers."""
    rows = _points(_sample_separable_array(np.random.default_rng(11), 600))
    outside = [p for p in rows if not ctilde_holds(p) and not member_hull(p).member][:126]
    face = [p for p in sample_ctilde_points(np.random.default_rng(2), 1000) if p.X12 == 0.0]
    return outside + face[:126]


def _hex(v):
    return ("inf" if v > 0.0 else "-inf") if math.isinf(v) else float(v).hex()


def _hex_result(res):
    member, wit = res
    return (bool(member), *(_hex(v) for v in (wit.xt41, wit.xt42, wit.lambda4, wit.objective)))


def _hex_certified(res):
    return (*_hex_result(res), _hex(res[1].lower))


class TestPinnedOracle:
    @pytest.mark.parametrize(
        "coords, expected", [(pin[1], pin[2:]) for pin in ORACLE_PINS],
        ids=[pin[0] for pin in ORACLE_PINS],
    )
    def test_edge_case_outputs_bit_for_bit(self, coords, expected):
        (res,) = _full_search([HullPoint(*coords)])
        assert _hex_result(res) == expected

    # one batch mixes the one-round zoom (x2_zero), the single 14-round
    # pass (both_indicators_one) and the +inf objective with regular points
    @pytest.mark.parametrize("order", [1, -1], ids=["listed", "reversed"])
    def test_batch_outputs_bit_for_bit(self, order):
        pins = ORACLE_PINS[::order]
        got = _full_search([HullPoint(*pin[1]) for pin in pins])
        assert [_hex_result(res) for res in got] == [tuple(pin[2:]) for pin in pins]

    def test_separable_batch_bit_for_bit(self):
        rows = _sample_separable_array(np.random.default_rng(7), 64)
        got = _full_search([HullPoint.from_coords(row) for row in rows])
        assert [_hex_result(res) for res in got] == SEPARABLE_PINS

    def test_one_point_weight_interval_leaves_its_batch_alone(self):
        # a weight interval of one point has a coarse step of 0, which must
        # not change how the coarse weights of the other points are spaced
        pin = next(pin for pin in ORACLE_PINS if pin[0] == "both_indicators_one")
        row = _sample_separable_array(np.random.default_rng(7), 64)[-1]
        got = _full_search([HullPoint(*pin[1]), HullPoint.from_coords(row)])
        assert [_hex_result(res) for res in got] == [pin[2:], SEPARABLE_PINS[-1]]

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

    def test_coarse_pass_is_the_first_minimum_of_its_samples(self):
        # the coarse pass samples GRID weights, ZOOM_WIDTH second splits
        # across each weight's bracket and four first splits per pair (the
        # box ends, the h = 0 root and the clipped stationary point); it must
        # return the first least objective in (lambda, a2, a1) order
        e = 1e-9
        objective = elementwise(_witness_objective)
        g2_of = elementwise(_witness_g2)
        pts = _coarse_cases()
        cols, lam_lo, lam_hi = _weight_columns(pts)
        lam_ax = np.linspace(lam_lo, lam_hi, GRID, axis=1)
        _, got, _ = _sweep(cols, lam_ax, e, np.ones(len(pts), dtype=int), lam_lo, lam_hi)
        lin = np.linspace(0.0, 1.0, ZOOM_WIDTH)
        for i, p in enumerate(pts):
            lam = lam_ax[i][:, None]
            lo, hi = _a2_bracket(p.x2, p.X22, p.z2, lam, e)
            a2 = lo + (hi - lo) * lin
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                g2 = g2_of(p, lam, a2, e)
                root = np.where(a2 > e, lam * p.X12 / a2, 0.0)
                stationary = (p.x1 / (p.z1 - lam) + a2 * p.X12 / (lam * g2)) / (
                    1.0 / lam + 1.0 / (p.z1 - lam) + (a2 / lam) ** 2 / g2
                )
                quadratic = (lam > 0.0) & (p.z1 - lam > 0.0) & (g2 > 0.0)
                a1 = np.stack([
                    np.zeros_like(a2),
                    np.full_like(a2, p.x1),
                    np.clip(root, 0.0, p.x1),
                    np.clip(np.where(quadratic, stationary, 0.0), 0.0, p.x1),
                ], axis=-1)
                f = objective(p, lam[..., None], a1, a2[..., None], e)
            r, k, c = np.unravel_index(int(np.argmin(f)), f.shape)
            if math.isinf(f[r, k, c]):  # nothing finite: the splits stay 0
                expected = (math.inf, lam_ax[i, 0], 0.0, 0.0)
            else:
                expected = (f[r, k, c], lam_ax[i, r], a1[r, k, c], a2[r, k])
            assert tuple(got[:, i]) == expected, p

    def test_staged_coarse_pass_is_one_sweep_of_every_weight(self):
        # the coarse pass sweeps the weights COARSE_FIRST, then all GRID
        # weights of the points no certificate decides; with no stop every
        # point sweeps both, and the result must be one sweep of all GRID
        # weights: its first least objective in weight order and its
        # greatest lower bound, on ties across lambda, +inf rows, one-point
        # weight intervals and lambda = 0 alike
        pts = _coarse_cases()
        cols, lam_lo, lam_hi = _weight_columns(pts)
        _, best, lower = _sweep(
            cols, _coarse_weights(lam_lo, lam_hi), DEFAULT_TOL.eq_tol,
            np.ones(len(pts), dtype=int), lam_lo, lam_hi,
        )
        rows = [(p, *_weight_interval(p, DEFAULT_TOL)) for p in pts]
        got = _oracle_chunk(rows, DEFAULT_TOL, zoom_rounds=0, stop=False)
        for i, (p, (member, wit)) in enumerate(zip(pts, got)):
            f, lam, a1, a2 = best[:, i]
            assert member == (f <= p.X11 + DEFAULT_TOL.oracle_tol)
            assert [_hex(v) for v in (wit.objective, wit.lambda4, wit.xt41, wit.xt42)] == [
                _hex(v) for v in (f, lam, a1, a2)
            ], p
            assert _hex(wit.lower) == _hex(lower[i]), p


class TestEarlyStop:
    """The public search stops each point once f <= X11 + oracle_tol or its
    lower bound exceeds X11 + oracle_tol; decisions stay those of the full
    search."""

    @pytest.mark.parametrize(
        "coords, expected",
        [(pin[1], pub[1:]) for pin, pub in zip(ORACLE_PINS, PUBLIC_ORACLE_PINS)],
        ids=[pin[0] for pin in PUBLIC_ORACLE_PINS],
    )
    def test_edge_case_outputs_bit_for_bit(self, coords, expected):
        assert _hex_certified(oracle_member(HullPoint(*coords))) == expected

    def test_public_pins_keep_the_full_search_decisions(self):
        assert [pin[0] for pin in PUBLIC_ORACLE_PINS] == [pin[0] for pin in ORACLE_PINS]
        assert [pub[1] for pub in PUBLIC_ORACLE_PINS] == [pin[2] for pin in ORACLE_PINS]
        assert [pub[0] for pub in PUBLIC_SEPARABLE_PINS] == [pin[0] for pin in SEPARABLE_PINS]

    @pytest.mark.parametrize("order", [1, -1], ids=["listed", "reversed"])
    def test_batch_outputs_bit_for_bit(self, order):
        pins = PUBLIC_ORACLE_PINS[::order]
        by_name = {pin[0]: pin[1] for pin in ORACLE_PINS}
        got = oracle_members([HullPoint(*by_name[pin[0]]) for pin in pins])
        assert [_hex_certified(res) for res in got] == [tuple(pin[1:]) for pin in pins]

    def test_separable_batch_bit_for_bit(self):
        rows = _sample_separable_array(np.random.default_rng(7), 64)
        got = oracle_members([HullPoint.from_coords(row) for row in rows])
        assert [_hex_certified(res) for res in got] == PUBLIC_SEPARABLE_PINS

    def test_stop_is_per_point_across_a_chunk_boundary(self):
        # 6 pins, the 64 separable rows, 6 pins: the first chunk holds 58
        # separable rows, the second 6 with the last pins
        pins = [HullPoint(*pin[1]) for pin in ORACLE_PINS]
        rows = _sample_separable_array(np.random.default_rng(7), 64)
        pts = pins[:6] + [HullPoint.from_coords(row) for row in rows] + pins[6:]
        assert len(pts) > ORACLE_CHUNK
        expected = (
            [tuple(pin[1:]) for pin in PUBLIC_ORACLE_PINS[:6]]
            + PUBLIC_SEPARABLE_PINS
            + [tuple(pin[1:]) for pin in PUBLIC_ORACLE_PINS[6:]]
        )
        assert [_hex_certified(res) for res in oracle_members(pts)] == expected

    @pytest.mark.parametrize(
        "points",
        [
            lambda: ctilde_margin_points(np.random.default_rng(5), 300),
            _oracle_check_points,
            lambda: shrunken_nonmembers(np.random.default_rng(6), 200),
            # holds R8 non-members that no lower bound certifies
            lambda: shrunken_nonmembers(np.random.default_rng(8), 500),
        ],
        ids=["margin", "oracle-check", "shrunken", "shrunken-uncertified"],
    )
    def test_decisions_equal_the_full_search(self, points):
        pts = points()
        stopped, full = oracle_members(pts), _full_search(pts)
        assert [res[0] for res in stopped] == [res[0] for res in full]
        # a point that stops early keeps an objective at least the full one
        assert all(a[1].objective >= b[1].objective for a, b in zip(stopped, full))

    def test_first_stage_members_pass_the_witness_checks(self):
        # a point whose objective on the COARSE_FIRST weights is at most
        # X11 + oracle_tol leaves the search with that stage's witness; its
        # certificate is then checked by the public witness functions: the
        # witness is feasible and its objective recomputes
        pts = [HullPoint(*pin[1]) for pin in ORACLE_PINS] + _oracle_check_points()
        pts += ctilde_margin_points(np.random.default_rng(5), 300)
        cols, lam_lo, lam_hi = _weight_columns(pts)
        _, first, _ = _sweep(
            cols, _coarse_weights(lam_lo, lam_hi)[:, COARSE_FIRST], DEFAULT_TOL.eq_tol,
            np.ones(len(pts), dtype=int), lam_lo, lam_hi,
        )
        checked = 0
        for i, (p, (member, wit)) in enumerate(zip(pts, oracle_members(pts))):
            if not first[0, i] <= p.X11 + DEFAULT_TOL.oracle_tol:
                continue
            assert member
            assert (wit.objective, wit.lambda4, wit.xt41, wit.xt42) == tuple(first[:, i])
            w = (wit.xt41, wit.xt42, wit.lambda4)
            assert min(witness_slacks(p, w).values()) >= -DEFAULT_TOL.eq_tol, p
            assert oracle_objective(p, w) == wit.objective, p
            checked += 1
        assert checked >= 400

    def test_search_objectives_recompute_bit_for_bit(self):
        # the search scores its witnesses with the column version of the
        # objective's own body, so every finite objective it reports is the
        # scalar objective at its witness, bit for bit
        pts = _search_points()
        assert len(pts) == 252
        checked = 0
        for p, (_, wit) in zip(pts, oracle_members(pts)):
            assert wit.decided_by == "search"
            if math.isfinite(wit.objective):
                w = (wit.xt41, wit.xt42, wit.lambda4)
                assert _hex(oracle_objective(p, w)) == _hex(wit.objective), p
                checked += 1
        assert checked >= 200


def _hull_points():
    """1000 convex combinations of k = 1..8 vertex samples, indicator edges
    included (the oracle raises EmptyFeasibleSet on those)."""
    return [
        p for k in range(1, 9)
        for p in _points(_sample_hull_array(np.random.default_rng(100 + k), 125, k))
    ]


def _decision(res):
    return type(res).__name__ if isinstance(res, Exception) else res[0]


class TestCertificates:
    """The oracle checks the closed form's witness and cut with its own code
    and searches only the points they leave undecided."""

    @pytest.mark.parametrize(
        "points, decided",
        [
            (lambda: ctilde_margin_points(np.random.default_rng(5), 1000), 1000),
            (lambda: shrunken_nonmembers(np.random.default_rng(6), 1000), 1000),
            # the search keeps the X12 = 0 face of R1 and the indicator edges
            (_hull_points, 672),
        ],
        ids=["margin", "shrunken", "hull"],
    )
    def test_certified_decisions_equal_the_search(self, points, decided):
        pts = points()
        certified = oracle_members(pts, proposals=_proposals(pts))
        searched = oracle_members(pts)
        assert [_decision(r) for r in certified] == [_decision(r) for r in searched]
        by = [r[1].decided_by for r in certified if not isinstance(r, Exception)]
        assert len(by) - by.count("search") == decided
        for p, res, full in zip(pts, certified, searched):
            if isinstance(res, Exception):
                assert str(res) == str(full)
                continue
            if res[1].decided_by == "search":
                assert res == full  # the same search, bit for bit
                continue
            member, wit = res
            threshold = p.X11 + DEFAULT_TOL.oracle_tol
            if wit.decided_by == "witness":
                assert member and wit.objective <= threshold and wit.lower == -math.inf
                w = (wit.xt41, wit.xt42, wit.lambda4)
                assert oracle_objective(p, w) == wit.objective
            else:
                assert not member and wit.lower > threshold

    def test_the_intake_validates_each_proposed_point_once(self, monkeypatch):
        # the intake validates each point; scoring its witness does not again
        from pairhull import oracle

        pts = ctilde_margin_points(np.random.default_rng(5), 100)
        proposals = _proposals(pts)
        calls = []
        check = oracle.validate_point
        monkeypatch.setattr(
            oracle, "validate_point", lambda p, tol: calls.append(p) or check(p, tol)
        )
        res = oracle_members(pts, proposals=proposals)
        assert len(calls) == 100
        assert {r[1].decided_by for r in res} == {"witness", "cut"}

    def test_a_wrong_proposal_leaves_the_point_to_the_search(self):
        # a witness of another cell scores above X11, an infeasible one
        # scores nothing, and a cut that p violates but that also cuts off
        # the origin of S2 proves nothing: each point goes to the search
        def off(p):  # X11 >= X11(p) + 1, which the origin of S2 violates too
            return (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0), -1.0 - p.X11

        member = HullPoint(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
        pts = [WORKED, WORKED, WORKED, member]
        proposals = [
            (closed_witness(WORKED, Region.R5), None),
            ((0.2, 0.5, 0.4), None),  # xt41 > x1
            (None, off(WORKED)),
            (None, off(member)),
        ]
        got = oracle_members(pts, proposals=proposals)
        assert [r[1].decided_by for r in got] == ["search"] * 4
        assert [_hex_certified(r) for r in got] == [
            _hex_certified(r) for r in oracle_members(pts)
        ]

    @pytest.mark.parametrize("shift", [0.05, -0.05])
    def test_a_wrong_piece_shows_as_disagreements(self, monkeypatch, shift):
        # a closed form whose product pieces misplace F by 0.05 calls some
        # non-members members (shift > 0) or some members non-members: the
        # oracle reads none of its formulas, so the suite finds them
        assert run_oracle_suite(200, seed=3).ok
        gap = hull._x11_gap
        monkeypatch.setattr(hull, "_x11_gap", lambda *args: gap(*args) + shift)
        report = run_oracle_suite(200, seed=3)
        assert report.failures > 0
        assert report.offender["oracle"] is (shift < 0.0)
        assert report.offender["decided_by"] == ("witness" if shift < 0.0 else "search")


def _bracket_cases():
    """Relaxation points, margin points and non-members, each with nine
    weights strictly inside (0, z2) across its weight interval."""
    pts = sample_ctilde_points(np.random.default_rng(95), 40)
    pts += ctilde_margin_points(np.random.default_rng(96), 20)
    pts += shrunken_nonmembers(np.random.default_rng(97), 20)
    for p in pts:
        lam_hi = min(p.z1, p.z2)
        lam_lo = min(max(p.z1 + p.z2 - 1.0, 0.0), lam_hi)
        for lam in np.linspace(lam_lo, lam_hi, 11)[1:-1]:
            if 0.0 < lam < p.z2:
                yield p, float(lam)


def _g2_rounding(p, lam, a2):
    """A bound on the rounding error of g2 at an interior weight: 256 ulps
    of the terms it sums."""
    terms = p.X22 + a2 * a2 / lam + (p.x2 - a2) ** 2 / (p.z2 - lam)
    return 256 * np.finfo(float).eps * terms


class TestA2Bracket:
    E = 1e-9

    def test_ends_are_inside_the_band(self):
        checked = 0
        for p, lam in _bracket_cases():
            for a2 in _a2_bracket(p.x2, p.X22, p.z2, lam, self.E):
                assert 0.0 <= a2 <= p.x2
                assert _witness_g2(p, lam, float(a2), self.E) >= -self.E, (p, lam, a2)
                checked += 1
        assert checked >= 1000

    def test_splits_just_outside_are_below_the_half_band(self):
        # the ends solve g2 = -eq_tol / 2, so moving off them by 1e-9 relative
        # drops g2 below it; where g2 < -eq_tol / 2 at every split the
        # bracket is the ridge point lam x2 / z2
        e = self.E
        outside = 0
        for p, lam in _bracket_cases():
            lo, hi = _a2_bracket(p.x2, p.X22, p.z2, lam, e)
            d = 1e-9 * max(1.0, p.x2)
            for a2 in (lo - d, hi + d):
                if 0.0 <= a2 <= p.x2:
                    g2 = _witness_g2(p, lam, float(a2), e)
                    assert g2 < -e / 2 - _g2_rounding(p, lam, a2), (p, lam, a2)
                    outside += 1
        assert outside >= 500
        p = HullPoint(0.3, 0.4, 0.5, 0.2, 0.2, 0.7, 0.6)  # X22 < x2^2 / z2
        for lam in (0.35, 0.5, 0.59):
            lo, hi = _a2_bracket(p.x2, p.X22, p.z2, lam, e)
            assert lo == hi == pytest.approx(lam * p.x2 / p.z2, rel=1e-15)
            assert _witness_g2(p, lam, float(lo), e) < -e

    def test_weight_ends_give_the_split_ends_exactly(self):
        rows = _sample_separable_array(np.random.default_rng(98), 500)
        x2, X22, z2 = rows[:, 1], rows[:, 4], rows[:, 6]
        keep = z2 > 0.0
        x2, X22, z2 = x2[keep], X22[keep], z2[keep]
        lo, hi = _a2_bracket(x2, X22, z2, np.zeros_like(z2), self.E)
        assert np.all(lo == 0.0) and np.all(hi == 0.0)
        lo, hi = _a2_bracket(x2, X22, z2, z2, self.E)
        assert np.array_equal(lo, x2) and np.array_equal(hi, x2)

    def test_finite_one_ulp_below_z2_and_at_x2_zero(self):
        rows = _sample_separable_array(np.random.default_rng(99), 500)
        x2, X22, z2 = rows[:, 1], rows[:, 4], rows[:, 6]
        keep = z2 > 0.0
        x2, X22, z2 = x2[keep], X22[keep], z2[keep]
        lo, hi = _a2_bracket(x2, X22, z2, np.nextafter(z2, 0.0), self.E)
        assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
        assert np.all((0.0 <= lo) & (lo <= hi) & (hi <= x2))
        zero = np.zeros_like(x2)
        for lam in (0.5 * z2, np.nextafter(z2, 0.0), z2):
            lo, hi = _a2_bracket(zero, X22, z2, lam, self.E)
            assert np.all(lo == 0.0) and np.all(hi == 0.0)


class TestOracleSuite:
    def test_worst_slack_is_smallest_signed_margin(self):
        report = run_oracle_suite(5, seed=11)
        pts = ctilde_margin_points(np.random.default_rng(11), 5)
        margins = []
        for p, (_, wit) in zip(pts, oracle_members(pts, proposals=_proposals(pts))):
            m = p.X11 + 1e-6 - wit.objective
            margins.append(m if member_hull(p).member else -m)
        assert report.ok
        assert report.worst_slack == min(margins) > 0.0

    def test_disagreement_gives_nonpositive_worst_slack(self):
        # an oracle band wider than every margin turns non-members into
        # oracle members
        report = run_oracle_suite(5, seed=11, tol=Tolerances(oracle_tol=100.0))
        assert not report.ok
        assert report.worst_slack <= 0.0

    def test_oracle_errors_count_as_failures(self):
        # at these bands the oracle finds some weight intervals empty; each
        # such point is a failure and the first one the offender.  The tenth
        # point is a non-member: its X11 gap, -0.583, is X11 less the
        # oracle's least X11 at eq_tol = 1e-9, 3.583; at eq_tol = 0.3 the
        # oracle's own band lets its search reach 1.002
        report = run_oracle_suite(60, seed=1, tol=Tolerances(0.3, 0.3, 0.3))
        assert not report.ok
        assert set(report.offender) == {"point", "error"}
        assert "is empty beyond tolerance" in report.offender["error"]
        assert report.detail == (
            "members=42 nonmembers=18 witness=35 cut=0 search=7 uncertified=0"
        )
        p = ctilde_margin_points(np.random.default_rng(1), 60, Tolerances(0.3, 0.3, 0.3))[9]
        rep = member_hull(p, Tolerances(0.3, 0.3, 0.3))
        assert (rep.member, rep.violated) == (False, ("II.product",))
        member, wit = oracle_member(p, Tolerances(1e-9, 0.3, 0.3))
        assert not member
        assert rep.slacks["II.product"] == pytest.approx(p.X11 - wit.objective, abs=1e-12)

    def test_relaxation_samples_carry_plain_floats(self):
        pts = sample_ctilde_points(np.random.default_rng(12), 4)
        pts += ctilde_margin_points(np.random.default_rng(13), 2)
        for p in pts:
            assert all(type(v) is float for v in p.coords())
        member, _ = oracle_member(pts[-1])
        assert type(member) is bool
        json.dumps({"member": member})


def _proposals(pts, tol=DEFAULT_TOL):
    """The closed form's proposal of each point, as the CLI and the oracle
    suite build them."""
    return [oracle_proposal(p, member_hull(p, tol), tol) for p in pts]


def _piece_f(p, region):
    """F, the least X11 of the piece of the cell ``region`` at p."""
    if region in (Region.R1, Region.R2, Region.R6):
        return p.x1 * p.x1 / p.z1
    if region is Region.R7:
        return p.x1 * p.x1 + (p.X12 - p.x1 * p.x2) ** 2 / (p.X22 - p.x2 * p.x2)
    return x11_root({"R3": "II", "R4": "II", "R5": "III", "R8": "V"}[region.value], p)


@pytest.fixture(scope="module")
def analytic_cases():
    """The relaxation points of sample_ctilde_points(default_rng(11), 6000)
    with a closed witness, and its objective, the least one."""
    pts, ref = [], []
    for p in sample_ctilde_points(np.random.default_rng(11), 6000):
        f = closed_form_optimum(p)
        if f is not None:
            pts.append(p)
            ref.append(f)
    assert len(pts) > 3000
    return pts, ref


class TestAnalyticWitness:
    def test_r2_formula(self):
        rng = np.random.default_rng(73)
        p = _find_region_point(rng, Region.R2)
        a1, a2, lam = closed_witness(p, Region.R2)
        assert a1 == pytest.approx(p.x1)
        assert a2 == pytest.approx(p.X12 * p.z1 / p.x1)
        assert lam == pytest.approx(p.z1)
        # part I bound: the lower envelope value is x1^2/z1
        assert oracle_objective(p, (a1, a2, lam)) == pytest.approx(p.x1 ** 2 / p.z1, rel=1e-9)

    def test_r6_formula_zeroes_the_coupling(self):
        rng = np.random.default_rng(74)
        p = _find_region_point(rng, Region.R6)
        a1, a2, lam = closed_witness(p, Region.R6)
        s = p.z1 + p.z2 - 1.0
        assert lam == pytest.approx(s)
        assert a1 == pytest.approx(s * p.x1 / p.z1)
        assert a2 == pytest.approx(p.X12 * p.z1 / p.x1)
        assert oracle_objective(p, (a1, a2, lam)) == pytest.approx(p.x1 ** 2 / p.z1, rel=1e-9)

    @pytest.mark.parametrize("region", [r for r in Region if r is not Region.NOT_COVERED])
    def test_matches_numeric_minimum(self, region):
        rng = np.random.default_rng(75)
        checked = 0
        while checked < 8:
            p = _find_region_point(rng, region)
            triple = closed_witness(p, region)
            if triple is None:
                continue
            f = oracle_objective(p, triple)
            assert not math.isinf(f)
            # the oracle's objective lies within d of the closed form's
            d = 1e-4 * (1.0 + abs(f))
            assert oracle_member(replace(p, X11=f + d), EXACT)[0]
            assert not oracle_member(replace(p, X11=f - d), EXACT)[0]
            checked += 1

    def test_oracle_is_never_above_the_closed_form_optimum(self, analytic_cases):
        # on every relaxation point with a closed witness the oracle's
        # minimum is at most the analytic one: each is a member at that X11
        # plus 1e-9 relative; a miss shows an optimum the search brackets
        # away from
        pts, ref = analytic_cases
        lifted = [replace(p, X11=f + 1e-9 * max(1.0, abs(f))) for p, f in zip(pts, ref)]
        above = [
            (p, res[1].objective)
            for p, res in zip(lifted, oracle_members(lifted, EXACT))
            if not res[0]
        ]
        assert not above

    def test_lower_bound_is_never_above_the_closed_form_optimum(self, analytic_cases):
        # the full search takes the lower bound at every weight it samples,
        # so it tries the bound at more witnesses than the stopped one
        pts, ref = analytic_cases
        res = _full_search(pts)
        above = [
            (p, f, r[1].lower)
            for p, f, r in zip(pts, ref, res)
            if not r[1].lower <= f + 1e-9 * max(1.0, abs(f))
        ]
        assert not above
        assert sum(math.isfinite(r[1].lower) for r in res) > 3000

    def test_r4_and_r5_put_x_at_the_smaller_indicator(self):
        # the optimizers of R4 and of the z1 <= z2 part of R5 sit on the
        # weight bound min(z1, z2), where the split of the other indicator
        # is the 0/0 closure; their witnesses attain the family's F
        rng = np.random.default_rng(76)
        p = _find_region_point(rng, Region.R4)
        assert closed_witness(p, Region.R4) == (p.x1, p.x2, p.z2)
        f = oracle_objective(p, (p.x1, p.x2, p.z2))
        assert f == pytest.approx(x11_root("II", p), rel=1e-14)
        p = _find_region_point(rng, Region.R5)
        while p.z1 > p.z2:
            p = _find_region_point(rng, Region.R5)
        assert closed_witness(p, Region.R5) == (p.x1, p.x2, p.z1)
        f = oracle_objective(p, (p.x1, p.x2, p.z1))
        assert f == pytest.approx(x11_root("III", p), rel=1e-14)

    def test_every_closed_witness_attains_its_piece_bound(self):
        # on 8000 relaxation points and 8000 separable rows, members and
        # non-members alike, every closed witness is feasible and its
        # objective is F within 1e-12 relative; R1 has one only off its
        # X12 = 0 face and indicator edges
        pts = sample_ctilde_points(np.random.default_rng(77), 8000)
        pts += _points(_sample_separable_array(np.random.default_rng(78), 8000))
        seen = set()
        for p in pts:
            region = classify(p)
            triple = closed_witness(p, region)
            if triple is None:
                assert region in (Region.R1, Region.NOT_COVERED), p
                continue
            f, bound = oracle_objective(p, triple), _piece_f(p, region)
            assert abs(f - bound) <= 1e-12 * max(1.0, abs(bound)), (p, region)
            seen.add(region.value + ("<=" if region is Region.R5 and p.z1 <= p.z2 else ""))
        assert seen == {"R1", "R2", "R3", "R4", "R5", "R5<=", "R6", "R7", "R8"}


def _find_region_point(rng, region, z_floor=0.05):
    from pairhull.verify import sample_ctilde_points

    while True:
        for p in sample_ctilde_points(rng, 64):
            if min(p.z1, p.z2) < z_floor or p.X12 < 0.05:
                continue
            if classify(p) is region:
                return p


class TestIndependence:
    def test_oracle_imports_no_closed_form_module(self):
        # the oracle is the cross-check of the closed form, so it may use
        # the domain types and the errors and nothing of the pieces
        imported = set()
        for node in ast.walk(ast.parse((SRC / "oracle.py").read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = "pairhull." * (node.level > 0) + (node.module or "")
                if base.rstrip(".") == "pairhull":
                    imported.update(f"pairhull.{a.name}" for a in node.names)
                else:
                    imported.add(base)
        package = {m for m in imported if m.split(".")[0] == "pairhull"}
        assert package == {"pairhull.core", "pairhull.errors"}


class TestSamplers:
    def test_reproducible_streams(self):
        a = _points(_sample_s2_array(np.random.default_rng(5), 50))
        b = _points(_sample_s2_array(np.random.default_rng(5), 50))
        assert a == b
        c = _points(_sample_hull_array(np.random.default_rng(5), 20, 4))
        d = _points(_sample_hull_array(np.random.default_rng(5), 20, 4))
        assert c == d

    def test_vertex_patterns(self):
        for p in _points(_sample_s2_array(np.random.default_rng(9), 500)):
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
        (p,) = _points(_sample_hull_array(np.random.default_rng(3), 1, 1))
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
        for p in _points(_sample_s2_array(np.random.default_rng(13), 800)):
            assert in_relaxation_ctilde(p)
            assert member_hull(p).member

    def test_separable_samples_in_relaxation(self):
        for p in _points(_sample_separable_array(np.random.default_rng(15), 300)):
            assert separable_holds(p)

    def test_samples_stay_in_the_sampling_box(self):
        # a convex combination of box points may round past the box by an ulp
        ulp = 1.0 + 4 * np.finfo(float).eps
        rng = np.random.default_rng(17)
        for rows, lift in (
            (_sample_s2_array(rng, 400), XMAX * XMAX),
            (_sample_hull_array(rng, 200, 4), XMAX * XMAX),
            (_sample_separable_array(rng, 400), LIFT_MAX),
        ):
            assert rows.min() >= 0.0
            assert rows[:, :2].max() <= XMAX * ulp
            assert rows[:, 2:5].max() <= lift * ulp
            assert rows[:, 5:].max() <= ulp

    def test_ctilde_points_respect_the_indicator_floor(self):
        pts = sample_ctilde_points(np.random.default_rng(19), 300)
        assert len(pts) == 300
        for p in pts:
            assert min(p.z1, p.z2) >= Z_FLOOR
            assert max(p.x1, p.x2) <= XMAX
            assert in_relaxation_ctilde(p)

    def test_margin_points_clear_the_oracle_margin(self):
        pts = ctilde_margin_points(np.random.default_rng(21), 40)
        assert len(pts) == 40
        for p in pts:
            rep = member_hull(p)
            assert not rep.degenerate and rep.region is not Region.NOT_COVERED
            finite = [s for s in rep.slacks.values() if math.isfinite(s)]
            assert finite and min(abs(s) for s in finite) >= ORACLE_MARGIN
