"""The batch functions against the scalar reference, bit for bit."""

import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairhull.columns
import pairhull.core
from pairhull import hull
from pairhull.core import DEFAULT_TOL, HullPoint, in_relaxation_ctilde
from pairhull.errors import NotInAmbientBox, NumericallyDegenerate, PairhullError
from pairhull.hull import member_batch, member_hull
from pairhull.regions import CODE_OF, NOT_COVERED_CODE, Region, classify, classify_batch
from pairhull.families import FAMILY_BY_CELL, q_gradient
from pairhull.separation import _normalized, separate, separate_batch
from pairhull.verify import (
    _sample_hull_array,
    _sample_separable_array,
    _shrunken_rows,
    ctilde_margin_points,
    sample_ctilde_points,
    shrunken_nonmembers,
)
from reference import candidate_region_point, exact_copositive, family_touch_points


SRC = Path(__file__).resolve().parent.parent / "src" / "pairhull"


def _rows(points) -> np.ndarray:
    return np.array([p.coords() for p in points])


def _scaled(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(x, X) -> (t x, t^2 X) per row, z fixed."""
    out = rows.copy()
    out[:, :2] *= t[:, None]
    out[:, 2:5] *= (t * t)[:, None]
    return out


def _gate_rows(n: int, seed: int) -> dict[str, np.ndarray]:
    """Every verify sampler, indicator-edge points, band-jittered points
    (uncovered corners among them), points with z1 + z2 near 1 and a
    scaled copy of all of them with t log-uniform in [1e-3, 1e3]."""
    rng = np.random.default_rng(seed)
    sets = {
        "ctilde": _rows(sample_ctilde_points(rng, n)),
        "margin": _rows(ctilde_margin_points(rng, n // 4)),
        "shrunken": _rows(shrunken_nonmembers(rng, n)),
        "touch": _rows(
            [p for fam in ("II", "III", "V") for p in family_touch_points(rng, n // 3, fam)]
        ),
        "separable": _sample_separable_array(rng, n),
    }
    for k in range(1, 9):
        sets[f"hull{k}"] = _sample_hull_array(rng, n // 4, k)
    edge = sets["separable"].copy()
    edge[: n // 2, 5] = 0.0
    edge[n // 2 :, 6] = 0.0
    sets["edge"] = edge
    band = np.concatenate([sets["touch"], sets["shrunken"]])
    hit = rng.integers(0, 7, len(band))
    band[np.arange(len(band)), hit] += rng.choice([-2e-9, -1e-9, 1e-9, 2e-9], len(band))
    band[:, 5:] = np.clip(band[:, 5:], 0.0, 1.0)
    sets["band"] = np.maximum(band, 0.0)
    w0 = sets["ctilde"].copy()
    w0[:, 6] = np.clip(1.0 - w0[:, 5] + rng.choice([0.0, 1e-10, 1e-9, 1e-8], n), 0.0, 1.0)
    sets["w0"] = w0
    every = np.concatenate(list(sets.values()))
    sets["scaled"] = _scaled(every, np.exp(rng.uniform(math.log(1e-3), math.log(1e3), len(every))))
    return sets


def _key(rep):
    return (
        rep.member,
        rep.region,
        rep.violated,
        [(k, float(v).hex()) for k, v in rep.slacks.items()],
        None if rep.W is None else rep.W.hex(),
        rep.degenerate,
    )


def _member_outcome(decide):
    """The report key of a decision, or the class of its PairhullError."""
    try:
        return _key(decide())
    except PairhullError as exc:
        return ("error", type(exc).__name__)


def _assert_batch_equals_scalar(rows: np.ndarray) -> None:
    tags = classify_batch(rows)
    batch = member_batch(rows)
    assert len(tags) == len(batch) == len(rows)
    for i, row in enumerate(rows):
        p = HullPoint.from_coords(row)
        assert tags[i] is classify(p), (i, row.tolist())
        assert _key(batch.report(i)) == _key(member_hull(p)), (i, row.tolist())


@pytest.fixture(scope="module")
def gate_rows() -> dict[str, np.ndarray]:
    return _gate_rows(300, seed=41)


class TestBitIdentity:
    def test_every_sampler_listed_and_reversed(self, gate_rows):
        for rows in gate_rows.values():
            _assert_batch_equals_scalar(rows)
            _assert_batch_equals_scalar(rows[::-1])

    def test_gate_reaches_every_path(self, gate_rows):
        rows = np.concatenate(list(gate_rows.values()))
        batch = member_batch(rows)
        cells = np.bincount(batch.cell, minlength=NOT_COVERED_CODE + 1)
        assert (cells > 0).all()  # R1..R8 and uncovered corners
        assert set(batch.region) == set(Region)
        assert {"I.persp1", "edge.product"} <= set(
            name for names in batch.names[batch.cell == 0] for name in names
        )
        assert (~batch.member).any() and not batch.errors
        # the +inf of a closed fraction enters these slacks as -inf
        hit, slot = np.nonzero(np.isneginf(batch.slacks))
        assert {batch.names[i][j] for i, j in zip(hit, slot)} == {
            "I.persp1", "I.persp2", "edge.product", "II.product"
        }

    def test_shuffled_batch_decides_each_row_alike(self, gate_rows):
        rows = gate_rows["scaled"]
        order = np.random.default_rng(3).permutation(len(rows))
        whole, shuffled = member_batch(rows), member_batch(rows[order])
        for j, i in enumerate(order[:500]):
            assert _key(shuffled.report(j)) == _key(whole.report(i))

    def test_small_batches_go_row_by_row_with_the_same_reports(self, gate_rows, monkeypatch):
        rows = gate_rows["band"][:40]
        monkeypatch.setattr(pairhull.core, "COLUMN_MIN_ROWS", 1)
        columns = member_batch(rows)
        monkeypatch.setattr(pairhull.core, "COLUMN_MIN_ROWS", 10**9)
        by_rows = member_batch(rows)
        for i in range(len(rows)):
            assert _key(columns.report(i)) == _key(by_rows.report(i))
        assert [t.value for t in classify_batch(rows)] == [
            classify(HullPoint.from_coords(r)).value for r in rows
        ]

    def test_rows_past_column_max_take_the_scalar_path(self):
        base = _rows(sample_ctilde_points(np.random.default_rng(5), 80))
        rows = base.copy()
        rows[::7] = _scaled(rows[::7], np.full(len(rows[::7]), 1e40))
        assert (np.abs(rows) > 1e64).any(axis=1).sum() > 0
        _assert_batch_equals_scalar(rows)
        # at these scales the squares of the cell systems overflow to inf:
        # the scalar classify and member_hull raise no OverflowError, and a
        # row whose decision raises raises the same error in the batch
        for t in (1e80, 1e120):
            rows = base.copy()
            rows[::7] = _scaled(rows[::7], np.full(len(rows[::7]), t))
            tags, batch = classify_batch(rows), member_batch(rows)
            for i, row in enumerate(rows):
                p = HullPoint.from_coords(row)
                assert tags[i] is classify(p), (i, row.tolist())
                assert _member_outcome(lambda: batch.report(i)) == _member_outcome(
                    lambda: member_hull(p)
                ), (i, row.tolist())

    def test_empty_batch(self):
        assert len(member_batch(np.empty((0, 7)))) == 0
        assert len(classify_batch(np.empty((0, 7)))) == 0


#: The member of cell R8 that its part V piece rejects and the part IV piece
#: of the neighbouring R7 rescues (``R8_scaled_1e-3`` of the closed-form pins).
RESCUED = (0.001287721136902277, 0.0011955653091008096, 2.3445421587638382e-06,
           6.24459984648067e-07, 2.6680136439576806e-06, 0.7597095977173154,
           0.5546443248526949)


class TestRescue:
    """The column path reads every closure a rescue needs from one closed
    cell_masks, and only where some row needs a rescue."""

    @staticmethod
    def _closure_calls(monkeypatch) -> list:
        calls = []
        masks = hull.cell_masks

        def spy(cols, tol, closed=False):
            calls.append((len(cols), closed))
            return masks(cols, tol, closed)

        monkeypatch.setattr(hull, "cell_masks", spy)
        return calls

    def test_members_evaluate_no_closure(self, monkeypatch):
        rows = np.concatenate([
            _sample_hull_array(np.random.default_rng(100 + k), 500, k) for k in range(1, 9)
        ])
        calls = self._closure_calls(monkeypatch)
        assert member_batch(rows).member.all()
        assert calls == []

    def test_a_rejected_member_is_rescued_as_by_member_hull(self, monkeypatch):
        rows = _sample_hull_array(np.random.default_rng(101), 64, 1)
        rows[40] = RESCUED
        calls = self._closure_calls(monkeypatch)
        batch = member_batch(rows)
        rep = member_hull(HullPoint(*RESCUED))
        assert rep.member and rep.region is Region.R8 and list(rep.slacks)[0] == "IV.diag1"
        assert _key(batch.report(40)) == _key(rep)
        assert batch.member.all() and calls == [(1, True)]


class TestOneSwitch:
    def test_only_core_names_the_column_threshold(self):
        # the row-by-row or columns choice is made once, by the helpers of
        # core; the batch functions each have one body
        naming = {f.name for f in SRC.glob("*.py") if "COLUMN_MIN_ROWS" in f.read_text()}
        assert naming == {"core.py"}


class TestBadRows:
    @pytest.mark.parametrize("n", [3, 100])
    def test_row_outside_the_box_raises_the_scalar_error(self, n):
        rows = _rows(sample_ctilde_points(np.random.default_rng(6), n))
        rows[n // 2, 0] = -1.0
        with pytest.raises(NotInAmbientBox) as scalar:
            member_hull(HullPoint.from_coords(rows[n // 2]))
        for fn in (member_batch, classify_batch):
            with pytest.raises(NotInAmbientBox) as batch:
                fn(rows)
            assert str(batch.value) == str(scalar.value)

    def test_wrong_shape_is_rejected(self):
        with pytest.raises(ValueError):
            member_batch(np.zeros((3, 6)))

    def test_degenerate_w_takes_the_oracle_fallback(self, monkeypatch):
        # W = 0 provably lands in R6 (see test_hull); force the R8 route in
        # both paths, as the scalar test does
        z1, z2, x1, x2 = 0.7, 0.6, 0.3, 1.0
        X22 = x2 * x2 * (1 - 1e-13) / (1 - z1)
        X12 = 0.5 * x1 * x2 * (z1 + z2 - 1) / (z1 * z2)
        w_zero = (x1, x2, 5.0, X12, X22, z1, z2)
        r8 = candidate_region_point(np.random.default_rng(8), Region.R8)
        rows = np.array([w_zero] + [r8.coords()] * 70)
        monkeypatch.setattr(hull, "classify", lambda q, tol: Region.R8)
        monkeypatch.setattr(hull, "cell_codes", lambda cols, tol: np.full(len(cols), 7))
        batch = member_batch(rows)
        rep = batch.report(0)
        assert rep.degenerate and rep.W is None and rep.member
        assert _key(rep) == _key(member_hull(HullPoint(*w_zero)))
        assert not batch.degenerate[1:].any() and not np.isnan(batch.W[1:]).any()


def _outcome(decide):
    """What a separation gives: the error class, or inside and region plus
    the cut's coefficients, constant and touch point as float.hex."""
    try:
        res = decide()
    except (PairhullError, ArithmeticError, ValueError) as exc:
        return ("error", type(exc).__name__)
    if res.inside:
        return ("inside", res.region.value)
    cut = res.cut
    values = (*cut.coeffs, cut.constant, *cut.touch.coords())
    return ("cut", res.region.value, tuple(float(v).hex() for v in values))


def _assert_separate_batch_equals_scalar(rows: np.ndarray) -> list:
    batch = separate_batch(rows)
    assert len(batch) == len(rows)
    outcomes = []
    for i, row in enumerate(rows):
        scalar = _outcome(lambda: separate(HullPoint.from_coords(row)))
        assert _outcome(lambda: batch.result(i)) == scalar, (i, row.tolist())
        outcomes.append(scalar)
    return outcomes


#: Scaled R4 rows (rows 746 and 706 of ``_gate_rows(300, seed)["scaled"]``
#: for seeds 42 and 55) whose rounded cut, built at the touch point, is not
#: below zero at the query: separate raises SeparationInvariantError.
UNSEPARATED = [
    (104.93276122572489, 1164.196840195188, 10933449.025131593, 1101971.0457196212,
     5138019.308102034, 0.7548222521712609, 0.265748159359851),
    (133.4261785198761, 341.7279780930445, 24247802.398669634, 1007389.9145341543,
     908796.4923060779, 0.9182364697981921, 0.13110036879016773),
]


class TestSeparateBatch:
    def test_every_sampler_listed_reversed_and_shuffled(self, gate_rows):
        order = np.random.default_rng(4)
        seen = set()
        for rows in gate_rows.values():
            for batch in (rows, rows[::-1], rows[order.permutation(len(rows))]):
                seen |= {o[:2] for o in _assert_separate_batch_equals_scalar(batch)}
        # cuts of every family, member rows and the errors of scaled rows
        assert {("cut", r) for r in ("R3", "R4", "R5", "R8")} <= seen
        assert ("inside", "NotCovered") in seen
        assert ("error", "InputOutsideCtilde") in seen
        # the invariant check raises alike after the shrunken rows of a
        # column batch and one row at a time
        rows = np.concatenate([gate_rows["shrunken"][:64], UNSEPARATED])
        outcomes = _assert_separate_batch_equals_scalar(rows)
        assert outcomes[-2:] == [("error", "SeparationInvariantError")] * 2

    def test_bumped_edge_and_out_of_reach_rows_in_a_column_batch(self, monkeypatch):
        # the R4 pin whose X22 sits on the perspective bound needs a bump;
        # the two indicator-edge pins cut on an edge; an R8 row with
        # z2 >= 1 - 1e-9 has no closed-form touch point.  No cell R8 point
        # has such a z2, so that row is sent to R8 in both paths, as the
        # oracle-fallback test does for W = 0
        bump = (0.3, 0.8, 0.5, 0.7, 1.28, 0.7, 0.5)
        edges = [(0.0, 0.8, 0.5, 0.6, 1.5, 0.0, 0.6), (0.8, 0.0, 1.5, 0.6, 0.5, 0.6, 0.0)]
        near_one = (0.5, 1.0, 1.0, 0.0, 2.0, 0.7, 1.0 - 5e-10)
        rows = _rows(shrunken_nonmembers(np.random.default_rng(9), 70))
        rows = np.insert(rows, [10, 20, 30, 40], [bump, *edges, near_one], axis=0)
        cells, codes = hull.classify, hull.cell_codes
        monkeypatch.setattr(
            hull, "classify",
            lambda q, tol: Region.R8 if q.z2 >= 1.0 - 1e-9 else cells(q, tol),
        )
        monkeypatch.setattr(
            hull, "cell_codes",
            lambda c, tol: np.where(c.z2 >= 1.0 - 1e-9, 7, codes(c, tol)),
        )
        for batch in (rows, rows[::-1]):
            _assert_separate_batch_equals_scalar(batch)
        outcomes = _assert_separate_batch_equals_scalar(rows)
        assert outcomes[10][:2] == ("cut", "R4")
        assert outcomes[21][:2] == outcomes[32][:2] == ("cut", "R1")
        assert outcomes[43] == ("error", "NumericallyDegenerate")
        message = "^family V needs z2 < 1 and x2 > 0; no closed-form cut here$"
        with pytest.raises(NumericallyDegenerate, match=message):
            separate_batch(rows).result(43)
        with pytest.raises(NumericallyDegenerate, match=message):
            separate(HullPoint.from_coords(rows[43]))

    def test_batches_of_one_family_or_all_finish_their_cuts_once(self, monkeypatch):
        # a column batch of R8 rows alone and of R5 rows alone skips the
        # families it lacks; a mixed batch, with the X22-bump pins of R4 and
        # R8 that go to the scalar path, finishes the cuts of all its
        # families (normalization, X12 snap and constant) in one call
        rows = _shrunken_rows(np.random.default_rng(12), 3000, DEFAULT_TOL)
        tags = np.array([tag.value for tag in classify_batch(rows)])
        by_cell = {cell: rows[tags == cell][:64] for cell in ("R3", "R4", "R5", "R8")}
        pins = [
            (0.3, 0.8, 0.5, 0.7, 1.28, 0.7, 0.5),
            (0.4573629335106726, 0.42313868973994073, 0.2637160410334129,
             0.10703844896112873, 0.3479534118820882, 0.8175239086750108,
             0.5145698953959609),
        ]
        mixed = np.concatenate([*(v[:32] for v in by_cell.values()), pins])
        registry = pairhull.columns._COLUMN_OF
        pairhull.columns.elementwise(_normalized)  # compiled on first use
        finish, calls = registry[_normalized], []
        monkeypatch.setitem(registry, _normalized, lambda *a: calls.append(1) or finish(*a))
        for block, cells in (
            (by_cell["R8"], {"R8"}), (by_cell["R5"], {"R5"}), (mixed, set(by_cell))
        ):
            assert len(block) >= 64
            for batch in (block, block[::-1]):
                calls.clear()
                outcomes = _assert_separate_batch_equals_scalar(batch)
                assert len(calls) == 1
                assert {o[:2] for o in outcomes} == {("cut", cell) for cell in cells}

    def test_small_batches_go_row_by_row_with_the_same_results(self, gate_rows, monkeypatch):
        rows = np.concatenate([gate_rows["band"][:20], gate_rows["edge"][:20]])
        monkeypatch.setattr(pairhull.core, "COLUMN_MIN_ROWS", 1)
        columns = separate_batch(rows)
        monkeypatch.setattr(pairhull.core, "COLUMN_MIN_ROWS", 10**9)
        by_rows = separate_batch(rows)
        for i in range(len(rows)):
            assert _outcome(lambda: columns.result(i)) == _outcome(lambda: by_rows.result(i))

    def test_rows_past_column_max_take_the_scalar_path(self):
        base = _rows(shrunken_nonmembers(np.random.default_rng(10), 80))
        for t in (1e40, 1e80, 1e120):
            rows = base.copy()
            rows[::7] = _scaled(rows[::7], np.full(len(rows[::7]), t))
            outcomes = _assert_separate_batch_equals_scalar(rows)
            assert ("error", "OverflowError") not in outcomes

    def test_far_scaled_rows_warn_in_neither_path(self):
        # near t = 1e77 the dot product of the gradient with the touch point
        # overflows on three of these rows, and on two of them the
        # normalization of the cut divides inf by inf; the NaN cuts are refused
        rng = np.random.default_rng(19)
        rows = _rows(sample_ctilde_points(rng, 400) + shrunken_nonmembers(rng, 400))
        rows = _scaled(rows, np.exp(rng.uniform(math.log(1e20), math.log(1e150), len(rows))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = _assert_separate_batch_equals_scalar(rows)
        assert {"cut", "inside", "error"} <= {o[0] for o in outcomes}
        # a NaN cut separates nothing: both paths raise on those rows
        assert not any("nan" in o[2][:8] for o in outcomes if o[0] == "cut")

    @pytest.mark.parametrize("n", [3, 100])
    def test_row_outside_the_box_raises_the_scalar_error(self, n):
        rows = _rows(shrunken_nonmembers(np.random.default_rng(11), n))
        rows[n // 2, 6] = 1.5
        with pytest.raises(NotInAmbientBox) as scalar:
            separate(HullPoint.from_coords(rows[n // 2]))
        with pytest.raises(NotInAmbientBox) as batch:
            separate_batch(rows)
        assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize("min_rows", [1, 10**9])
    def test_cell_codes_are_the_region_codes(self, gate_rows, monkeypatch, min_rows):
        rows = np.concatenate([gate_rows["ctilde"][:30], gate_rows["shrunken"][:30]])
        monkeypatch.setattr(pairhull.core, "COLUMN_MIN_ROWS", min_rows)
        members, cuts = member_batch(rows), separate_batch(rows)
        for i, row in enumerate(rows):
            p = HullPoint.from_coords(row)
            assert members.cell[i] == CODE_OF[member_hull(p).region]
            assert cuts.cell[i] == CODE_OF[separate(p).region]

    def test_empty_batch(self):
        batch = separate_batch(np.empty((0, 7)))
        assert len(batch) == 0 and not batch.cuts().any()


@st.composite
def _ctilde_rows(draw):
    """Rows of the separation input set built as sample_ctilde_points
    builds them, each scaled by its own t in [1e-3, 1e3]."""
    unit = st.floats(0.0, 1.0)
    u = np.array(draw(st.lists(st.tuples(*[unit] * 8), min_size=8, max_size=32)))
    x = 2.0 * u[:, :2]
    z = 0.02 + 0.98 * u[:, 2:4]
    X11 = x[:, 0] ** 2 / z[:, 0] + 3.0 * u[:, 4]
    X22 = x[:, 1] ** 2 / z[:, 1] + 3.0 * u[:, 5]
    cap = np.sqrt(np.maximum((X11 - x[:, 0] ** 2) * (X22 - x[:, 1] ** 2), 0.0))
    X12 = np.maximum(x[:, 0] * x[:, 1] + (1.998 * u[:, 6] - 0.999) * cap, 0.0)
    rows = np.column_stack([x, X11, X12, X22, z])
    return _scaled(rows, 10.0 ** (6.0 * u[:, 7] - 3.0))


class TestSeparateProperties:
    @settings(max_examples=60, deadline=None)
    @given(_ctilde_rows())
    def test_decisions_agree_and_cuts_separate(self, rows):
        # inside agrees with member_batch, each cut is violated at its
        # query and vanishes at its touch point; the batches are decided
        # on columns however few their rows
        with mock.patch.object(pairhull.core, "COLUMN_MIN_ROWS", 1):
            batch = separate_batch(rows)
            member = member_batch(rows).member
        for i in range(len(rows)):
            if i in batch.errors:
                assert isinstance(batch.errors[i], PairhullError)
                continue
            assert batch.inside[i] == member[i]
            if not batch.inside[i]:
                cut = batch.result(i).cut
                assert cut.evaluate(HullPoint.from_coords(rows[i])) < 0.0
                assert abs(cut.evaluate(cut.touch)) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(_ctilde_rows())
    def test_cuts_are_copositive_by_the_fewest_ulps(self, rows):
        # each cut is the normalized gradient of its family at the touch
        # point with the X12 coefficient moved toward zero, if at all, to
        # the first value at which the quadratic part is exactly copositive
        with mock.patch.object(pairhull.core, "COLUMN_MIN_ROWS", 1):
            batch = separate_batch(rows)
        for i in np.flatnonzero(batch.cuts()):
            res = separate(HullPoint.from_coords(rows[i]))
            for cut in (res.cut, batch.result(i).cut):
                a, b, c = cut.coeffs[2:5]
                assert exact_copositive(a, b, c)
                family = FAMILY_BY_CELL.get(
                    res.region.value, "II" if cut.touch.z1 == 0.0 else "III"
                )
                grad = np.array(q_gradient(family, cut.touch))
                raw = grad / np.max(np.abs(grad))
                assert np.delete(cut.coeffs, 3).tobytes() == np.delete(raw, 3).tobytes()
                assert b == raw[3] or (
                    raw[3] < b and not exact_copositive(a, math.nextafter(b, -math.inf), c)
                )


def _reference_ctilde_points(rng, n: int) -> list[HullPoint]:
    """sample_ctilde_points with its candidates filtered one point at a
    time by in_relaxation_ctilde."""
    out: list[HullPoint] = []
    while len(out) < n:
        m = max(2 * (n - len(out)), 64)
        x = rng.uniform(0.0, 2.0, (m, 2))
        z = rng.uniform(0.02, 1.0, (m, 2))
        a = rng.uniform(0.0, 3.0, m)
        b = rng.uniform(0.0, 3.0, m)
        X11 = x[:, 0] ** 2 / z[:, 0] + a
        X22 = x[:, 1] ** 2 / z[:, 1] + b
        cap = np.sqrt(np.maximum((X11 - x[:, 0] ** 2) * (X22 - x[:, 1] ** 2), 0.0))
        t = rng.uniform(-0.999, 0.999, m)
        X12 = np.maximum(x[:, 0] * x[:, 1] + t * cap, 0.0)
        for row in np.column_stack([x[:, 0], x[:, 1], X11, X12, X22, z[:, 0], z[:, 1]]):
            p = HullPoint.from_coords(row)
            if in_relaxation_ctilde(p) and len(out) < n:
                out.append(p)
    return out


class TestSamplers:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_ctilde_points_equal_the_row_filter(self, seed):
        for n in (0, 1, 65, 4000):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_ctilde_points(rng, n)
            ref = _reference_ctilde_points(ref_rng, n)
            assert [[c.hex() for c in p.coords()] for p in got] == [
                [c.hex() for c in p.coords()] for p in ref
            ]
            # the generator is left where the row filter left it
            assert rng.bytes(16) == ref_rng.bytes(16)
