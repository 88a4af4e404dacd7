"""The verify campaigns against their references: the masked vertex sampler
and the convex combinations built on it, the separable sampler drawn one
coordinate per call, the one-candidate-at-a-time loop of the shrunken
non-members, and the per-query loop of the cuts suite with the rational
minimum of each cut over the vertex set."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairhull.verify
import reference
from pairhull.columns import elementwise
from pairhull.core import HullColumns, HullPoint, Tolerances, in_relaxation_ctilde
from pairhull.errors import DegenerateGradient, NumericallyDegenerate
from pairhull.families import FAMILY_BY_CELL, x11_root
from pairhull.hull import member_batch
from pairhull.regions import classify, classify_batch
from pairhull.separation import copositive_x12
from pairhull.verify import (
    GAP_FLOOR,
    SHRUNKEN_REGIONS,
    _sample_hull_array,
    _sample_s2_array,
    _sample_separable_array,
    _shrunken_rows,
    run_cuts_suite,
    s2_minimum,
    shrunken_nonmembers,
)
from reference import (
    ctilde_x11_bound,
    cuts_suite_by_loop,
    exact_s2_minimum,
    hull_by_masked,
    sample_s2_masked,
    separable_by_columns,
    shrunken_nonmembers_by_loop,
)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_vertex_sampler_matches_masked_construction(n, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rows, ref = _sample_s2_array(rng, n), sample_s2_masked(ref_rng, n)
    assert rows.shape == ref.shape == (n, 7)
    assert rows.tobytes() == ref.tobytes()
    # the generator is left where the masked construction left it
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 10000])
def test_separable_sampler_matches_column_calls(n, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rows, ref = _sample_separable_array(rng, n), separable_by_columns(ref_rng, n)
    assert rows.shape == ref.shape == (n, 7)
    assert rows.flags.c_contiguous
    assert rows.tobytes() == ref.tobytes()
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", range(1, 9))
def test_hull_sampler_matches_masked_construction(k, seed):
    for n in (0, 1, 255, 256, 257, 2000):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows, ref = _sample_hull_array(rng, n, k), hull_by_masked(ref_rng, n, k)
        assert rows.shape == ref.shape == (n, 7)
        assert rows.tobytes() == ref.tobytes()
        assert rng.random() == ref_rng.random()


#: Largest distance between :func:`s2_minimum` on columns and the rational
#: minimum of the same cut.  Measured: 4.3e-16 on the 100000 cuts of
#: ``verify --suite cuts --trials 100000 --seed 4`` and 3.1e-16 on the 1197
#: cuts of 20000 ``sample_ctilde_points`` (rng 2).
S2_MINIMUM_ERROR = 1e-15


@pytest.mark.parametrize(
    "trials, seed, tol",
    [
        (250, 1, Tolerances()),
        (250, 2, Tolerances()),
        (300, 7, Tolerances(eq_tol=1e-4, mem_tol=1e-3, oracle_tol=1e-3)),
    ],
    ids=["default-1", "default-2", "loose-7"],
)
def test_cuts_suite_matches_per_query_loop(trials, seed, tol):
    report = run_cuts_suite(trials, seed, tol)
    ref = cuts_suite_by_loop(trials, seed, tol)
    assert report.failures == ref.failures
    assert abs(report.worst_slack - ref.worst_slack) <= S2_MINIMUM_ERROR
    assert report.detail == ref.detail
    assert report.offender == ref.offender
    assert report.ok == (tol == Tolerances())  # the loose run has failures


_signed = st.floats(-1.0, 1.0)
_diagonal = st.sampled_from([0.0, -0.25]) | st.floats(2.0**-30, 1.0)


@st.composite
def _cut_rows(draw):
    """A cut (coeffs, constant) whose quadratic part has a negative, zero or
    positive diagonal entry and an X12 coefficient that is nonnegative, any
    negative value, the rank-one edge moved to copositive by
    copositive_x12, or that edge exactly (squares of 20-bit dyadics)."""
    a, c = draw(_diagonal), draw(_diagonal)
    kind = draw(st.sampled_from(["nonneg", "any", "snapped", "singular"]))
    if kind == "singular":
        s, t = (draw(st.integers(1, 2**20)) / 2**20 for _ in range(2))
        a, b, c = s * s, -2.0 * s * t, t * t
    elif kind == "snapped" and min(a, c) > 0.0:
        edge = -2.0 * math.sqrt(a) * math.sqrt(c) * (1.0 + draw(st.floats(-1e-14, 1e-14)))
        b = copositive_x12(a, edge, c)
    else:
        b = draw(st.floats(0.0, 2.0) if kind == "nonneg" else st.floats(-2.0, 2.0))
    g1, g2, z1, z2, k = (draw(_signed) for _ in range(5))
    return (g1, g2, a, b, c, z1, z2), k


@settings(max_examples=300, deadline=None)
@given(st.lists(_cut_rows(), min_size=1, max_size=16))
@example([((0.0,) * 7, 0.0), ((0.0,) * 7, -0.0)])  # the sign of a tied zero
def test_s2_minimum_matches_rational_minimum(cuts):
    # -inf exactly where the rational infimum is unbounded, else within a
    # few roundings of the terms it is built from, one by one and on columns
    coeffs = np.array([c for c, _ in cuts])
    consts = np.array([k for _, k in cuts])
    with np.errstate(all="ignore"):
        columns = elementwise(s2_minimum)(HullColumns(coeffs.T), consts)
    for (c, k), col in zip(cuts, columns):
        low = s2_minimum(HullPoint(*c), k)
        assert low.hex() == float(col).hex()
        exact = exact_s2_minimum(c, k)
        if exact == -math.inf:
            assert low == -math.inf
        else:
            scale = 1.0 + abs(k) + abs(c[5]) + abs(c[6]) + abs(exact)
            assert abs(low - exact) <= 64 * np.finfo(float).eps * scale


@pytest.mark.parametrize("c", [
    (0.0, -5e-324, 1.0, -2.0, 1.0, 0.0, 0.0),
    (0.0, -5e-324, 0.5, -1.0, 0.5, 0.0, 0.0),
    (-5e-324, 0.0, 1.0, -2.0, 1.0, 0.0, 0.0),
    (-1e-300, -1e-300, 0.25, -1.0, 1.0, 0.0, 0.0),
])
def test_s2_minimum_is_unbounded_along_a_null_ray_with_a_tiny_slope(c):
    # the form is singular, and the linear term falls along its null ray by
    # a slope whose half, or whose product with a form entry, rounds to 0
    assert exact_s2_minimum(c, 0.0) == -math.inf
    assert s2_minimum(HullPoint(*c), 0.0) == -math.inf
    with np.errstate(all="ignore"):
        column = elementwise(s2_minimum)(HullColumns(np.array([c]).T), np.zeros(1))
    assert column[0] == -math.inf


def _adding_errors(batch_fn, errors):
    """``batch_fn`` with ``errors`` added to the errors of its result."""

    def wrapped(rows, tol):
        out = batch_fn(rows, tol)
        out.errors.update(errors)
        return out

    return wrapped


_ROW_3 = NumericallyDegenerate("row 3")
_ROW_5 = ZeroDivisionError("row 5")
_TOUCH_3 = ArithmeticError("touch 3")
_ROW_1 = ValueError("row 1")
_ROW_7 = ValueError("row 7")
_TOUCH_1 = NumericallyDegenerate("touch 1")


@pytest.mark.parametrize(
    "sep_errors, touch_errors, raised",
    [
        ({3: _ROW_3, 10: DegenerateGradient("row 10")}, {}, None),
        ({3: _ROW_3, 5: _ROW_5}, {}, _ROW_5),
        # touch row 3 is query 4: query 3 has no cut
        ({3: _ROW_3}, {3: _TOUCH_3}, _TOUCH_3),
        ({1: _ROW_1}, {5: NumericallyDegenerate("touch 5")}, _ROW_1),
        ({7: _ROW_7}, {1: _TOUCH_1}, _TOUCH_1),
    ],
    ids=["counted", "raised", "touch-raised", "separation-first", "touch-first"],
)
def test_cuts_suite_counts_and_raises_the_errors_of_the_loop(
    monkeypatch, sep_errors, touch_errors, raised
):
    # A separation error that is a PairhullError is counted, any other is
    # raised; the membership error of a touch point the loop asks about is
    # raised.  The first such row in query order decides which is raised.
    for module in (pairhull.verify, reference):
        monkeypatch.setattr(
            module, "separate_batch", _adding_errors(module.separate_batch, sep_errors)
        )
        monkeypatch.setattr(
            module, "member_batch", _adding_errors(module.member_batch, touch_errors)
        )
    if raised is not None:
        for suite in (run_cuts_suite, cuts_suite_by_loop):
            with pytest.raises(type(raised)) as info:
                suite(40, 1)
            assert info.value is raised
        return
    report, ref = run_cuts_suite(40, 1), cuts_suite_by_loop(40, 1)
    assert report.failures == ref.failures == 2
    assert report.offender == ref.offender
    assert report.offender["error"] == "row 3"
    assert report.detail == ref.detail == "cuts=38"
    assert abs(report.worst_slack - ref.worst_slack) <= S2_MINIMUM_ERROR


def test_cuts_suite_memory_does_not_grow_with_trials_times_samples():
    # a dense check of the cuts on 10^4 vertex samples held two 10^4 x
    # trials float arrays, 160 MB here; the closed-form minimum holds a
    # few columns of trials floats
    run_cuts_suite(5, 4)  # the column functions compile on first use
    tracemalloc.start()
    try:
        report = run_cuts_suite(1000, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 32 * 2**20


def _gap_ends(p: HullPoint, tol: Tolerances = Tolerances()) -> tuple[float, float]:
    """(lo, hi): the relaxation and the hull bound on X11 at p's cell."""
    family = FAMILY_BY_CELL[classify(p, tol).value]
    return ctilde_x11_bound(p), x11_root(family, p)


def _shrunken_stats(points: list[HullPoint]) -> dict[str, np.ndarray]:
    """Cell tags, X11 position in the gap, gap and closed-form violation
    (minus the least slack of the membership decision) of each point."""
    rows = np.array([p.coords() for p in points])
    lo, hi = np.array([_gap_ends(p) for p in points]).T
    decided = member_batch(rows)
    assert not decided.errors and not decided.member.any()
    return {
        "cell": np.array([r.value for r in classify_batch(rows)]),
        "position": (rows[:, 2] - lo) / (hi - lo),
        "gap": hi - lo,
        "violation": -np.nanmin(decided.slacks, axis=1),
    }


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest distance
    between the empirical distribution functions of a and b."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    fa = np.searchsorted(a, at, side="right") / a.size
    fb = np.searchsorted(b, at, side="right") / b.size
    return float(np.abs(fa - fb).max())


def _ks_critical(n: int, m: int, alpha: float) -> float:
    """Asymptotic critical value of the two-sample statistic at level alpha."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) * math.sqrt((n + m) / (n * m))


#: Tolerance sets at which the shrunken non-members are checked: the
#: default, a middle one and the widest bands the CLI tests use.
SAMPLER_TOLS = {
    "default": Tolerances(),
    "mid": Tolerances(eq_tol=1e-4, mem_tol=1e-3, oracle_tol=1e-3),
    "loose": Tolerances(eq_tol=0.3, mem_tol=0.3, oracle_tol=0.3),
}

#: sha256 of ``_shrunken_rows(rng, n, tol).tobytes()`` followed by the
#: generator's next ``rng.bytes(16)``, keyed by (tolerance set, seed, n).
#: They are also the digests of a sampler that filters its candidates by
#: the ambient box and the separation input set, which reject none.
SHRUNKEN_ROW_DIGESTS = {
    ("default", 1, 250): "3f4810f0770f76eef67bab4c81a594ac1a712ad907ce1fa0efb53579195805cd",
    ("default", 1, 2000): "96c3f4e5b7792c7e22f586edd44455c8998d677fe84b13e1460430ea1ce4e619",
    ("default", 2, 250): "56acc5ccc5faaca67795e517d0f4de6fc976886c74a392ba0371dfa73a33839d",
    ("default", 2, 2000): "f9bbd812648c4de1864bcf551ca69d10665b0b6632c04ebab241a9620a4859aa",
    ("default", 3, 250): "827f16557fad077543649d4071f9e2dcd468edee6514515b8a75636666da10bb",
    ("default", 3, 2000): "e7fe62c678c3a7dd77c919340c848d81f0b59b4d9124d65d4422903b6f3f5b63",
    ("mid", 1, 250): "3f4810f0770f76eef67bab4c81a594ac1a712ad907ce1fa0efb53579195805cd",
    ("mid", 1, 2000): "96c3f4e5b7792c7e22f586edd44455c8998d677fe84b13e1460430ea1ce4e619",
    ("mid", 2, 250): "56acc5ccc5faaca67795e517d0f4de6fc976886c74a392ba0371dfa73a33839d",
    ("mid", 2, 2000): "f9bbd812648c4de1864bcf551ca69d10665b0b6632c04ebab241a9620a4859aa",
    ("mid", 3, 250): "827f16557fad077543649d4071f9e2dcd468edee6514515b8a75636666da10bb",
    ("mid", 3, 2000): "e321c353a9f95f1d1984251509a28690221b4c83565492cd93fac838724a6042",
    ("loose", 1, 250): "3b083b2fb804e981f3c44fc4b9c16d26a775910357ce9e14fc2f25d1f027a96a",
    ("loose", 1, 2000): "e6c6357da7f5e3f91b1b3afb0fcefee4b612cfa2e819878fda7993e762920a9b",
    ("loose", 2, 250): "0b7d1fc550ddfb327b3a48f7038f3bb4bff4b36c07449c916919948fcbe88772",
    ("loose", 2, 2000): "3f58539954be9b88ff7e9015f164081575b5b05c52c3c5ea7cf8158b8756f242",
    ("loose", 3, 250): "d62fbac3fa56137e47b1bf5f447fb254e9bdb96988c1e24630d4233ea540e090",
    ("loose", 3, 2000): "dd9a1621f497c8586c38aa2ec9ec6498920e14e46e0c5126b4482d64ac0d886a",
}


class TestShrunkenSampler:
    @pytest.mark.parametrize(
        "key", list(SHRUNKEN_ROW_DIGESTS), ids=lambda k: "-".join(map(str, k))
    )
    def test_rows_and_next_draw_are_pinned(self, key):
        name, seed, n = key
        rng = np.random.default_rng(seed)
        rows = _shrunken_rows(rng, n, SAMPLER_TOLS[name])
        digest = hashlib.sha256(rows.tobytes() + rng.bytes(16)).hexdigest()
        assert digest == SHRUNKEN_ROW_DIGESTS[key]

    @pytest.mark.parametrize("seed", [3, 21])
    def test_draws_from_the_distribution_of_the_loop(self, seed):
        n = 20_000
        cols = _shrunken_stats(shrunken_nonmembers(np.random.default_rng(seed), n))
        loop_rng = np.random.default_rng(seed + 1)
        loop = _shrunken_stats(shrunken_nonmembers_by_loop(loop_rng, n))
        for region in SHRUNKEN_REGIONS:
            a = np.mean(cols["cell"] == region.value)
            b = np.mean(loop["cell"] == region.value)
            share = (a + b) / 2.0
            assert abs(a - b) <= 4.0 * math.sqrt(share * (1.0 - share) * 2.0 / n), region
        critical = _ks_critical(n, n, 1e-3)
        for name in ("position", "gap", "violation"):
            assert _ks_statistic(cols[name], loop[name]) < critical, name

    def test_ks_statistic_of_known_samples(self):
        assert _ks_statistic(np.arange(4.0), np.arange(4.0)) == 0.0
        assert _ks_statistic(np.arange(4.0), np.arange(4.0) + 10.0) == 1.0
        assert _ks_statistic(np.array([0.0, 2.0]), np.array([1.0, 3.0])) == 0.5
        assert round(_ks_critical(20_000, 20_000, 1e-3), 4) == 0.0195

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        tol=st.sampled_from(list(SAMPLER_TOLS.values())),
    )
    def test_every_point_lies_strictly_inside_its_gap(self, seed, n, tol):
        points = shrunken_nonmembers(np.random.default_rng(seed), n, tol)
        assert len(points) == n
        for p in points:
            assert all(type(v) is float for v in p.coords())
            assert classify(p, tol) in SHRUNKEN_REGIONS
            assert in_relaxation_ctilde(p, tol)
            lo, hi = _gap_ends(p, tol)
            assert lo < p.X11 < hi
            assert hi - lo > GAP_FLOOR

    def test_rejects_candidates_whose_x11_slope_is_zero(self, monkeypatch):
        # X22 on the family II perspective bound: the scalar x11_root
        # divides by zero, the column one gives an infinite hull bound
        build = pairhull.verify._shrunken_candidates

        def flat(rng, cells):
            cols = build(rng, cells)
            on = cells < 2  # R3 and R4, the cells of family II
            cols.X22[on] = cols.x2[on] * cols.x2[on] / cols.z2[on]
            return cols

        monkeypatch.setattr(pairhull.verify, "_shrunken_candidates", flat)
        probe = flat(np.random.default_rng(5), np.zeros(3, np.intp)).points()
        for cand in probe:
            with pytest.raises(ZeroDivisionError):
                x11_root("II", cand)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = shrunken_nonmembers(np.random.default_rng(5), 400)
        assert {classify(p).value for p in points} == {"R5", "R8"}
        assert all(math.isfinite(v) for p in points for v in p.coords())

    def test_gives_up_after_max_draws(self, monkeypatch):
        monkeypatch.setattr(pairhull.verify, "MAX_DRAWS", 50)
        monkeypatch.setattr(reference, "MAX_DRAWS", 50)
        message = r"^only built \d+/1000 shrunken non-members$"
        for sampler in (shrunken_nonmembers, shrunken_nonmembers_by_loop):
            with pytest.raises(RuntimeError, match=message) as info:
                sampler(np.random.default_rng(6), 1000)
            built = int(str(info.value).split()[2].split("/")[0])
            assert 0 < built <= 50
        with pytest.raises(RuntimeError, match="shrunken non-members"):
            run_cuts_suite(1000, 6)
