"""The verify campaigns against their references: the masked vertex sampler
and the per-query loop with the dense soundness matrix of the cuts suite."""

import tracemalloc

import numpy as np
import pytest

import pairhull.verify
import reference
from pairhull.core import Tolerances
from pairhull.errors import DegenerateGradient, NumericallyDegenerate
from pairhull.verify import _sample_s2_array, run_cuts_suite
from reference import cuts_suite_by_loop, sample_s2_masked


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_vertex_sampler_matches_masked_construction(n, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rows, ref = _sample_s2_array(rng, n), sample_s2_masked(ref_rng, n)
    assert rows.shape == ref.shape == (n, 7)
    assert rows.tobytes() == ref.tobytes()
    # the generator is left where the masked construction left it
    assert rng.random() == ref_rng.random()


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
    assert report.worst_slack.hex() == ref.worst_slack.hex()
    assert report.detail == ref.detail
    assert report.offender == ref.offender
    assert report.ok == (tol == Tolerances())  # the loose run has failures


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
    assert report.detail == ref.detail == "cuts=38 batch=10000"
    assert report.worst_slack.hex() == ref.worst_slack.hex()


def test_cuts_suite_memory_does_not_grow_with_trials_times_samples():
    # the dense check held two S2_BATCH x trials float arrays, 160 MB here
    run_cuts_suite(5, 4)  # the column functions compile on first use
    tracemalloc.start()
    try:
        report = run_cuts_suite(1000, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 32 * 2**20
