"""Self-tests of the benchmark, kept out of the repository's tier-1 suite.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from checks import Tally, check_verify  # noqa: E402
from inputs import build_workload  # noqa: E402
from run import WORKLOADS  # noqa: E402

SMOKE = {"points": 24, "oracle_points": 2,
         "suite_trials": {"partition": 200, "hull": 200, "cuts": 20}}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _checked_round(name: str, seed: int = 3):
    """A clean round of the workload and a function that checks a round's
    outputs the way the timed loop does, command by command."""
    wl = build_workload(name, seed, **SMOKE)
    outputs = run._round(wl)[0]
    checker = run._Checker(wl, outputs)

    def check(outs: dict) -> Tally:
        tally = Tally()
        for c in wl.commands:
            tally.add(checker(c, *outs[c.label]))
        return tally

    return wl, outputs, check


def _edit(outputs: dict, label: str, index: int, change) -> dict:
    """Copy of outputs with line ``index`` of command ``label`` rewritten."""
    rc, text = outputs[label]
    lines = text.splitlines()
    lines[index] = change(lines[index])
    return {**outputs, label: (rc, "\n".join(lines) + "\n")}


def _json_edit(fn):
    def change(line: str) -> str:
        rec = json.loads(line)
        fn(rec)
        return json.dumps(rec)
    return change


def _flip_member(rec):
    rec["member"] = not rec["member"]


def _negate_cut(rec):
    rec["coeffs"] = {k: -v for k, v in rec["coeffs"].items()}
    rec["constant"] = -rec["constant"]


def test_clean_rounds_pass():
    for name in ("cut-heavy", "oracle-check"):
        _, outputs, check = _checked_round(name)
        tally = check(outputs)
        assert tally.failed == 0 and tally.correct, tally.first


def test_flipped_member_decision_is_counted():
    _, outputs, check = _checked_round("cut-heavy")
    bad = check(_edit(outputs, "member_pts_per_s", 0, _json_edit(_flip_member)))
    assert bad.failed == 1 and bad.reasons["disagrees-with-separate"] == 1
    assert not bad.correct


def test_sign_flipped_cut_is_counted():
    _, outputs, check = _checked_round("cut-heavy")
    bad = check(_edit(outputs, "separate_pts_per_s", 0, _json_edit(_negate_cut)))
    assert bad.failed == 1 and bad.reasons["cut-not-violated"] == 1


def test_cut_for_inside_point_is_counted():
    _, outputs, check = _checked_round("oracle-check")
    lines = outputs["separate_pts_per_s"][1].splitlines()
    inside = next(i for i, line in enumerate(lines) if '"inside"' in line)
    a_cut = next(line for line in lines if '"coeffs"' in line)
    bad = check(_edit(outputs, "separate_pts_per_s", inside, lambda _: a_cut))
    assert bad.failed == 1 and bad.reasons["cut-for-member"] == 1


def test_oracle_disagreement_is_counted():
    _, outputs, check = _checked_round("oracle-check")
    bad = check(_edit(outputs, "oracle_pts_per_s", 1, _json_edit(_flip_member)))
    assert bad.failed == 1 and bad.reasons["oracle-disagrees"] == 1


def test_bad_tag_and_missing_line_are_counted():
    _, outputs, check = _checked_round("cut-heavy")
    bad = check(_edit(outputs, "classify_pts_per_s", 2, lambda _: "R9"))
    assert bad.failed == 1 and bad.reasons["bad-tag"] == 1
    rc, text = outputs["classify_pts_per_s"]
    short = {**outputs, "classify_pts_per_s": (rc, "".join(text.splitlines(True)[:-1]))}
    assert check(short).reasons["missing-line"] == 1


def test_relax_mix_scale_flips_are_counted_not_filtered():
    wl, outputs, check = _checked_round("relax-mix", seed=1)
    tally = check(outputs)
    assert tally.correct and set(tally.reasons) <= {"scale-flip"}
    flipped = check(_edit(outputs, "member_pts_per_s", 0, _json_edit(_flip_member)))
    assert flipped.failed > tally.failed and not flipped.correct


def test_verify_failures_are_counted():
    line = "suite=hull trials=200 failures=3 worst_slack=-1e-3 elapsed=0.01s [FAIL]\n"
    tally = check_verify(["verify"], 1, line, 200)
    assert tally.failed == 3 and tally.attempted == 200
    ok = "suite=hull trials=200 failures=0 worst_slack=0.0 elapsed=0.01s [pass]\n"
    assert check_verify(["verify"], 0, ok, 200).failed == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_smoke(name):
    e2e = run.run(name, 0, 0.01, trace=False, **SMOKE)["result"]
    assert e2e["correct"] and e2e["attempted"] > 0
    assert list(e2e["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in e2e["metrics"].values())
    first = run.run(name, 0, 0.01, trace=True, **SMOKE)["result"]
    again = run.run(name, 0, 0.01, trace=True, **SMOKE)["result"]
    assert first["correct"]
    assert list(first["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    counts = [k for k, unit in layers.PER_LAYER.items()
              if unit in ("calls", "count") or (unit == "ratio" and k != "trace.overhead_frac")]
    assert {k: first["metrics"][k] for k in counts} == {k: again["metrics"][k] for k in counts}


@pytest.mark.parametrize("name", ["relax-mix", "verify-suites"])
def test_counts_do_not_depend_on_run_length(name):
    short = run.run(name, 3, 0.01, trace=False, **SMOKE)["result"]
    long = run.run(name, 3, 0.5, trace=False, **SMOKE)["result"]
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.setattr(layers, "TRACED", layers.TRACED + ("hull.no_such_layer",))
    wl = build_workload("cut-heavy", 0, **SMOKE)
    with pytest.raises(layers.MissingLayerName):
        run.run_traced(wl)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relax-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
