"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import numpy as np

from pairhull import (
    HullPoint,
    Region,
    classify,
    in_relaxation_ctilde,
    member_hull,
    oracle_member,
    q_gradient,
    q_value,
    separate,
)
from pairhull.verify import (
    run_cuts_suite,
    run_hull_suite,
    run_oracle_suite,
    run_partition_suite,
)
from reference import (
    family_touch_points,
    persp_relaxation_member,
    psd3_by_minors,
    rankone_member,
)

WORKED = HullPoint(0.1, 1.0, 1.0, 1.2, 2.5, 0.5, 0.5)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_1_hull_contains_samples():
    report = run_hull_suite(10_000, seed=20240801)
    ok = report.ok and report.worst_slack >= -1e-8 and report.elapsed < 5.0
    verdict(
        "1 hull-contains-samples",
        ok,
        f"failures={report.failures} worst_slack={report.worst_slack:.2e} "
        f"elapsed={report.elapsed:.2f}s (<5s)",
    )


def test_criterion_2_partition_audit():
    report = run_partition_suite(10_000, seed=20240802)
    ok = report.ok and report.elapsed < 2.0
    verdict(
        "2 partition-audit",
        ok,
        f"multi/none failures={report.failures} elapsed={report.elapsed:.2f}s (<2s) "
        f"{report.detail}",
    )


def test_criterion_3_closed_form_vs_oracle():
    report = run_oracle_suite(1_000, seed=20240803)
    ok = report.ok and report.elapsed < 60.0
    detail = (
        f"disagreements={report.failures} elapsed={report.elapsed:.2f}s (<60s) "
        f"{report.detail}"
    )
    if report.offender is not None:
        detail += f" offender={report.offender}"
    verdict("3 closed-form-vs-oracle", ok, detail)


def test_criterion_4_separation_soundness():
    report = run_cuts_suite(1_000, seed=20240804)
    ok = report.ok and report.worst_slack >= -1e-8 and report.elapsed < 60.0
    verdict(
        "4 separation-soundness",
        ok,
        f"failures={report.failures} worst_cut_slack={report.worst_slack:.2e} "
        f"elapsed={report.elapsed:.2f}s (<60s) {report.detail}",
    )


def test_criterion_5_worked_nonmember():
    region = classify(WORKED)
    rep = member_hull(WORKED)
    res = separate(WORKED)
    member_oracle, wit = oracle_member(WORKED)
    checks = {
        "region=R4": region is Region.R4,
        "persp-feasible": persp_relaxation_member(WORKED),
        "rankone-feasible": rankone_member(WORKED),
        "relaxation-feasible": in_relaxation_ctilde(WORKED),
        "hull-infeasible": not rep.member,
        "touch-X11": abs(res.cut.touch.X11 - 2.02) <= 1e-9,
        "oracle-objective": (
            not member_oracle and abs(wit.objective - 2.02) <= 1e-3
        ),
    }
    verdict(
        "5 worked-nonmember",
        all(checks.values()),
        f"touch_X11={res.cut.touch.X11!r} oracle={wit.objective!r} "
        f"checks={checks}",
    )


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(20240806)
    worst = 0.0
    for family in ("II", "III", "V"):
        for p in family_touch_points(rng, 1_000, family):
            ga = q_gradient(family, p)
            coords = np.array(p.coords())
            gf = np.zeros(7)
            for i in range(7):
                step = 1e-6 * (1.0 + abs(coords[i]))
                up, dn = coords.copy(), coords.copy()
                up[i] += step
                dn[i] -= step
                gf[i] = (
                    q_value(family, HullPoint.from_coords(up))
                    - q_value(family, HullPoint.from_coords(dn))
                ) / (2.0 * step)
            scale = float(np.max(np.abs(ga)))
            if scale <= 1e-8:
                continue
            worst = max(worst, float(np.max(np.abs(ga - gf))) / scale)
    verdict("6 gradient-check", worst <= 1e-5, f"max_rel_err={worst:.2e} (<=1e-5)")


def test_criterion_7_psd_minor_equivalence():
    rng = np.random.default_rng(20240807)
    checked = 0
    disagreements = 0
    while checked < 10_000:
        if rng.uniform() < 0.5:
            m = rng.normal(size=(3, 3))
            m = 0.5 * (m + m.T)
        else:
            g = rng.normal(size=(3, rng.integers(1, 4)))
            m = g @ g.T + rng.normal(scale=1e-3) * np.eye(3)
        if abs(m[0, 0]) < 1e-12:
            continue
        m = m / m[0, 0] if m[0, 0] > 0 else m - (m[0, 0] - 1.0) * np.eye(3)
        lam_min = float(np.linalg.eigvalsh(m).min())
        if abs(lam_min) <= 1e-9:
            continue
        m6 = (m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2])
        if psd3_by_minors(m6) != (lam_min > 0):
            disagreements += 1
        checked += 1
    verdict(
        "7 psd-minor-equivalence",
        disagreements == 0,
        f"checked={checked} disagreements={disagreements}",
    )
