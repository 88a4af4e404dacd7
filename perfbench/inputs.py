"""Fixed-seed workload inputs built from the package's own samplers.

Every input is generated from the seed before anything is timed.  The
program only ever sees the generated JSON lines; the ``verify`` suites are
the one exception and receive the seed as ``--seed``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from pairhull.core import HullPoint
from pairhull.verify import ctilde_margin_points, sample_ctilde_points, shrunken_nonmembers

#: Lines per stream command (classify, member, separate).
STREAM_POINTS = 4000
#: Lines per ``member --oracle`` stream; the oracle costs milliseconds per point.
ORACLE_POINTS = 16
#: Points on which the traced run of a workload without an oracle stream
#: times the oracle layer.
PROBE_POINTS = 4
#: Trials per verify suite.  The cuts suite's cost per call varies most (it
#: holds a 10^4 x trials matrix), so it gets short calls and many of them.
SUITE_TRIALS = {"partition": 10000, "hull": 10000, "cuts": 250}
#: Range of the log-uniform scale t in (x, X) -> (t x, t^2 X) on relax-mix.
SCALE_RANGE = (1e-2, 1e2)


@dataclass
class Command:
    """One timed CLI invocation of a workload.

    ``metric`` is the end-to-end metric it feeds, ``label`` the workload-
    specific name printed in the readable summary, ``kind`` selects the
    output check and ``items`` is the number of points or trials it handles.
    ``reference`` names the calibration its time is referred to.
    """

    metric: str
    label: str
    unit: str
    kind: str
    argv: list[str]
    items: int
    stdin: str = ""
    points: list[HullPoint] = field(default_factory=list)
    reference: str = "python"


@dataclass
class Workload:
    """The timed commands of one workload plus what their checks need.

    ``preimages`` holds the unit-scale preimages of a rescaled stream's
    points (relax-mix only), in the same order as the stream.  ``probe``
    holds the points on which the traced run times the oracle layer.
    """

    name: str
    seed: int
    commands: list[Command]
    probe: list[HullPoint]
    suite_trials: dict[str, int]
    preimages: list[HullPoint] | None = None


def point_line(p: HullPoint) -> str:
    """The CLI's JSON-lines record of a point."""
    return json.dumps(
        {"x": [p.x1, p.x2], "X": [[p.X11, p.X12], [p.X12, p.X22]], "z": [p.z1, p.z2]}
    )


def plain(points: list[HullPoint]) -> list[HullPoint]:
    """The points with Python-float coordinates, as the CLI parses them."""
    return [HullPoint.from_coords(p.coords()) for p in points]


def lines_of(points: list[HullPoint]) -> str:
    return "".join(point_line(p) + "\n" for p in points)


def scaled(p: HullPoint, t: float) -> HullPoint:
    """Image of p under (x, X) -> (t x, t^2 X) with z fixed."""
    t2 = t * t
    return HullPoint(p.x1 * t, p.x2 * t, p.X11 * t2, p.X12 * t2, p.X22 * t2, p.z1, p.z2)


def _stream_commands(points: list[HullPoint], member_argv: list[str], member_label: str,
                     oracle_points: int | None = None) -> list[Command]:
    text = lines_of(points)
    member_pts = points if oracle_points is None else points[:oracle_points]
    oracle = oracle_points is not None
    member = Command(
        "member_per_s", member_label, "points/s", "oracle" if oracle else "member",
        member_argv, len(member_pts), lines_of(member_pts), member_pts,
        "blend" if oracle else "python",
    )
    classify = Command("cell_per_s", "classify_pts_per_s", "points/s", "classify",
                       ["classify"], len(points), text, points)
    separate = Command("cut_per_s", "separate_pts_per_s", "points/s", "separate",
                       ["separate"], len(points), text, points)
    if oracle_points is not None:
        return [member, classify, separate]
    return [classify, member, separate]


def build_workload(name: str, seed: int, points: int = STREAM_POINTS,
                   oracle_points: int = ORACLE_POINTS,
                   suite_trials: dict[str, int] | None = None) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``.

    The size arguments exist for the benchmark's own smoke tests; a
    measured run uses the module defaults.
    """
    rng = np.random.default_rng(seed)
    trials = suite_trials or SUITE_TRIALS
    if name == "relax-mix":
        unit = plain(sample_ctilde_points(rng, points))
        lo, hi = (math.log(v) for v in SCALE_RANGE)
        ts = np.exp(rng.uniform(lo, hi, points))
        pts = [scaled(p, float(t)) for p, t in zip(unit, ts)]
        return Workload(name, seed, _stream_commands(pts, ["member"], "member_pts_per_s"),
                        pts[:PROBE_POINTS], trials, preimages=unit)
    if name == "cut-heavy":
        pts = plain(shrunken_nonmembers(rng, points))
        return Workload(name, seed, _stream_commands(pts, ["member"], "member_pts_per_s"),
                        pts[:PROBE_POINTS], trials)
    if name == "oracle-check":
        pts = plain(ctilde_margin_points(rng, points))
        return Workload(name, seed, _stream_commands(
            pts, ["member", "--oracle"], "oracle_pts_per_s", oracle_points),
            pts[:oracle_points], trials)
    if name == "verify-suites":
        metrics = {"partition": "cell_per_s", "hull": "member_per_s", "cuts": "cut_per_s"}
        return Workload(name, seed, [
            Command(metrics[s], f"{s}_trials_per_s", "trials/s", "verify",
                    ["verify", "--suite", s, "--trials", str(trials[s]), "--seed", str(seed)],
                    trials[s])
            for s in ("partition", "hull", "cuts")
        ], plain(ctilde_margin_points(rng, PROBE_POINTS)), trials)
    raise ValueError(f"unknown workload {name!r}")
