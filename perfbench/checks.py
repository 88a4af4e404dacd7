"""Output checks behind ``failed`` and ``failed_frac``.

A round is one run of each command of a workload.  Every output line of a
round is checked; a line that fails any check counts once, with each reason
tallied.  Nothing is dropped.  On relax-mix each line also has a unit-scale
preimage.  A failing line whose preimage passes every check, and whose only
reasons are a decision that differs from the preimage's or a touch point
rejected by ``member``, shows the known scale defect of the closed-form
decisions (absolute tolerance bands on slacks of degree 2 to 4 in the
scale).  Such lines count as failed like any other and are also counted as
``known``; ``correct`` is false as soon as any other failure appears.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

COORDS = ("x1", "x2", "X11", "X12", "X22", "z1", "z2")
TAGS = frozenset({"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "NotCovered"})
#: Failure reason of a decision that differs from its unit-scale preimage's.
SCALE_FLIP = "scale-flip"
#: Reasons the scale defect produces: a flipped decision, and a touch point
#: that the absolute bands reject at large scale.
SCALE_REASONS = frozenset({SCALE_FLIP, "touch-not-member"})
#: Relative band for a cut to count as zero at its touch point.
TOUCH_TOL = 1e-9

_SUMMARY = re.compile(r"^suite=(\w+) trials=(\d+) failures=(\d+) .*\[(pass|FAIL)\]")
_ELAPSED = re.compile(r" elapsed=\S+")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    #: Failures that vanish at the unit-scale preimage (relax-mix only).
    known: int = 0
    reasons: Counter = field(default_factory=Counter)
    first: str | None = None
    failed_lines: list[int] = field(default_factory=list)

    def fail(self, where: str, line: str, reasons: list[str], index: int = -1,
             known: bool = False) -> None:
        self.failed += 1
        self.known += known
        self.reasons.update(reasons)
        self.failed_lines.append(index)
        if self.first is None:
            self.first = f"{where}: {', '.join(reasons)}: {line[:400]}"

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known
        self.reasons.update(other.reasons)
        if self.first is None:
            self.first = other.first

    @property
    def correct(self) -> bool:
        """True when every failure is the known scale defect."""
        return self.failed == self.known


def point_coords(rec: dict) -> tuple[float, ...]:
    """Coordinates of a JSON point record in the canonical order."""
    (x1, x2), ((X11, X12), (_, X22)), (z1, z2) = rec["x"], rec["X"], rec["z"]
    return (x1, x2, X11, X12, X22, z1, z2)


def _cut_value(rec: dict, coords) -> tuple[float, float]:
    """Cut value at coords and the magnitude of its terms."""
    terms = [rec["coeffs"][k] * v for k, v in zip(COORDS, coords)]
    return sum(terms) + rec["constant"], sum(abs(t) for t in terms) + abs(rec["constant"])


def _parse(line: str) -> dict | None:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        return None
    return rec if isinstance(rec, dict) else None


def stream_decisions(kind: str, text: str) -> list:
    """Per-line decision of a stream output: the tag, the member flag, or
    'inside' / 'cut' / 'error' for separate (None where unreadable)."""
    out = []
    for line in text.splitlines():
        if kind == "classify":
            out.append(line)
            continue
        rec = _parse(line)
        if rec is None:
            out.append(None)
        elif kind in ("member", "oracle"):
            out.append(rec.get("member"))
        else:
            out.append("inside" if rec.get("inside") is True
                       else "cut" if "coeffs" in rec else "error")
    return out


@dataclass
class Reference:
    """What the checks compare a round against.

    ``closed_form`` holds closed-form member decisions of the stream lines
    when the workload's timed member command is not the closed form
    (oracle-check); otherwise the round's own member output is used.
    ``preimage`` maps a command kind to the decisions on the unit-scale
    preimages and ``unit_failed`` to the preimage lines that fail their own
    checks (relax-mix).  ``touch_member`` decides membership of touch point
    records through the CLI.
    """

    touch_member: Callable[[list[dict]], list[bool]]
    closed_form: list[bool] | None = None
    preimage: dict[str, list] | None = None
    unit_failed: dict[str, set[int]] | None = None
    require_cut: bool = False


def _lines(text: str, n: int, where: str, tally: Tally) -> list[str]:
    lines = text.splitlines()
    for i in range(len(lines), n):
        tally.fail(f"{where} line {i + 1}", "", ["missing-line"], i)
    for i in range(n, len(lines)):
        tally.fail(f"{where} line {i + 1}", lines[i], ["extra-line"], i)
    return lines[:n]


def check_stream_round(outputs: dict[str, tuple[int, str]], points: dict[str, list],
                       ref: Reference) -> dict[str, Tally]:
    """Check one round of stream commands, each against the others.

    ``outputs`` maps a command kind (classify, member, oracle, separate) to
    its exit code and stdout; ``points`` maps it to the query coordinates.
    Returns the tally of each kind.
    """
    tallies: dict[str, Tally] = {}
    pre = ref.preimage or {}
    member_dec = ref.closed_form
    if member_dec is None and "member" in outputs:
        member_dec = stream_decisions("member", outputs["member"][1])
    n_max = max(len(v) for v in points.values())
    if member_dec is not None:
        member_dec = (member_dec + [None] * n_max)[:n_max]
    sep_dec = None
    if "separate" in outputs and outputs["separate"][0] == 0:
        sep_dec = (stream_decisions("separate", outputs["separate"][1]) + [None] * n_max)[:n_max]
    for kind, (rc, text) in outputs.items():
        n = len(points[kind])
        tally = tallies[kind] = Tally(attempted=n)
        if rc != 0:
            for i in range(n):
                tally.fail(f"{kind} line {i + 1}", "", [f"exit-code-{rc}"], i)
            continue
        lines = _lines(text, n, kind, tally)
        decisions = stream_decisions(kind, "\n".join(lines))
        cuts: list[tuple[int, dict]] = []
        bad: dict[int, list[str]] = {}
        for i, (line, dec) in enumerate(zip(lines, decisions)):
            why: list[str] = []
            if kind == "classify":
                if dec not in TAGS:
                    why.append("bad-tag")
            elif dec is None:
                why.append("bad-record")
            elif kind == "member":
                if not isinstance(dec, bool):
                    why.append("bad-record")
                elif sep_dec is not None and sep_dec[i] in ("inside", "cut") \
                        and (sep_dec[i] == "inside") is not dec:
                    why.append("disagrees-with-separate")
            elif kind == "oracle":
                rec = _parse(line)
                if "oracle_error" in rec:
                    why.append("oracle-error")
                elif dec is not member_dec[i]:
                    why.append("oracle-disagrees")
            else:
                if dec == "error":
                    why.append("error")
                elif dec == "inside":
                    if ref.require_cut:
                        why.append("inside-on-cut-workload")
                    if member_dec is not None and member_dec[i] is not True:
                        why.append("inside-but-not-member")
                else:
                    if member_dec is not None and member_dec[i] is not False:
                        why.append("cut-for-member")
                    rec = _parse(line)
                    try:
                        value, _ = _cut_value(rec, points[kind][i])
                        at_touch, size = _cut_value(rec, point_coords(rec["touch"]))
                    except (KeyError, TypeError, ValueError):
                        why.append("bad-cut-record")
                    else:
                        if not value < 0.0:
                            why.append("cut-not-violated")
                        if abs(at_touch) > TOUCH_TOL * (1.0 + size):
                            why.append("touch-off-cut")
                        cuts.append((i, rec["touch"]))
            if kind in pre and dec != pre[kind][i]:
                why.append(SCALE_FLIP)
            if why:
                bad[i] = why
        if cuts:
            for (i, _), ok in zip(cuts, ref.touch_member([t for _, t in cuts])):
                if not ok:
                    bad.setdefault(i, []).append("touch-not-member")
        unit_failed = (ref.unit_failed or {}).get(kind)
        for i in sorted(bad):
            known = (unit_failed is not None and i not in unit_failed
                     and SCALE_REASONS.issuperset(bad[i]))
            tally.fail(f"{kind} line {i + 1}", lines[i], bad[i], i, known)
    return tallies


def check_verify(argv: list[str], rc: int, text: str, trials: int) -> Tally:
    """A verify suite must exit 0 and report failures=0 for all its trials;
    each failure it reports counts."""
    tally = Tally(attempted=trials)
    lines = text.splitlines()
    m = _SUMMARY.match(lines[0]) if len(lines) == 1 else None
    why = []
    if rc != 0:
        why.append(f"exit-code-{rc}")
    if m is None or int(m.group(2)) != trials:
        why.append("bad-summary")
    failures = int(m.group(3)) if m else 0
    if failures:
        why.append("suite-failures")
    if why:
        tally.fail(" ".join(argv), text, why)
        tally.failed += max(failures - 1, 0)
    return tally


def without_elapsed(text: str) -> str:
    """Output text without the wall time a verify summary reports."""
    return _ELAPSED.sub("", text)
