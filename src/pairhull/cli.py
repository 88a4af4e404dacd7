"""JSON-lines command line interface.

Points stream on stdin as {"x":[x1,x2],"X":[[X11,X12],[X12,X22]],"z":[z1,z2]},
one record per line; results stream on stdout in input order.  Exit codes:
0 ok, 1 property violation, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterator, TextIO

from .core import COORD_NAMES, HullPoint, Tolerances, validate_point
from .errors import NotInAmbientBox, PairhullError
from .hull import member_hull
from .oracle import ORACLE_CHUNK, oracle_members
from .regions import classify
from .separation import Cut, separate
from .verify import SUITES


class InputError(Exception):
    """Malformed input line (reported with its line number, exit 2)."""


def _int_coord(v) -> float:
    """A coordinate that is not a JSON float: only a JSON integer is accepted
    (bool is excluded, though Python makes it an int)."""
    if type(v) is not int:
        raise InputError("all coordinates must be numbers")
    try:
        return float(v)
    except OverflowError as exc:
        raise InputError("all coordinates must be finite") from exc


def _parse_point(obj, tol: Tolerances) -> HullPoint:
    if not isinstance(obj, dict):
        raise InputError("record must be a JSON object")
    try:
        x = obj["x"]
        X = obj["X"]
        z = obj["z"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"missing field {exc}") from exc
    if not (isinstance(x, list) and len(x) == 2):
        raise InputError('"x" must be a list of two numbers')
    if not (isinstance(z, list) and len(z) == 2):
        raise InputError('"z" must be a list of two numbers')
    if not (
        isinstance(X, list)
        and len(X) == 2
        and all(isinstance(row, list) and len(row) == 2 for row in X)
    ):
        raise InputError('"X" must be a 2x2 matrix')
    vals = [
        v if type(v) is float else _int_coord(v)
        for v in (x[0], x[1], X[0][0], X[0][1], X[1][0], X[1][1], z[0], z[1])
    ]
    if not all(math.isfinite(v) for v in vals):
        raise InputError("all coordinates must be finite")
    if abs(vals[3] - vals[4]) > tol.eq_tol:
        raise InputError('"X" must be symmetric')
    p = HullPoint(vals[0], vals[1], vals[2], vals[3], vals[5], vals[6], vals[7])
    try:
        validate_point(p, tol)
    except NotInAmbientBox as exc:
        raise InputError(str(exc)) from exc
    return p


def _point_record(p: HullPoint) -> dict:
    return {
        "x": [p.x1, p.x2],
        "X": [[p.X11, p.X12], [p.X12, p.X22]],
        "z": [p.z1, p.z2],
    }


def _cut_record(cut: Cut, region) -> dict:
    return {
        "coeffs": dict(zip(COORD_NAMES, (float(c) for c in cut.coeffs))),
        "constant": cut.constant,
        "touch": _point_record(cut.touch),
        "region": region.value,
    }


def _dump(obj, out: TextIO, pretty: bool) -> None:
    out.write(json.dumps(obj, indent=2 if pretty else None))
    out.write("\n")


def _points(stream: TextIO, tol: Tolerances) -> Iterator[tuple[int, HullPoint]]:
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        try:
            yield lineno, _parse_point(obj, tol)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc


def _slack_json(slacks: dict[str, float]) -> dict:
    return {k: (v if math.isfinite(v) else None) for k, v in slacks.items()}


def _cmd_classify(args, tol: Tolerances, stdin: TextIO, stdout: TextIO) -> int:
    for _, p in _points(stdin, tol):
        stdout.write(classify(p, tol).value + "\n")
    return 0


def _cmd_member(args, tol: Tolerances, stdin: TextIO, stdout: TextIO) -> int:
    pending: list[tuple[dict, HullPoint]] = []  # --oracle lines of the open chunk
    try:
        for _, p in _points(stdin, tol):
            rep = member_hull(p, tol)
            rec = {
                "member": rep.member,
                "region": rep.region.value,
                "violated": list(rep.violated),
            }
            if args.report:
                rec["slacks"] = _slack_json(rep.slacks)
                if rep.W is not None:
                    rec["W"] = rep.W
                if rep.degenerate:
                    rec["degenerate"] = True
            if not args.oracle:
                _dump(rec, stdout, args.pretty)
                continue
            pending.append((rec, p))
            if len(pending) == ORACLE_CHUNK:
                chunk, pending = pending, []
                _answer_oracle(chunk, tol, stdout, args.pretty)
    except (InputError, PairhullError):
        # answer the lines read before the failing one, then report it
        _answer_oracle(pending, tol, stdout, args.pretty)
        raise
    _answer_oracle(pending, tol, stdout, args.pretty)
    return 0


def _answer_oracle(
    chunk: list[tuple[dict, HullPoint]], tol: Tolerances, stdout: TextIO, pretty: bool
) -> None:
    """Decide a chunk of `member --oracle` lines in one oracle pass and
    write their records in input order."""
    for (rec, _), res in zip(chunk, oracle_members([p for _, p in chunk], tol)):
        if isinstance(res, PairhullError):
            rec["oracle_error"] = type(res).__name__
        else:
            dec, wit = res
            rec["member"] = dec
            rec["witness"] = {
                "xt41": wit.xt41,
                "xt42": wit.xt42,
                "lambda4": wit.lambda4,
            }
            rec["objective"] = None if wit.objective.infinite else wit.objective.value
        _dump(rec, stdout, pretty)


def _cmd_separate(args, tol: Tolerances, stdin: TextIO, stdout: TextIO) -> int:
    for _, p in _points(stdin, tol):
        try:
            res = separate(p, tol)
        except PairhullError as exc:
            _dump({"error": type(exc).__name__}, stdout, args.pretty)
            continue
        if res.inside:
            _dump({"inside": True}, stdout, args.pretty)
        else:
            _dump(_cut_record(res.cut, res.region), stdout, args.pretty)
    return 0


def _cmd_verify(args, tol: Tolerances, stdin: TextIO, stdout: TextIO) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        report = SUITES[name](args.trials, args.seed, tol)
        stdout.write(report.summary() + "\n")
        if not report.ok:
            failed = True
            if report.offender is not None:
                stdout.write(json.dumps({"offender": report.offender}) + "\n")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairhull",
        description="Hull membership, separation and verification for the "
        "two-variable indicator-quadratic set (JSON lines on stdin).",
    )
    parser.add_argument("--eq-tol", type=float, default=1e-9, help="equality band")
    parser.add_argument("--mem-tol", type=float, default=1e-8, help="membership slack")
    parser.add_argument(
        "--oracle-tol", type=float, default=1e-6, help="oracle objective slack"
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", help="print the partition cell per point")

    member = sub.add_parser("member", help="closed-form hull membership per point")
    member.add_argument(
        "--oracle", action="store_true", help="decide with the numeric oracle instead"
    )
    member.add_argument(
        "--report", action="store_true", help="include slacks and the W value"
    )

    sub.add_parser("separate", help="emit a violated supporting cut per non-member")

    verify = sub.add_parser("verify", help="run randomized verification campaigns")
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--suite",
        choices=["partition", "hull", "cuts", "oracle", "all"],
        default="all",
    )
    return parser


_COMMANDS = {
    "classify": _cmd_classify,
    "member": _cmd_member,
    "separate": _cmd_separate,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None, stdin: TextIO | None = None, stdout: TextIO | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    try:
        tol = Tolerances(args.eq_tol, args.mem_tol, args.oracle_tol)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    if args.command == "verify" and args.trials < 1:
        parser.error("--trials must be a positive integer")
    try:
        return _COMMANDS[args.command](args, tol, stdin, stdout)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
