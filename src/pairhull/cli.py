"""JSON-lines command line interface.

Points stream on stdin as {"x":[x1,x2],"X":[[X11,X12],[X12,X22]],"z":[z1,z2]},
one record per line; results stream on stdout in input order.  Exit codes:
0 ok, 1 property violation, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import io
import json
import math
import re
import sys
from typing import TYPE_CHECKING, Iterator, TextIO

from .columns import np
from .core import (
    COORD_NAMES,
    DEFAULT_TOL,
    HullColumns,
    HullPoint,
    ROW_ERRORS,
    Tolerances,
    _box_faults,
    _in_ambient_box,
    by_rows,
    in_ambient_box,
)
from .errors import PairhullError
from .regions import CELLS, classify, classify_batch

# hull, oracle, separation and verify are imported by the commands that
# call them, so a process that only classifies never loads them
if TYPE_CHECKING:
    from .hull import MembershipBatch, MembershipReport
    from .separation import SeparationBatch

#: Characters (of a text stream) or bytes (of a binary stdin) asked of one
#: read.  A chunk is the complete lines one read returns, so a caller that
#: waits for each answer before it writes the next line still gets it
#: (``read1`` returns what has arrived).  A full read holds about 5000
#: lines, over which the batch's fixed cost of about 0.3 ms spreads.
READ_SIZE = 1 << 20
#: Rows of a ``separate`` chunk whose records are formatted together.
#: Their text (about 75 kB) stays small: with slices of 256 rows a
#: stream of cuts returned heap to the system on each call, and the next
#: command faulted about 4 MB back in.
WRITE_ROWS = 128
#: Lines of a chunk whose numbers one ``json.loads`` decodes.  The text
#: of a slice stays small: decoding a 4000-line chunk at once raised the
#: peak resident memory of cut-heavy benchmark runs from 57.7-57.9 to
#: 60.0-60.3 MiB; slices of 512 lines left it at 57.3-58.0 MiB, at the
#: same speed.
BULK_ROWS = 512


class InputError(Exception):
    """Malformed input line (reported with its line number, exit 2)."""


def _point_record(p: HullPoint) -> dict:
    return {
        "x": [p.x1, p.x2],
        "X": [[p.X11, p.X12], [p.X12, p.X22]],
        "z": [p.z1, p.z2],
    }


def _cut_record(coeffs, constant, touch: HullPoint, region: str) -> dict:
    return {
        "coeffs": dict(zip(COORD_NAMES, coeffs)),
        "constant": constant,
        "touch": _point_record(touch),
        "region": region,
    }


def _dumps(obj, pretty: bool) -> str:
    return json.dumps(obj, indent=2 if pretty else None) + "\n"


def _reads(stream) -> Iterator[str]:
    """The text each read of the stream returns.  A binary stdin buffer is
    read with ``read1``, which returns what has arrived, and decoded with
    universal newlines as line iteration would."""
    raw = getattr(stream, "buffer", None)
    if raw is None or not hasattr(raw, "read1"):
        while data := stream.read(READ_SIZE):
            yield data
        return
    decoder = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder(stream.encoding or "utf-8")(stream.errors or "strict"),
        translate=True,
    )
    while data := raw.read1(READ_SIZE):
        yield decoder.decode(data)
    yield decoder.decode(b"", final=True)


def _chunks(stream) -> Iterator[tuple[int, list[str]]]:
    """(number of the first line, lines) for the complete lines of each read."""
    lineno, tail = 1, ""
    for data in _reads(stream):
        lines = (tail + data).split("\n")
        tail = lines.pop()
        if lines:
            yield lineno, lines
            lineno += len(lines)
    if tail:
        yield lineno, [tail]


#: The decoder of every line and every bulk slice.  It gives each number as
#: a float, an integer as ``float(int(s))`` would (``float`` of the digits
#: rounds the same, with no limit on their number, and inf past the floats;
#: ``or`` turns -0.0 into the +0.0 of the integer -0).
_DECODER = json.JSONDecoder(parse_int=lambda s: float(s) or 0.0)


def _line_values(line: str) -> list[float] | str:
    """The eight values of a stripped line that is a record (an object with
    "x", "X" and "z" holding two, two by two and two numbers), or the first
    fault that makes it none, in the order the fields are read; invalid
    JSON is named as ``json.loads`` names it."""
    try:
        rec, end = _DECODER.raw_decode(line)
    except json.JSONDecodeError as exc:
        if line.startswith("\ufeff"):
            return "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"
        return f"invalid JSON ({exc.msg})"
    except RecursionError:
        return "invalid JSON (nested too deeply)"
    if end < len(line):
        return "invalid JSON (Extra data)"
    if type(rec) is not dict:
        return "record must be a JSON object"
    try:
        x, X, z = rec["x"], rec["X"], rec["z"]
    except KeyError as exc:
        return f"missing field {exc.args[0]!r}"
    if not (type(x) is list and len(x) == 2):
        return '"x" must be a list of two numbers'
    if not (type(z) is list and len(z) == 2):
        return '"z" must be a list of two numbers'
    if not (type(X) is list and len(X) == 2 and type(X[0]) is list and len(X[0]) == 2
            and type(X[1]) is list and len(X[1]) == 2):
        return '"X" must be a 2x2 matrix'
    vals = [*x, *X[0], *X[1], *z]
    if {*map(type, vals)} != {float}:
        return "all coordinates must be numbers"
    return vals


def _point_rows(flat: list[float], tol: Tolerances) -> tuple[list[HullPoint], int | None, str]:
    """The value pass of a chunk decided row by row, on Python floats: the
    records as points up to the first bad one, its index and its fault."""
    e = tol.eq_tol
    points: list[HullPoint] = []
    for i in range(len(flat) // 8):
        x1, x2, X11, X12, X21, X22, z1, z2 = rec = flat[8 * i : 8 * i + 8]
        if not all(map(math.isfinite, rec)):
            return points, i, "all coordinates must be finite"
        if abs(X12 - X21) > e:
            return points, i, '"X" must be symmetric'
        p = HullPoint(x1, x2, X11, X12, X22, z1, z2)
        if not _in_ambient_box(p, e):
            return points, i, _box_faults(p, e)
        points.append(p)
    return points, None, ""


def _column_rows(flat: list[float], tol: Tolerances) -> tuple[np.ndarray, int | None, str]:
    """The value pass of a chunk decided on columns, with numpy: the
    records as ``(m, 7)`` rows up to the first bad one, its index and its
    fault, which :func:`_point_rows` names."""
    vals = np.array(flat).reshape(-1, 8)
    rows = vals[:, [0, 1, 2, 3, 5, 6, 7]]
    with np.errstate(invalid="ignore"):
        ok = (
            np.isfinite(vals).all(axis=1)
            & ~(np.abs(vals[:, 3] - vals[:, 4]) > tol.eq_tol)
            & in_ambient_box(HullColumns.of_rows(rows), tol)
        )
    if ok.all():
        return rows, None, ""
    k = int(np.argmin(ok))
    _, _, fault = _point_rows(vals[k].tolist(), tol)
    return rows[:k], k, fault


def _scan_records(lines: list[str], first: int = 0) -> tuple[list[float], list[int], int | None, str]:
    """The shape and type pass of :func:`_parse_chunk`, line by line from
    ``lines[first]``: the values of the records up to the first line that
    is no record, the index in ``lines`` of each record, and the index and
    fault of that line.  Blank lines are skipped."""
    flat: list[float] = []
    starts: list[int] = []
    for i, line in enumerate(lines[first:], first):
        line = line.strip()
        if not line:
            continue
        vals = _line_values(line)
        if type(vals) is str:
            return flat, starts, i, vals
        flat += vals
        starts.append(i)
    return flat, starts, None, ""


@functools.cache
def _record_lines() -> re.Pattern:
    """Lines, each ended by a line end, that are each a record as
    ``json.dumps`` writes it, in its default spacing or in its compact one,
    with each number a run of the characters of JSON numbers.  The pattern
    fixes where each number sits: the other characters of a record alone
    would pass '{"x": 5[, 1], ...}'.  Compiled on first use (about 1 ms),
    so ``verify`` does not pay for it."""
    rec = {"x": [0, 0], "X": [[0, 0], [0, 0]], "z": [0, 0]}
    one = "|".join(re.escape(json.dumps(rec, separators=sep)).replace("0", "[-+.0-9eE]+")
                   for sep in ((", ", ": "), (",", ":")))
    return re.compile(f"(?:(?:{one})\n)*")


#: Turns lines of :func:`_record_lines` into a JSON list body of their
#: numbers: the rest of each record to spaces, line ends to commas.
_NUMBERS_ONLY = str.maketrans({**dict.fromkeys('{}[]":xXz', " "), "\n": ","})


def _bulk_values(lines: list[str]) -> tuple[list[float], int]:
    """The shape and type pass of :func:`_parse_chunk` on the first lines
    of the chunk, in slices of :data:`BULK_ROWS` lines while every line of
    a slice is a record as ``json.dumps`` writes it: their values and
    number.  Each slice takes one pattern match, one ``str.translate`` and
    one decode; its values are those :func:`_scan_records` gives, since
    the pattern puts a run of number characters, and nothing else, in each
    slot, and :data:`_DECODER` reads a run only if it is one JSON number."""
    records = _record_lines()
    flat: list[float] = []
    for lo in range(0, len(lines), BULK_ROWS):
        text = "\n".join(lines[lo : lo + BULK_ROWS])
        if not records.fullmatch(text + "\n"):
            return flat, lo
        try:
            flat += _DECODER.decode("[" + text.translate(_NUMBERS_ONLY) + "]")
        except json.JSONDecodeError:
            return flat, lo
    return flat, len(lines)


def _parse_chunk(
    lines: list[str], lineno: int, tol: Tolerances
) -> tuple[list[HullPoint] | np.ndarray, InputError | None]:
    """The points of the lines up to the first bad one, and the error of
    that line.  A chunk of records that :func:`~pairhull.core.by_rows`
    leaves to the scalar functions gives a list of points, parsed on
    Python floats without numpy; a larger one gives ``(m, 7)`` rows.

    The lines are checked in two passes.  The first decodes each line
    once and checks its shape and types: an object with "x", "X" and "z"
    holding two, two by two and two JSON numbers, each decoded as a float.
    The second checks the values of all records at once: finite, X
    symmetric, inside the ambient box.  The first pass stops at the first
    line it rejects and the second looks only at the lines before it, so
    the first bad line gives the error, and its first fault in that order
    the message.

    The first pass reads the chunk in slices with :func:`_bulk_values`
    while every line of a slice is a record spelled as ``json.dumps``
    spells it.  From the first slice that is not, :func:`_scan_records`
    reads line by line and names the fault of a bad line.  Both give the
    same values for the same lines, so the rows and errors do not depend
    on which of them read a line.
    """
    flat, n = _bulk_values(lines)
    more, starts, bad, fault = _scan_records(lines, n)
    flat += more
    values = _point_rows if by_rows(n + len(starts)) else _column_rows
    rows, k, value_fault = values(flat, tol)
    if k is not None:
        bad, fault = (k if k < n else starts[k - n]), value_fault
    if bad is None:
        return rows, None
    return rows, InputError(f"line {lineno + bad}: {fault}")


def _read_rows(stream, tol: Tolerances) -> Iterator[list[HullPoint] | np.ndarray]:
    """The points of each chunk, as :func:`_parse_chunk` gives them.  A bad
    line raises its :class:`InputError` once the points before it have
    been handed out."""
    for lineno, lines in _chunks(stream):
        rows, error = _parse_chunk(lines, lineno, tol)
        if len(rows):
            yield rows
        if error is not None:
            raise error


def _slack_json(slacks: dict[str, float]) -> dict:
    return {k: (v if math.isfinite(v) else None) for k, v in slacks.items()}


def _cmd_classify(args, tol: Tolerances, stdin: TextIO, stdout: TextIO) -> int:
    for rows in _read_rows(stdin, tol):
        if type(rows) is list:
            tags = [classify(p, tol) for p in rows]
        else:
            tags = classify_batch(rows, tol)
        stdout.write("".join(tag.value + "\n" for tag in tags))
        stdout.flush()
    return 0


def _member_record(rep: MembershipReport, report: bool) -> dict:
    rec = {
        "member": rep.member,
        "region": rep.region.value,
        "violated": list(rep.violated),
    }
    if report:
        rec["slacks"] = _slack_json(rep.slacks)
        if rep.W is not None:
            rec["W"] = rep.W
        if rep.degenerate:
            rec["degenerate"] = True
    return rec


def _plain_member_lines(batch: MembershipBatch, n: int) -> str:
    """The plain ``member`` records of the first n rows.  A record is
    determined by (member, cell, slack names, violated slots), so each
    distinct one is written once."""
    keys = zip(
        batch.member[:n].tolist(),
        batch.cell[:n].tolist(),
        batch.names[:n].tolist(),
        (batch.violated[:n] @ (1, 2, 4)).tolist(),
    )
    lines: dict[tuple, str] = {}
    out = []
    for i, key in enumerate(keys):
        line = lines.get(key)
        if line is None:
            line = lines[key] = json.dumps(_member_record(batch.report(i), False)) + "\n"
        out.append(line)
    return "".join(out)


def _member_reports(
    points: list[HullPoint], tol: Tolerances
) -> tuple[list[MembershipReport], Exception | None]:
    """:func:`~pairhull.hull.member_hull` on the points up to the first
    whose decision raises one of :data:`~pairhull.core.ROW_ERRORS`, and
    that error."""
    from .hull import member_hull

    reps = []
    for p in points:
        try:
            reps.append(member_hull(p, tol))
        except ROW_ERRORS as exc:
            return reps, exc
    return reps, None


def _cmd_member(args, tol: Tolerances, stdin: TextIO, stdout: TextIO) -> int:
    from .hull import member_batch

    for rows in _read_rows(stdin, tol):
        if type(rows) is list:
            reps, error = _member_reports(rows, tol)
            n = len(reps)
        else:
            batch = member_batch(rows, tol)
            n = min(batch.errors, default=len(batch))
            reps, error = map(batch.report, range(n)), batch.errors.get(n)
        if args.oracle:
            reps = list(reps)
            _answer_oracle(reps, rows[:n], tol, stdout, args.pretty, args.report)
        elif args.report or args.pretty or type(rows) is list:
            stdout.write(
                "".join(_dumps(_member_record(rep, args.report), args.pretty) for rep in reps)
            )
        else:
            stdout.write(_plain_member_lines(batch, n))
        stdout.flush()
        if error is not None:
            raise error
    return 0


def _answer_oracle(
    reps: list[MembershipReport], rows: list[HullPoint] | np.ndarray, tol: Tolerances,
    stdout: TextIO, pretty: bool, report: bool,
) -> None:
    """Decide the points of a chunk of `member --oracle` lines, whose
    closed-form reports are ``reps``, in one oracle call, which checks the
    certificates the closed form proposes and searches the rest, and write
    their records in input order."""
    from .oracle import oracle_members
    from .separation import oracle_proposal

    points = rows if type(rows) is list else [HullPoint(*row) for row in rows.tolist()]
    proposals = [oracle_proposal(p, rep, tol) for p, rep in zip(points, reps)]
    for rep, res in zip(reps, oracle_members(points, tol, proposals=proposals)):
        rec = _member_record(rep, report)
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
            rec["objective"] = None if math.isinf(wit.objective) else wit.objective
            rec["lower"] = None if math.isinf(wit.lower) else wit.lower
        stdout.write(_dumps(rec, pretty))


#: Columns of the numbers of a cut record, in the order the record writes
#: them, in the row [coeffs, constant, touch] of a separation batch.
_CUT_NUMBERS = list(range(8)) + [8 + COORD_NAMES.index(k) for k in (
    "x1", "x2", "X11", "X12", "X12", "X22", "z1", "z2")]


def _record_formats(pretty: bool) -> np.ndarray:
    """The ``separate`` record of each cell code with a cut, as a format
    whose %s slots take the numbers in :data:`_CUT_NUMBERS` order, and
    the ``inside`` record last."""
    hole = "%s"
    touch = HullPoint(*[hole] * len(COORD_NAMES))
    cuts = [
        _dumps(_cut_record([hole] * len(COORD_NAMES), hole, touch, r.value), pretty)
        .replace(f'"{hole}"', hole)
        for r in CELLS
    ]
    return np.array(cuts + [_dumps({"inside": True}, pretty)], object)


def _separate_lines(batch: SeparationBatch, lo: int, hi: int, formats: np.ndarray,
                    pretty: bool) -> str:
    """The ``separate`` records of rows lo..hi.  The numbers of all their
    cuts are written by one ``json.dumps``, which spells every float as
    the record's own ``json.dumps`` would."""
    cut = batch.cuts()[lo:hi]
    lines = formats[np.where(cut, batch.cell[lo:hi], len(formats) - 1)].tolist()
    for i, exc in batch.errors.items():
        if lo <= i < hi:
            lines[i - lo] = _dumps({"error": type(exc).__name__}, pretty).replace("%", "%%")
    text = "".join(lines)
    if not cut.any():
        return text
    numbers = np.column_stack([batch.coeffs[lo:hi], batch.constant[lo:hi], batch.touch[lo:hi]])
    return text % tuple(json.dumps(numbers[cut][:, _CUT_NUMBERS].ravel().tolist())[1:-1].split(", "))


def _separate_records(
    points: list[HullPoint], tol: Tolerances, pretty: bool
) -> tuple[str, Exception | None]:
    """The ``separate`` records of the points of a row chunk, each from
    :func:`~pairhull.separation.separate`, up to the first whose separation
    raises one of :data:`~pairhull.core.ROW_ERRORS` other than a
    :class:`PairhullError`, and that error."""
    from .separation import separate

    out = []
    for p in points:
        try:
            res = separate(p, tol)
        except PairhullError as exc:
            rec = {"error": type(exc).__name__}
        except ROW_ERRORS as exc:
            return "".join(out), exc
        else:
            cut = res.cut
            rec = {"inside": True} if res.inside else _cut_record(
                cut.coeffs, cut.constant, cut.touch, res.region.value
            )
        out.append(_dumps(rec, pretty))
    return "".join(out), None


def _cmd_separate(args, tol: Tolerances, stdin: TextIO, stdout: TextIO) -> int:
    from .separation import separate_batch

    for rows in _read_rows(stdin, tol):
        if type(rows) is list:
            text, error = _separate_records(rows, tol, args.pretty)
            stdout.write(text)
        else:
            batch = separate_batch(rows, tol)
            n = min(
                (i for i, exc in batch.errors.items() if not isinstance(exc, PairhullError)),
                default=len(batch),
            )
            formats = _record_formats(args.pretty)
            for lo in range(0, n, WRITE_ROWS):
                stdout.write(
                    _separate_lines(batch, lo, min(lo + WRITE_ROWS, n), formats, args.pretty)
                )
            error = batch.errors.get(n)
        stdout.flush()
        if error is not None:
            raise error
    return 0


def _cmd_verify(args, tol: Tolerances, stdin: TextIO, stdout: TextIO) -> int:
    from .verify import SUITES

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once: ``parse_args`` keeps no state
    between calls, so each call starts from the defaults."""
    parser = argparse.ArgumentParser(
        prog="pairhull",
        description="Hull membership, separation and verification for the "
        "two-variable indicator-quadratic set (JSON lines on stdin).",
    )
    tol = DEFAULT_TOL
    parser.add_argument("--eq-tol", type=float, default=tol.eq_tol, help="equality band")
    parser.add_argument("--mem-tol", type=float, default=tol.mem_tol, help="membership slack")
    parser.add_argument(
        "--oracle-tol", type=float, default=tol.oracle_tol, help="oracle objective slack"
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
    # the names of verify.SUITES, written out so that building the parser
    # does not import verify (a test keeps them equal)
    verify.add_argument(
        "--suite", choices=("partition", "hull", "cuts", "oracle", "all"), default="all"
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
    if args.command == "verify" and args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    try:
        return _COMMANDS[args.command](args, tol, stdin, stdout)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
