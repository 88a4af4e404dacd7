import argparse
import ast
import io
import json
import math
import os
import re
import select
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairhull import cli
from pairhull.cli import _point_record, main
from pairhull.core import COLUMN_MIN_ROWS, DEFAULT_TOL, HullPoint
from pairhull.oracle import ORACLE_CHUNK
from pairhull.verify import ctilde_margin_points, shrunken_nonmembers

R4_LINE = '{"x":[0.1,1],"X":[[1,1.2],[1.2,2.5]],"z":[0.5,0.5]}'
R1_LINE = '{"x":[0.5,0.5],"X":[[0.5,0.5],[0.5,0.5]],"z":[0.5,0.5]}'
OUTSIDE_LINE = '{"x":[1,1],"X":[[1,1],[1,1]],"z":[0.5,0.5]}'
#: An R2 point that X11 >= x1^2/z1 cuts off by 0.01, with X22 2.2e-8 above
#: its z2 perspective bound, where the family II product of R3's piece is
#: near zero whatever X11 is.
BELOW_PERSP1_LINE = (
    '{"x": [0.18184726241260174, 0.5359013499219171], "X": [[0.034833497167213165, '
    '0.1090093319319929], [0.1090093319319929, 0.32121024495627665]], '
    '"z": [0.7375830335881237, 0.8940881589731905]}'
)
PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "pairhull"


def run_cli(args, text):
    out = io.StringIO()
    code = main(args, stdin=io.StringIO(text), stdout=out)
    return code, out.getvalue()


def _nodes(files):
    """Every AST node of the Python sources ``files``."""
    for f in files:
        yield from ast.walk(ast.parse(Path(f).read_text(), str(f)))


class TestClassify:
    def test_region_tags(self):
        code, out = run_cli(["classify"], R4_LINE + "\n" + R1_LINE + "\n")
        assert code == 0
        assert out.splitlines() == ["R4", "R1"]

    def test_blank_lines_skipped(self):
        code, out = run_cli(["classify"], "\n" + R1_LINE + "\n\n")
        assert code == 0 and out.splitlines() == ["R1"]

    def test_asymmetric_matrix_exits_2(self):
        bad = '{"x":[0.1,1],"X":[[1,1.3],[1.2,2.5]],"z":[0.5,0.5]}'
        code, _ = run_cli(["classify"], bad + "\n")
        assert code == 2

    def test_invalid_json_exits_2(self):
        code, _ = run_cli(["classify"], "{not json}\n")
        assert code == 2

    def test_domain_violation_exits_2(self):
        bad = '{"x":[-1,1],"X":[[1,0],[0,1]],"z":[0.5,0.5]}'
        code, _ = run_cli(["classify"], bad + "\n")
        assert code == 2

    @pytest.mark.parametrize("coord", ["true", '"0.5"'])
    def test_non_number_coordinate_exits_2(self, coord, capsys):
        bad = '{"x":[%s,0.5],"X":[[1,0],[0,1]],"z":[0.5,0.5]}' % coord
        code, out = run_cli(["member"], bad + "\n")
        assert code == 2 and out == ""
        assert "all coordinates must be numbers" in capsys.readouterr().err

    def test_byte_order_mark_is_named(self, capsys):
        code, _ = run_cli(["classify"], "\ufeff" + R4_LINE + "\n")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))\n"
        )

    def test_integer_too_large_for_float_exits_2(self, capsys):
        bad = '{"x":[1%s,0.5],"X":[[1,0],[0,1]],"z":[0.5,0.5]}' % ("0" * 400)
        code, _ = run_cli(["classify"], bad + "\n")
        assert code == 2
        assert "all coordinates must be finite" in capsys.readouterr().err


class TestMember:
    def test_nonmember_record(self):
        code, out = run_cli(["member"], R4_LINE + "\n")
        assert code == 0
        rec = json.loads(out)
        assert rec == {"member": False, "region": "R4", "violated": ["II.product"]}

    def test_member_record(self):
        _, out = run_cli(["member"], R1_LINE + "\n")
        assert json.loads(out)["member"] is True

    def test_report_includes_slacks(self):
        # the X11 gap X11 - F: the oracle's least X11 at this point is 2.02
        _, out = run_cli(["member", "--report"], R4_LINE + "\n")
        rec = json.loads(out)
        assert rec["slacks"]["II.product"] == pytest.approx(-1.02)

    def test_point_below_the_perspective_bound_is_a_nonmember(self):
        # the neighbouring family II piece rescued it while it compared a
        # product near zero against mem_tol; its X11 gap rejects it
        _, out = run_cli(["member"], BELOW_PERSP1_LINE + "\n")
        assert json.loads(out) == {"member": False, "region": "R2", "violated": ["I.persp1"]}
        _, out = run_cli(["member", "--oracle"], BELOW_PERSP1_LINE + "\n")
        rec = json.loads(out)
        assert rec["member"] is False and rec["objective"] > 0.0448

    def test_oracle_objective(self):
        _, out = run_cli(["member", "--oracle"], R4_LINE + "\n")
        rec = json.loads(out)
        assert rec["member"] is False
        assert set(rec["witness"]) == {"xt41", "xt42", "lambda4"}
        # a certified non-member: its lower bound exceeds X11 + oracle_tol
        assert rec["lower"] > 1.0 + 1e-6
        # the least objective is 2.02 within 1e-3: compared with X11 itself,
        # the point is a member at X11 = 2.021 and not at 2.019
        for X11, member in (("2.021", True), ("2.019", False)):
            line = R4_LINE.replace("[[1,", f"[[{X11},")
            _, out = run_cli(["--oracle-tol", "0", "member", "--oracle"], line + "\n")
            assert json.loads(out)["member"] is member

    def test_infinite_oracle_objective_is_null(self):
        # X22 < x2^2 / z2: no witness is feasible, the objective is +inf
        line = '{"x":[0.5,1],"X":[[1,0.5],[0.5,0.1]],"z":[0.5,0.5]}'
        _, out = run_cli(["member", "--oracle"], line + "\n")
        assert '"member": false' in out and '"objective": null' in out
        assert '"lower": null' in out


def _margin_lines(n, seed):
    pts = ctilde_margin_points(np.random.default_rng(seed), n)
    return [json.dumps(_point_record(p)) for p in pts]


class TestMemberOracleChunks:
    def test_chunked_stream_equals_one_line_runs(self):
        # 64 + 5 lines cross a chunk boundary; line 40 has z1 = 0
        lines = _margin_lines(ORACLE_CHUNK + 4, seed=31)
        lines.insert(39, '{"x":[0,0.4],"X":[[0,0],[0,0.6]],"z":[0,0.5]}')
        code, out = run_cli(["member", "--oracle"], "\n".join(lines) + "\n")
        assert code == 0
        singles = [run_cli(["member", "--oracle"], line + "\n") for line in lines]
        assert all(c == 0 for c, _ in singles)
        assert out == "".join(o for _, o in singles)
        assert json.loads(out.splitlines()[39])["oracle_error"] == "EmptyFeasibleSet"

    def test_bad_line_inside_a_chunk_answers_the_lines_before_it(self, capsys):
        lines = _margin_lines(9, seed=32)
        lines.insert(5, "{not json}")
        text = "\n".join(lines) + "\n"
        code, out = run_cli(["member", "--oracle"], text)
        err = capsys.readouterr().err
        assert code == 2
        _, first = run_cli(["member", "--oracle"], "\n".join(lines[:5]) + "\n")
        assert out == first and len(out.splitlines()) == 5
        # the message of the unchunked commands, which stop at the same line
        code, _ = run_cli(["classify"], text)
        assert code == 2 and err == capsys.readouterr().err
        assert err.startswith("error: line 6: invalid JSON")


STREAM_COMMANDS = [["classify"], ["member"], ["member", "--report"], ["separate"]]
BAD_LINES = [
    "{not json}",
    '{"x":[-1,1],"X":[[1,0],[0,1]],"z":[0.5,0.5]}',
    '{"x":[0.1,1],"X":[[1,1.3],[1.2,2.5]],"z":[0.5,0.5]}',
    '{"x":[true,0.5],"X":[[1,0],[0,1]],"z":[0.5,0.5]}',
    '{"x":[0.1,1],"X":[[1,1.2]],"z":[0.5,0.5]}',
]
#: The bad lines after float lines (ids as before), and after a stream
#: with integer coordinates on every third line.
BAD_CASES = [pytest.param(bad, False, id=bad) for bad in BAD_LINES] + [
    pytest.param(bad, True, id=f"integers-{bad}") for bad in BAD_LINES
]
#: An in-box point whose squared terms overflow Python floats.
LARGE_LINE = (
    '{"x": [2.7019301004482245e+79, 1.3879690862929906e+80], '
    '"X": [[9.053321911771368e+159, 1.3889030762863502e+160], '
    '[1.3889030762863502e+160, 3.4401621102217154e+160]], '
    '"z": [0.09752909616287808, 0.8297852952045203]}'
)


#: An uncovered corner (the "uncovered" pin of test_separation): the column
#: path of ``member`` hands it to the scalar ``member_hull``.
CORNER_LINE = json.dumps(
    {"x": [0.0023614562234584202, 0.0018389504695006781],
     "X": [[3.303684937974451e-05, 3.261422087943452e-05],
           [3.261422087943452e-05, 1.785549495622005e-05]],
     "z": [0.28771104292453, 0.4770477567323037]}
)


def _fail_on_corner(monkeypatch, exc: Exception) -> None:
    """Make ``member_hull`` raise ``exc`` on the point of CORNER_LINE only,
    in the membership and the separation paths."""
    from pairhull import hull, separation

    rec = json.loads(CORNER_LINE)
    (X11, X12), (_, X22) = rec["X"]
    corner = HullPoint(*rec["x"], X11, X12, X22, *rec["z"])
    member_hull = hull.member_hull

    def fail_on_corner(p, tol):
        if p == corner:
            raise exc
        return member_hull(p, tol)

    monkeypatch.setattr(hull, "member_hull", fail_on_corner)
    monkeypatch.setattr(separation, "member_hull", fail_on_corner)


def _integer_line(line: str) -> str:
    """The record of a line with x and X rounded to JSON integers."""
    rec = json.loads(line)
    rec["x"] = [round(v) for v in rec["x"]]
    rec["X"] = [[round(v) for v in row] for row in rec["X"]]
    return json.dumps(rec)


def _long_stream() -> list[str]:
    """Over 1000 lines: relaxation and cut-heavy points plus lines that
    leave the fast parse (integer coordinates, CRLF, blank, outside the
    relaxation)."""
    lines = _margin_lines(520, seed=33)
    pts = shrunken_nonmembers(np.random.default_rng(34), 500)
    lines += [json.dumps(_point_record(p)) for p in pts]
    for at, extra in ((7, R1_LINE), (300, R4_LINE + "\r"), (600, ""), (900, OUTSIDE_LINE)):
        lines.insert(at, extra)
    return lines


class TestStreamChunks:
    @pytest.fixture(scope="class")
    def stream(self):
        return _long_stream()

    @pytest.mark.parametrize("argv", STREAM_COMMANDS, ids=" ".join)
    def test_long_stream_equals_one_line_runs(self, argv, stream, monkeypatch):
        monkeypatch.setattr(cli, "READ_SIZE", 1 << 14)
        text = "\n".join(stream) + "\n"
        assert len(stream) > 1000 and len(text) > 10 * cli.READ_SIZE
        code, out = run_cli(argv, text)
        assert code == 0
        singles = [run_cli(argv, line + "\n") for line in stream if line]
        assert out == "".join(o for _, o in singles)

    @pytest.mark.parametrize("bad, integers", BAD_CASES)
    @pytest.mark.parametrize("argv", STREAM_COMMANDS, ids=" ".join)
    def test_bad_line_mid_chunk_answers_the_lines_before_it(self, argv, bad, integers, capsys):
        lines = _margin_lines(200, seed=35)
        if integers:
            lines[::3] = map(_integer_line, lines[::3])
        lines.insert(150, bad)
        code, out = run_cli(argv, "\n".join(lines) + "\n")
        err = capsys.readouterr().err
        assert code == 2
        assert out == run_cli(argv, "\n".join(lines[:150]) + "\n")[1]
        assert len(out.splitlines()) == 150
        run_cli(argv, bad + "\n")
        alone = capsys.readouterr().err
        assert alone.startswith("error: line 1: ")
        assert err == alone.replace("line 1:", "line 151:", 1)

    @pytest.mark.parametrize(
        "argv", STREAM_COMMANDS + [["member", "--oracle"]], ids=" ".join
    )
    def test_point_with_overflowing_squares_is_answered(self, argv, capsys):
        code, out = run_cli(argv, LARGE_LINE + "\n")
        assert code == 0
        assert len(out.splitlines()) == 1
        assert capsys.readouterr().err == ""

    def test_error_of_a_decision_answers_the_lines_before_it(self, monkeypatch):
        # an uncovered corner (the "uncovered" pin of test_separation) takes
        # the scalar path inside the batch; make its decision raise there
        from pairhull import hull
        from pairhull.errors import NumericallyDegenerate

        lines = _margin_lines(100, seed=37)
        lines.insert(70, CORNER_LINE)

        def fail(p, tol):
            raise NumericallyDegenerate("forced")

        monkeypatch.setattr(hull, "member_hull", fail)
        out = io.StringIO()
        with pytest.raises(NumericallyDegenerate):
            main(["member"], stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
        assert out.getvalue() == run_cli(["member"], "\n".join(lines[:70]) + "\n")[1]

    @pytest.mark.parametrize("n, at", [(101, 50), (21, 10)], ids=["column chunk", "row chunk"])
    def test_value_error_of_a_decision_answers_the_lines_before_it(self, n, at, monkeypatch):
        # a decision that raises ValueError is a row error like a package
        # error: the chunk's lines before it are answered, then it is raised
        lines = _margin_lines(n - 1, seed=37)
        lines.insert(at, CORNER_LINE)
        expected = run_cli(["member"], "\n".join(lines[:at]) + "\n")[1]
        _fail_on_corner(monkeypatch, ValueError("forced"))
        out = io.StringIO()
        with pytest.raises(ValueError, match="forced"):
            main(["member"], stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
        assert out.getvalue() == expected
        assert len(out.getvalue().splitlines()) == at

    @pytest.mark.parametrize("n, at", [(101, 50), (21, 10)], ids=["column chunk", "row chunk"])
    def test_value_error_of_a_separation_answers_the_lines_before_it(self, n, at, monkeypatch):
        # as in the batch, a row chunk writes the records before the first
        # separation that raises an error other than a package error
        lines = _margin_lines(n - 1, seed=37)
        lines.insert(at, CORNER_LINE)
        expected = run_cli(["separate"], "\n".join(lines[:at]) + "\n")[1]
        _fail_on_corner(monkeypatch, ValueError("forced"))
        out = io.StringIO()
        with pytest.raises(ValueError, match="forced"):
            main(["separate"], stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
        assert out.getvalue() == expected
        assert len(out.getvalue().splitlines()) == at

    @pytest.mark.parametrize("argv", STREAM_COMMANDS, ids=" ".join)
    def test_binary_stdin_and_tiny_reads(self, argv, monkeypatch):
        # a binary buffer read with read1, CRLF line ends and a multibyte
        # character that reads of 7 bytes split
        lines = _margin_lines(80, seed=36)
        lines[3] = lines[3][:-1] + ', "note": "\u00e9\u00e8"}'
        text = "\r\n".join(lines) + "\r\n"
        expected = run_cli(argv, "\n".join(lines) + "\n")
        monkeypatch.setattr(cli, "READ_SIZE", 7)
        for stdin in (io.StringIO(text), io.TextIOWrapper(io.BytesIO(text.encode()), "utf-8")):
            out = io.StringIO()
            assert (main(argv, stdin=stdin, stdout=out), out.getvalue()) == expected


#: The lines a short chunk is checked on, each with whether ``member_hull``
#: raises on the corner: the bad lines, two lines with two faults (the
#: message names the first checked), an integer -0 (decoded as +0.0) and
#: the corner.
SHORT_CASES = [pytest.param(bad, False, id=bad) for bad in BAD_LINES] + [
    pytest.param('{"x":[0.1,1],"X":[[1,1e999],[1.2,2.5]],"z":[0.5,0.5]}', False,
                 id="infinite and asymmetric"),
    pytest.param('{"x":[-1,1],"X":[[1,1.3],[1.2,2.5]],"z":[0.5,0.5]}', False,
                 id="outside and asymmetric"),
    pytest.param('{"x":[-0,0.5],"X":[[0,-0],[-0,1]],"z":[0.5,0.5]}', False, id="integer -0"),
    pytest.param(CORNER_LINE, False, id="corner"),
    pytest.param(CORNER_LINE, True, id="corner raises"),
]


def _records(argv: list[str], out: str) -> list[str]:
    """The records of a stream's output: its lines, or with --pretty its
    indented objects."""
    if "--pretty" in argv:
        return re.findall(r"(?ms)^\{$.*?^\}\n", out)
    return out.splitlines(keepends=True)


class TestShortChunks:
    """A chunk of fewer than COLUMN_MIN_ROWS records is parsed and answered
    row by row on Python floats; its answers are those of a column chunk."""

    @staticmethod
    def _outcome(argv: list[str], lines: list[str], capsys) -> tuple:
        from pairhull.errors import NumericallyDegenerate

        out = io.StringIO()
        try:
            code = main(argv, stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
        except NumericallyDegenerate as exc:
            code = repr(exc)
        return code, out.getvalue(), capsys.readouterr().err

    @pytest.mark.parametrize("k", [1, COLUMN_MIN_ROWS - 1])
    @pytest.mark.parametrize("extra, raises", SHORT_CASES)
    @pytest.mark.parametrize("argv", [
        ["classify"], ["member"], ["member", "--report"], ["--pretty", "member"],
        ["member", "--oracle"], ["separate"], ["--pretty", "separate"],
    ], ids=" ".join)
    def test_first_lines_answer_as_in_a_column_chunk(self, argv, extra, raises, k, capsys,
                                                     monkeypatch):
        from pairhull.errors import NumericallyDegenerate

        if raises:
            _fail_on_corner(monkeypatch, NumericallyDegenerate("forced"))
        lines = _margin_lines(COLUMN_MIN_ROWS + 16, seed=41)
        lines.insert(k // 2, extra)
        code, out, err = self._outcome(argv, lines, capsys)
        assert self._outcome(argv, lines[:k], capsys) == (
            code, "".join(_records(argv, out)[:k]), err
        )
        if raises and "member" in argv:
            assert code == repr(NumericallyDegenerate("forced"))


def _record_line(tokens: list[str], compact: bool) -> str:
    """A record line with these eight number tokens, spaced as ``json.dumps``
    spaces it by default or with its compact separators."""
    c, k = (",", ":") if compact else (", ", ": ")
    x1, x2, X11, X12, X21, X22, z1, z2 = tokens
    return (f'{{"x"{k}[{x1}{c}{x2}]{c}"X"{k}[[{X11}{c}{X12}]{c}[{X21}{c}{X22}]]'
            f'{c}"z"{k}[{z1}{c}{z2}]}}')


def _compact(line: str) -> str:
    return json.dumps(json.loads(line), separators=(",", ":"))


def _reordered(line: str) -> str:
    rec = json.loads(line)
    return json.dumps({"z": rec["z"], "x": rec["x"], "X": rec["X"]})


#: Tokens that a number slot can hold that are no JSON number (``+1``,
#: ``.5``, ``1.``, ``01``, ``-``, an empty slot, ``NaN``, ``Infinity``),
#: JSON numbers no float holds (``1e400``, 400 digits, and 5000 digits,
#: past Python's limit on the digits of an int) and JSON values that are
#: no numbers.
NEAR_MISS_TOKENS = ["+1", ".5", "1.", "01", "-", "", "1e400", "NaN", "Infinity", "9" * 400,
                    "9" * 5000, "true", '"0.5"']
#: Tokens of usual records: margin points, and the same with x and X
#: rounded to integers.
_MARGIN_TOKENS = [
    [repr(v) for v in (p.x1, p.x2, p.X11, p.X12, p.X12, p.X22, p.z1, p.z2)]
    for p in ctilde_margin_points(np.random.default_rng(43), 40)
]
_MARGIN_TOKENS += [[str(round(float(t))) for t in tokens[:6]] + tokens[6:]
                   for tokens in _MARGIN_TOKENS[:10]]


@st.composite
def _odd_line(draw, tokens: list[str], compact: bool) -> str:
    """A line that the bulk pass leaves to the scan, or whose values the
    value passes reject."""
    kind = draw(st.sampled_from([
        "token", "asymmetric", "outside", "reordered", "extra key", "duplicate key",
        "blank", "spaces", "carriage return",
    ]))
    tokens = list(tokens)
    if kind == "token":
        tokens[draw(st.integers(0, 7))] = draw(st.sampled_from(NEAR_MISS_TOKENS))
    elif kind == "asymmetric":
        tokens[4] = repr(float(tokens[3]) + 0.25)
    elif kind == "outside":
        tokens[draw(st.sampled_from([0, 6]))] = "-1"
    line = _record_line(tokens, compact)
    if kind == "reordered":
        return _reordered(line)
    if kind == "extra key":
        return line[:-1] + ', "note": 1}'
    if kind == "duplicate key":
        return line[:-1] + ', "x": [0.5, 0.5]}'
    if kind == "carriage return":
        return line + "\r"
    return {"blank": "", "spaces": " \t "}.get(kind, line)


@st.composite
def _chunks(draw) -> list[str]:
    """Chunks of usual records in either spelling, a few of their lines
    replaced by odd ones.  The sizes cross the row and column paths and a
    slice of the bulk pass."""
    size = draw(st.sampled_from([1, COLUMN_MIN_ROWS - 1, COLUMN_MIN_ROWS, cli.BULK_ROWS + 2]))
    first = draw(st.integers(0, len(_MARGIN_TOKENS) - 1))
    spelling = draw(st.sampled_from(["default", "compact", "mixed"]))
    compact = [spelling == "compact" or (spelling == "mixed" and i % 3 == 1)
               for i in range(size)]
    tokens = [_MARGIN_TOKENS[(first + i) % len(_MARGIN_TOKENS)] for i in range(size)]
    lines = [_record_line(t, c) for t, c in zip(tokens, compact)]
    for at in draw(st.lists(st.integers(0, size - 1), max_size=3)):
        lines[at] = draw(_odd_line(tokens[at], compact[at]))
    return lines


def _scan_only(lines: list[str]) -> tuple:
    """What :func:`cli._parse_chunk` gives when the per-line scan reads
    every line."""
    with mock.patch.object(cli, "_bulk_values", lambda lines: ([], 0)):
        return _parsed(lines)


def _parsed(lines: list[str]) -> tuple:
    """The rows of a chunk bit for bit, with their type, and its error."""
    rows, error = cli._parse_chunk(lines, 5, DEFAULT_TOL)
    if type(rows) is list:
        bits = [tuple(map(float.hex, p.coords())) for p in rows]
    else:
        bits = (rows.dtype.str, rows.shape, rows.tobytes())
    return type(rows), bits, str(error)


def _typed(values: list) -> list[tuple]:
    return [(type(v), repr(v)) for v in values]


class TestBulkParse:
    """Chunks spelled as ``json.dumps`` spells records are decoded in bulk,
    with the rows and errors of the per-line scan."""

    @settings(max_examples=150, deadline=None)
    @given(_chunks())
    def test_chunk_parses_as_by_the_scan(self, lines):
        assert _parsed(lines) == _scan_only(lines)
        # the lines the bulk pass reads are records to the scan, with the
        # same values of the same types
        flat, n = cli._bulk_values(lines)
        scanned, starts, bad, _ = cli._scan_records(lines[:n])
        assert bad is None and starts == list(range(n))
        assert _typed(flat) == _typed(scanned)

    @pytest.mark.parametrize("line", [
        '{"x": 5[, 0.5], "X": [[1, 0.5], [0.5, 1]], "z": [0.5, 0.5]}',
        '{"x": [0.5, ]5, "X": [[1, 0.5], [0.5, 1]], "z": [0.5, 0.5]}',
        '{"x"5:[0.5,0.5],"X":[[1,0.5],[0.5,1]],"z":[0.5,0.5]}',
        '{"x": [0.5 1, 0.5], "X": [[1, 0.5], [0.5, 1]], "z": [0.5, 0.5]}',
        '{"x": [0.5, 0.5], "X": [[1, 0.5], [0.5, 1]], "z": [0.5, 0.5]}1',
    ])
    def test_number_characters_out_of_their_slot_are_invalid_json(self, line):
        # each line keeps the other characters of a record, so only where
        # its numbers sit tells it from one
        assert cli._bulk_values([line]) == ([], 0)
        _, _, error = _parsed([line])
        assert error.startswith("line 5: invalid JSON")

    @pytest.mark.parametrize("argv", [["classify"], ["member", "--report"], ["separate"]],
                             ids=" ".join)
    def test_usual_chunks_are_not_scanned(self, argv, monkeypatch):
        # both spellings, integer and float coordinates, and a last line
        # without a line end, in row and column chunks
        lines = _margin_lines(COLUMN_MIN_ROWS + 16, seed=42)
        lines[::3] = map(_integer_line, lines[::3])
        lines[1::2] = map(_compact, lines[1::2])
        with mock.patch.object(cli, "_bulk_values", lambda lines: ([], 0)):
            singles = [run_cli(argv, line + "\n") for line in lines]
        assert all(code == 0 for code, _ in singles)

        def fail(line):
            raise AssertionError("scanned")

        monkeypatch.setattr(cli, "_line_values", fail)
        for k in (1, COLUMN_MIN_ROWS - 1, len(lines)):
            expected = "".join(out for _, out in singles[:k])
            assert run_cli(argv, "\n".join(lines[:k])) == (0, expected)

    @pytest.mark.parametrize("argv", [["classify"], ["member", "--report"], ["separate"]],
                             ids=" ".join)
    def test_a_reordered_line_is_read_by_the_scan(self, argv, monkeypatch):
        lines = _margin_lines(COLUMN_MIN_ROWS + 16, seed=44)
        lines[1::2] = map(_compact, lines[1::2])
        lines[40] = _reordered(lines[40])
        expected = "".join(run_cli(argv, line + "\n")[1] for line in lines)
        line_values, scanned = cli._line_values, []
        monkeypatch.setattr(cli, "_line_values", lambda s: scanned.append(s) or line_values(s))
        assert run_cli(argv, "\n".join(lines) + "\n") == (0, expected)
        assert lines[40] in scanned

    @pytest.mark.parametrize("token", ["-0", str(2**53 + 1), str(10**308), str(10**309), "9" * 400],
                             ids=["-0", "2**53+1", "10**308", "10**309", "400 digits"])
    @pytest.mark.parametrize("spelling", ["bulk", "scan"])
    def test_integers_decode_as_their_float(self, token, spelling):
        tokens = ["0.5", "0.5", "1", "0.5", "0.5", "1", "0.5", "0.5"]
        tokens[0] = tokens[3] = tokens[4] = token
        line = _record_line(tokens, compact=False)
        if spelling == "bulk":
            flat, n = cli._bulk_values([line])
            assert n == 1
        else:
            line = _reordered(line)
            assert cli._bulk_values([line]) == ([], 0)
            flat, _, bad, _ = cli._scan_records([line])
            assert bad is None
        try:
            value = float(int(token))
        except OverflowError:
            assert flat[0] == math.inf
            assert _parsed([line])[2] == "line 5: all coordinates must be finite"
            return
        # the bits of the integer's float, with -0 as +0.0
        assert [v.hex() for v in flat[:1] + flat[3:5]] == [value.hex()] * 3
        assert all(type(v) is float for v in flat)


#: A 5000-digit integer (past Python's limit on the digits of an int) and
#: a line nested 100000 lists deep (past the decoder's recursion limit).
HUGE_INTEGER_LINE = '{"x": [%s, 0.5], "X": [[1, 0.5], [0.5, 1]], "z": [0.5, 0.5]}' % ("9" * 5000)
DEEP_LINE = "[" * 100000 + "]" * 100000


class TestUndecodableLines:
    """An integer past Python's limit on the digits of an int and a line
    past the decoder's recursion limit are parse errors of their line."""

    @pytest.mark.parametrize("k", [3, 80])
    @pytest.mark.parametrize("bad, fault", [
        (HUGE_INTEGER_LINE, "all coordinates must be finite"),
        (DEEP_LINE, "invalid JSON (nested too deeply)"),
    ], ids=["5000 digits", "nested"])
    @pytest.mark.parametrize("argv", [["classify"], ["member"], ["separate"], ["member", "--oracle"]],
                             ids=" ".join)
    def test_exit_2_after_answering_the_lines_before(self, argv, bad, fault, k, capsys):
        lines = _margin_lines(k, seed=45)
        code, out = run_cli(argv, "\n".join(lines + [bad] + lines[:2]) + "\n")
        assert code == 2
        assert capsys.readouterr().err == f"error: line {k + 1}: {fault}\n"
        assert out == run_cli(argv, "\n".join(lines) + "\n")[1]
        assert len(_records(argv, out)) == k


HUGE_COORDINATE_LINES = [
    pytest.param(json.dumps({"x": x, "X": [[1, 0.5], [0.5, 1]], "z": [0.5, 0.5]}), id=f"x{i}={big}")
    for big in (1e200, 1e300, 1e308)
    for i, x in ((1, [big, 0.5]), (2, [0.6, big]))
]


class TestOracleOverflow:
    """In-box points whose squares overflow are answered by the oracle
    without a floating-point warning."""

    @pytest.mark.parametrize("k", [0, 80])
    @pytest.mark.parametrize("line", HUGE_COORDINATE_LINES)
    def test_no_warning(self, line, k, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lines = _margin_lines(k, seed=46) + [line]
            code, out = run_cli(["member", "--oracle"], "\n".join(lines) + "\n")
        assert code == 0 and len(out.splitlines()) == k + 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""


SRC = Path(__file__).resolve().parents[1] / "src"


def _answer(fd: int, deadline: float) -> bytes:
    """One line of output, or a failure once the deadline passes."""
    buf = b""
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise AssertionError(f"no answer in time; got {buf!r}")
        data = os.read(fd, 1 << 16)
        if not data:
            raise AssertionError(f"output closed; got {buf!r}")
        buf += data
    return buf


class TestPipe:
    @pytest.mark.parametrize("argv", [["member"], ["member", "--oracle"]], ids=" ".join)
    def test_each_line_is_answered_before_the_next_is_written(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        with subprocess.Popen(
            [sys.executable, "-m", "pairhull", *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        ) as proc:
            try:
                for line in (R4_LINE, R1_LINE, R4_LINE):
                    proc.stdin.write(line.encode() + b"\n")
                    proc.stdin.flush()
                    got = _answer(proc.stdout.fileno(), time.monotonic() + 60.0)
                    assert got.decode() == run_cli(argv, line + "\n")[1]
                proc.stdin.close()
                assert proc.wait(timeout=60) == 0
            finally:
                proc.kill()


def _fresh_run(argv: list[str], text: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``python -m pairhull`` in a new process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pairhull", *argv],
        input=text, capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    def test_calls_in_one_process_equal_fresh_runs(self, capsys):
        text = "\n".join([R4_LINE, R1_LINE, *_margin_lines(4, 5)]) + "\n"
        calls = [
            ["--pretty", "separate"],
            ["--eq-tol", "1e-6", "classify"],
            ["member", "--report"],
            ["member"],
            ["verify", "--trials", "0"],
            ["separate"],
        ]
        for argv in calls:
            try:
                code, out = run_cli(argv, text)
            except SystemExit as exc:
                code, out = exc.code, ""
            err = capsys.readouterr().err
            assert (code, out, err) == _fresh_run(argv, text), argv
        assert code == 0 and "\n  " not in out  # --pretty did not carry over


class TestSeparate:
    def test_cut_record_for_nonmember(self):
        code, out = run_cli(["separate"], R4_LINE + "\n")
        assert code == 0
        rec = json.loads(out)
        assert rec["region"] == "R4"
        assert set(rec["coeffs"]) == {"x1", "x2", "X11", "X12", "X22", "z1", "z2"}
        assert rec["touch"]["X"][0][0] == pytest.approx(2.02)

    def test_inside_record_for_member(self):
        _, out = run_cli(["separate"], R1_LINE + "\n")
        assert json.loads(out) == {"inside": True}

    def test_error_record_outside_relaxation(self):
        _, out = run_cli(["separate"], OUTSIDE_LINE + "\n")
        assert json.loads(out) == {"error": "InputOutsideCtilde"}

    def test_stream_order_preserved(self):
        text = "\n".join([R4_LINE, R1_LINE, OUTSIDE_LINE]) + "\n"
        _, out = run_cli(["separate"], text)
        lines = [json.loads(l) for l in out.splitlines()]
        assert "coeffs" in lines[0]
        assert lines[1] == {"inside": True}
        assert lines[2] == {"error": "InputOutsideCtilde"}

    @pytest.mark.parametrize("before", [0, 100])
    def test_overflowing_schur_term_is_outside_the_relaxation(self, before):
        # (X12 - x1 x2)^2 overflows at X = 1e300; the line is answered and
        # so is the next one, on the row-by-row and on the column path
        huge = '{"x":[1,1],"X":[[1e300,1e300],[1e300,1e300]],"z":[0.5,0.5]}'
        lines = _margin_lines(before, seed=38) + [huge, R4_LINE]
        code, out = run_cli(["separate"], "\n".join(lines) + "\n")
        assert code == 0
        records = [json.loads(l) for l in out.splitlines()]
        assert len(records) == before + 2
        assert records[before] == {"error": "InputOutsideCtilde"}
        assert records[before + 1]["region"] == "R4"

    def test_failing_decision_answers_the_lines_before_it(self, monkeypatch):
        # an indicator-edge non-member goes to the scalar separate inside
        # the batch; an error that is no PairhullError stops the stream there
        from pairhull import separation

        edge = '{"x":[0.0,0.8],"X":[[0.5,0.6],[0.6,1.5]],"z":[0.0,0.6]}'
        lines = _margin_lines(100, seed=39)
        lines.insert(70, edge)

        def fail(p, tol):
            raise ValueError("forced")

        monkeypatch.setattr(separation, "separate", fail)
        out = io.StringIO()
        with pytest.raises(ValueError, match="forced"):
            main(["separate"], stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
        monkeypatch.undo()
        assert out.getvalue() == run_cli(["separate"], "\n".join(lines[:70]) + "\n")[1]


class TestPackage:
    def test_every_exported_name_resolves(self):
        import pairhull

        assert [n for n in pairhull.__all__ if not hasattr(pairhull, n)] == []
        assert len(set(pairhull.__all__)) == len(pairhull.__all__)

    def test_exported_names_listed_and_star_imported(self):
        import pairhull

        assert set(pairhull.__all__) <= set(dir(pairhull))
        scope: dict = {}
        exec("from pairhull import *", scope)
        assert {n: scope[n] for n in pairhull.__all__} == {
            n: getattr(pairhull, n) for n in pairhull.__all__
        }

    def test_unknown_attribute_raises(self):
        import pairhull

        with pytest.raises(AttributeError, match="no_such_name"):
            pairhull.no_such_name

    def test_every_exported_name_has_a_caller(self):
        # a public name that only tests call should go: each one is read in
        # a module of the package other than pairhull/__init__.py, or in the
        # reference formulas the tests compare against
        import pairhull

        files = [f for f in PACKAGE_DIR.glob("*.py") if f.name != "__init__.py"]
        used = set()
        for node in _nodes([*files, Path(__file__).with_name("reference.py")]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        assert sorted(set(pairhull.__all__) - used) == []

    def test_every_package_error_is_raised(self):
        from pairhull import errors

        raised = set()
        for node in _nodes(PACKAGE_DIR.glob("*.py")):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
        defined = {
            name for name, v in vars(errors).items()
            if isinstance(v, type) and issubclass(v, errors.PairhullError)
            and v is not errors.PairhullError
        }
        assert sorted(defined - raised) == []

    def test_only_the_package_lists_its_api(self):
        # pairhull.__all__ is the one API list; a submodule list goes stale
        assigned = [
            f.name for f in PACKAGE_DIR.glob("*.py") if f.name != "__init__.py"
            for node in _nodes([f]) if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for t in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(t, ast.Name) and t.id == "__all__"
        ]
        assert assigned == []

    def test_suite_choices_are_the_verify_suites(self):
        from pairhull.verify import SUITES

        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert list(suite.choices) == [*SUITES, "all"]


def _loaded_modules(code: str) -> set[str]:
    """The ``pairhull`` modules, and ``numpy`` if it is loaded, that a fresh
    interpreter holds after ``code``."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = code + (
        "\nimport sys\nprint(' '.join(m for m in sys.modules"
        " if m == 'numpy' or m.split('.')[0] == 'pairhull'))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return set(out.stdout.split())


class TestStartup:
    """Each command imports only the modules it calls, and a short stream of
    ``classify``, ``member`` or ``separate``, or of ``member --oracle`` on
    points the oracle certifies, is answered without numpy, so a process
    that answers one query pays for no others at start."""

    BASE = {"pairhull", "pairhull.cli", "pairhull.columns", "pairhull.core",
            "pairhull.errors", "pairhull.families", "pairhull.regions"}
    MEMBER = BASE | {"pairhull.hull"}
    EVERY = {"pairhull", *(f"pairhull.{f.stem}" for f in PACKAGE_DIR.glob("*.py")
                           if f.stem not in ("__init__", "__main__"))}

    @pytest.mark.parametrize("argv, modules", [
        pytest.param(argv, modules, id=" ".join(argv)) for argv, modules in (
            (["classify"], BASE),
            (["member"], MEMBER),
            (["member", "--report"], MEMBER),
            # the oracle checks the cut of separate and searches nothing
            (["member", "--oracle"], MEMBER | {"pairhull.oracle", "pairhull.separation"}),
            (["separate"], MEMBER | {"pairhull.separation"}),
        )
    ])
    def test_command_loads_only_its_modules(self, argv, modules):
        code = (
            "import io\nfrom pairhull import cli\n"
            f"out = io.StringIO()\nassert cli.main({argv!r}, io.StringIO({R4_LINE!r}), out) == 0\n"
            "assert out.getvalue().count(chr(10)) == 1"
        )
        assert _loaded_modules(code) == modules

    def test_verify_loads_every_module(self):
        code = (
            "import io\nfrom pairhull import cli\n"
            "assert cli.main(['verify', '--trials', '1'], io.StringIO(), io.StringIO()) == 0"
        )
        assert _loaded_modules(code) == self.EVERY | {"numpy"}

    def test_package_import_loads_no_submodule(self):
        assert _loaded_modules("import pairhull") == {"pairhull"}

    @pytest.mark.parametrize("argv", [*STREAM_COMMANDS, ["member", "--oracle"]], ids=" ".join)
    def test_column_chunks_read_numpy_names_from_the_stand_in(self, argv):
        # the stand-in keeps each numpy name read of it, so once a command
        # has answered one column chunk, its next chunk reads numpy through
        # no Python attribute hook, and what it reads is numpy's own object
        first, second = ("".join(line + "\n" for line in _margin_lines(COLUMN_MIN_ROWS, seed))
                         for seed in (40, 41))
        code = (
            "import io, sys\nfrom pairhull import cli, columns\n"
            "hook = columns._NumpyOnFirstUse.__getattr__\nreads = []\n"
            "columns._NumpyOnFirstUse.__getattr__ = lambda s, n: reads.append(n) or hook(s, n)\n"
            f"assert cli.main({argv!r}, io.StringIO({first!r}), io.StringIO()) == 0\n"
            "del reads[:]\n"
            f"assert cli.main({argv!r}, io.StringIO({second!r}), io.StringIO()) == 0\n"
            "assert not reads, reads\n"
            "numpy = sys.modules['numpy']\n"
            "kept = vars(columns.np)\n"
            "assert kept and all(v is getattr(numpy, k) for k, v in kept.items())"
        )
        assert "numpy" in _loaded_modules(code)


class TestVerify:
    def test_hull_suite_passes(self):
        code, out = run_cli(
            ["verify", "--suite", "hull", "--trials", "500", "--seed", "7"], ""
        )
        assert code == 0
        assert "suite=hull" in out and "[pass]" in out

    def test_zero_trials_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--trials", "0"], "")
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--suite", "hull", "--trials", "5", "--seed", "-1"], "")
        assert exc.value.code == 2
        assert "--seed must be a nonnegative integer" in capsys.readouterr().err

    def test_all_suites_smoke(self):
        code, out = run_cli(
            ["verify", "--suite", "all", "--trials", "20", "--seed", "3"], ""
        )
        assert code == 0
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize(
        "suite, summary, offender",
        [
            (
                "hull",
                "suite=hull trials=5000 failures=302 worst_slack=-6.005e+01 [FAIL]",
                '{"offender": {"point": {"x1": 0.5372649752609931, "x2": 0.8006160446469472, '
                '"X11": 1.0160338917375906, "X12": 0.0, "X22": 0.8953550258632214, '
                '"z1": 0.28409844985441257, "z2": 0.7159015501455873}, "violated": ["I.persp1"]}}',
            ),
            (
                "partition",
                "suite=partition trials=5000 failures=93 worst_slack=0.000e+00 [FAIL] "
                "counts={'R3': 231, 'R4': 866, 'R1': 2227, 'R5': 1458, 'R2': 169, "
                "'R7': 8, 'R8': 12, 'R6': 21, 'NotCovered': 8}",
                '{"offender": {"point": {"x1": 0.31947782927415713, "x2": 0.23907748636410653, '
                '"X11": 2.098331747765032, "X12": 3.8745450812025974, "X22": 1.6994248037252189, '
                '"z1": 0.24964702186903032, "z2": 0.4648605134033179}, "matches": ["R1", "R4"]}}',
            ),
        ],
    )
    def test_loose_tolerances_fail_with_the_first_offender(self, suite, summary, offender):
        loose = ["--eq-tol", "0.3", "--mem-tol", "0.3", "--oracle-tol", "0.3"]
        code, out = run_cli(
            loose + ["verify", "--suite", suite, "--trials", "5000", "--seed", "3"], ""
        )
        line, record = out.splitlines()
        assert code == 1
        assert re.sub(r" elapsed=\S+", "", line) == summary
        assert record == offender

    def test_loose_oracle_suite_reports_an_oracle_error(self):
        loose = ["--eq-tol", "0.3", "--mem-tol", "0.3", "--oracle-tol", "0.3"]
        code, out = run_cli(
            loose + ["verify", "--suite", "oracle", "--trials", "60", "--seed", "1"], ""
        )
        line, record = out.splitlines()
        assert code == 1
        assert line.startswith("suite=oracle trials=60 failures=")
        assert json.loads(record)["offender"]["error"].startswith("weight interval")


class TestDeterminism:
    def test_identical_runs_identical_bytes(self):
        text = "\n".join([R4_LINE, R1_LINE]) + "\n"
        _, out1 = run_cli(["separate"], text)
        _, out2 = run_cli(["separate"], text)
        assert out1 == out2
        _, v1 = run_cli(["verify", "--suite", "partition", "--trials", "200", "--seed", "5"], "")
        _, v2 = run_cli(["verify", "--suite", "partition", "--trials", "200", "--seed", "5"], "")
        assert v1.split("elapsed")[0] == v2.split("elapsed")[0]


#: OpenBLAS kernels a numpy build may pick at run time: the CPU's own
#: (unset) and two that round dot products differently.
BLAS_KERNELS = (None, "Haswell", "Prescott")


def _kernel_run(argv: list[str], text: str, kernel: str | None) -> str:
    """Stdout of ``python -m pairhull`` in a new process on the OpenBLAS
    kernel ``kernel``, with the elapsed time of a verify line cut out."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    proc = subprocess.run([sys.executable, "-m", "pairhull", *argv], input=text,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and not proc.stderr, (kernel, proc.stderr)
    return re.sub(r"elapsed=\S+", "elapsed=", proc.stdout)


class TestBlasKernels:
    """No answer depends on the BLAS kernel numpy picks: every cut is plain
    float arithmetic, on one point and on columns alike."""

    @pytest.mark.parametrize("argv, n", [
        (["separate"], 400),
        (["separate"], COLUMN_MIN_ROWS - 1),
        (["verify", "--suite", "cuts", "--trials", "2000", "--seed", "3"], 0),
    ], ids=["separate-columns", "separate-rows", "verify-cuts"])
    def test_stdout_is_the_same_on_every_kernel(self, argv, n):
        points = shrunken_nonmembers(np.random.default_rng(8), n)
        text = "".join(json.dumps(_point_record(p)) + "\n" for p in points)
        outs = [_kernel_run(argv, text, kernel) for kernel in BLAS_KERNELS]
        assert outs[0].count("\n") == max(n, 1)
        assert outs[1] == outs[0] and outs[2] == outs[0]


class TestTolerancesFlags:
    def test_overridden_tolerances_flow_through(self):
        # loose membership tolerance flips a slightly-violated point
        line = '{"x":[0.1,1],"X":[[2.0199,1.2],[1.2,2.5]],"z":[0.5,0.5]}'
        _, strict = run_cli(["member"], line + "\n")
        _, loose = run_cli(["--mem-tol", "0.001", "--oracle-tol", "0.01", "member"], line + "\n")
        assert json.loads(strict)["member"] is False
        assert json.loads(loose)["member"] is True

    def test_infinite_tolerances_are_usage_errors(self, capsys):
        # with every band infinite the R4 non-member would read as a member
        inf = ["--eq-tol", "inf", "--mem-tol", "inf", "--oracle-tol", "inf"]
        with pytest.raises(SystemExit) as exc:
            run_cli([*inf, "member"], R4_LINE + "\n")
        assert exc.value.code == 2
        assert "tolerances must be finite" in capsys.readouterr().err

    def test_pretty_output_parses(self):
        _, out = run_cli(["--pretty", "member"], R1_LINE + "\n")
        assert json.loads(out)["member"] is True
