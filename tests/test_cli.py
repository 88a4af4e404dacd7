import argparse
import ast
import io
import json
import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pairhull import cli
from pairhull.cli import _point_record, main
from pairhull.oracle import ORACLE_CHUNK
from pairhull.verify import ctilde_margin_points, shrunken_nonmembers

R4_LINE = '{"x":[0.1,1],"X":[[1,1.2],[1.2,2.5]],"z":[0.5,0.5]}'
R1_LINE = '{"x":[0.5,0.5],"X":[[0.5,0.5],[0.5,0.5]],"z":[0.5,0.5]}'
OUTSIDE_LINE = '{"x":[1,1],"X":[[1,1],[1,1]],"z":[0.5,0.5]}'
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
        _, out = run_cli(["member", "--report"], R4_LINE + "\n")
        rec = json.loads(out)
        assert rec["slacks"]["II.product"] == pytest.approx(-0.51)

    def test_oracle_objective(self):
        _, out = run_cli(["member", "--oracle"], R4_LINE + "\n")
        rec = json.loads(out)
        assert rec["member"] is False
        assert rec["objective"] == pytest.approx(2.02, abs=1e-3)
        assert set(rec["witness"]) == {"xt41", "xt42", "lambda4"}

    def test_infinite_oracle_objective_is_null(self):
        # X22 < x2^2 / z2: no witness is feasible, the objective is +inf
        line = '{"x":[0.5,1],"X":[[1,0.5],[0.5,0.1]],"z":[0.5,0.5]}'
        _, out = run_cli(["member", "--oracle"], line + "\n")
        assert '"member": false' in out and '"objective": null' in out


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

        corner = {"x": [0.0023614562234584202, 0.0018389504695006781],
                  "X": [[3.303684937974451e-05, 3.261422087943452e-05],
                        [3.261422087943452e-05, 1.785549495622005e-05]],
                  "z": [0.28771104292453, 0.4770477567323037]}
        lines = _margin_lines(100, seed=37)
        lines.insert(70, json.dumps(corner))

        def fail(p, tol):
            raise NumericallyDegenerate("forced")

        monkeypatch.setattr(hull, "member_hull", fail)
        out = io.StringIO()
        with pytest.raises(NumericallyDegenerate):
            main(["member"], stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
        assert out.getvalue() == run_cli(["member"], "\n".join(lines[:70]) + "\n")[1]

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
    """The ``pairhull`` modules a fresh interpreter holds after ``code``."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = code + "\nimport sys\nprint(' '.join(m for m in sys.modules if m.split('.')[0] == 'pairhull'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return set(out.stdout.split())


class TestStartup:
    """Each command imports only the modules it calls, so a process that
    answers one query pays for no others at start."""

    BASE = {"pairhull", "pairhull.cli", "pairhull.columns", "pairhull.core",
            "pairhull.errors", "pairhull.regions"}
    MEMBER = BASE | {"pairhull.families", "pairhull.hull", "pairhull.oracle"}

    @pytest.mark.parametrize("command, modules", [
        ("classify", BASE),
        ("member", MEMBER),
        ("separate", MEMBER | {"pairhull.separation"}),
    ])
    def test_command_loads_only_its_modules(self, command, modules):
        code = (
            "import io\nfrom pairhull import cli\n"
            f"out = io.StringIO()\nassert cli.main([{command!r}], io.StringIO({R4_LINE!r}), out) == 0\n"
            "assert out.getvalue().count(chr(10)) == 1"
        )
        assert _loaded_modules(code) == modules

    def test_package_import_loads_no_submodule(self):
        assert _loaded_modules("import pairhull") == {"pairhull"}


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
                "suite=hull trials=5000 failures=271 worst_slack=-2.285e-01 [FAIL]",
                '{"offender": {"point": {"x1": 0.5372649752609931, "x2": 0.8006160446469472, '
                '"X11": 1.0160338917375906, "X12": 0.0, "X22": 0.8953550258632214, '
                '"z1": 0.28409844985441257, "z2": 0.7159015501455873}, "violated": ["I.persp1"]}}',
            ),
            (
                "partition",
                "suite=partition trials=5000 failures=94 worst_slack=0.000e+00 [FAIL] "
                "counts={'R3': 231, 'R4': 866, 'R1': 2227, 'R5': 1458, 'R2': 169, "
                "'R7': 10, 'R8': 6, 'R6': 25, 'NotCovered': 8}",
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


class TestTolerancesFlags:
    def test_overridden_tolerances_flow_through(self):
        # loose membership tolerance flips a slightly-violated point
        line = '{"x":[0.1,1],"X":[[2.0199,1.2],[1.2,2.5]],"z":[0.5,0.5]}'
        _, strict = run_cli(["member"], line + "\n")
        _, loose = run_cli(["--mem-tol", "0.001", "--oracle-tol", "0.01", "member"], line + "\n")
        assert json.loads(strict)["member"] is False
        assert json.loads(loose)["member"] is True

    def test_pretty_output_parses(self):
        _, out = run_cli(["--pretty", "member"], R1_LINE + "\n")
        assert json.loads(out)["member"] is True
