import io
import json

import numpy as np
import pytest

from pairhull.cli import _point_record, main
from pairhull.oracle import ORACLE_CHUNK
from pairhull.verify import ctilde_margin_points

R4_LINE = '{"x":[0.1,1],"X":[[1,1.2],[1.2,2.5]],"z":[0.5,0.5]}'
R1_LINE = '{"x":[0.5,0.5],"X":[[0.5,0.5],[0.5,0.5]],"z":[0.5,0.5]}'
OUTSIDE_LINE = '{"x":[1,1],"X":[[1,1],[1,1]],"z":[0.5,0.5]}'


def run_cli(args, text):
    out = io.StringIO()
    code = main(args, stdin=io.StringIO(text), stdout=out)
    return code, out.getvalue()


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

    def test_all_suites_smoke(self):
        code, out = run_cli(
            ["verify", "--suite", "all", "--trials", "20", "--seed", "3"], ""
        )
        assert code == 0
        assert len(out.splitlines()) == 4


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
