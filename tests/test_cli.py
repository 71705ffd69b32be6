import hashlib
import json
import math
import random
import sys

import pytest

from astgen import random_expr
from lawson import CheckResult, render
from lawson import engine
from lawson.cli import main, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_csv_quadric(self, capsys):
        code, out, err = invoke(capsys, "eval", "quadric(1)", "--format", "csv")
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "r,k,rank",
            "0,0,1",
            "0,2,2",
            "0,4,1",
            "1,2,2",
            "1,4,1",
            "2,4,1",
        ]

    def test_json_document(self, capsys):
        code, out, err = invoke(capsys, "eval", "P(1)", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document == {
            "expr": "P(1)",
            "dim": 1,
            "proper": True,
            "coefficients": "Z",
            "ranks": [
                {"r": 0, "k": 0, "rank": 1},
                {"r": 0, "k": 2, "rank": 1},
                {"r": 1, "k": 2, "rank": 1},
            ],
        }
        # Key order is part of the deterministic-output contract.
        assert out.startswith('{"expr":')

    def test_json_is_byte_deterministic(self, capsys):
        first = invoke(capsys, "eval", "hilb(1,2)", "--format", "json")
        second = invoke(capsys, "eval", "hilb(1,2)", "--format", "json")
        assert first == second and first[0] == 0

    def test_json_rational_tag(self, capsys):
        code, out, _ = invoke(capsys, "eval", "sp(P(1),2)", "--format", "json")
        assert code == 0
        assert json.loads(out)["coefficients"] == "Q"

    def test_plain_grid(self, capsys):
        code, out, _ = invoke(capsys, "eval", "quadric(1)")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "expr: quadric(1)"
        assert lines[1] == "dim: 2"
        assert lines[2] == "proper: true"
        assert lines[3] == "coefficients: Z"
        assert lines[4] == "  r\\k | 0 1 2 3 4"
        assert lines[6] == "    0 | 1 . 2 . 1"
        assert lines[7] == "    1 |     2 . 1"
        assert lines[8] == "    2 |         1"

    def test_max_r_truncates(self, capsys):
        code, out, _ = invoke(
            capsys, "eval", "quadric(1)", "--format", "csv", "--max-r", "0"
        )
        assert code == 0
        assert out.splitlines() == ["r,k,rank", "0,0,1", "0,2,2", "0,4,1"]
        # A negative bound keeps the header and drops every row in all formats.
        outputs = {}
        for fmt in ("plain", "json", "csv"):
            code, outputs[fmt], _ = invoke(
                capsys, "eval", "quadric(1)", "--format", fmt, "--max-r", "-1"
            )
            assert code == 0
        assert outputs["plain"].splitlines()[4:] == [
            "  r\\k | 0 1 2 3 4",
            "-" * len("  r\\k | 0 1 2 3 4"),
        ]
        assert json.loads(outputs["json"])["ranks"] == []
        assert outputs["csv"].splitlines() == ["r,k,rank"]

    def test_non_proper_expression(self, capsys):
        code, out, _ = invoke(capsys, "eval", "torus(1)", "--format", "json")
        assert code == 0
        assert json.loads(out)["proper"] is False

    def test_parse_error_exits_1(self, capsys):
        code, out, err = invoke(capsys, "eval", "blowup(2)")
        assert code == 1 and out == ""
        assert "parse error" in err

    def test_validation_error_exits_2(self, capsys):
        code, _, err = invoke(capsys, "eval", "P(0)")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "text",
        [
            "susp(" * 1200 + "pt" + ")" * 1200,
            "prod(" * 500 + "pt" + ",pt)" * 500,
        ],
    )
    def test_deep_nesting_exits_1(self, capsys, text):
        code, out, err = invoke(capsys, "eval", text)
        assert code == 1 and out == ""
        assert err.startswith("parse error") and "nest deeper" in err

    @pytest.mark.parametrize(
        "text",
        [
            "prod(toric([1,3,3],simplicial),P(0))",
            "decomp(susp(sp(P(1),2)):0,affine(1):0)",
            "prod(susp(sp(P(1),2)),P(0))",
        ],
    )
    def test_validation_error_anywhere_exits_2(self, capsys, text):
        code, out, _ = invoke(capsys, "eval", text)
        assert code == 2 and out == ""

    def test_unsupported_table_exits_3(self, capsys):
        for flag in ("simplicial", "general"):
            code, out, err = invoke(capsys, "eval", f"toric([1,3,3],{flag})")
            assert code == 3 and out == ""
            assert "unsupported full-table query" in err
            assert "chi" in err


class TestChi:
    def test_all_profile(self, capsys):
        code, out, _ = invoke(capsys, "chi", "toric([1,3,3])", "--all")
        assert code == 0
        assert out == "p=0:3 p=1:2 p=2:1\n"

    def test_single_value(self, capsys):
        code, out, _ = invoke(capsys, "chi", "P(2)", "--p", "1")
        assert code == 0 and out == "2\n"

    def test_torus_negative_value(self, capsys):
        code, out, _ = invoke(capsys, "chi", "torus(2)", "--p", "1")
        assert code == 0 and out == "-1\n"

    def test_simplicial_toric_is_allowed_here(self, capsys):
        code, out, _ = invoke(capsys, "chi", "toric([1,3,3],simplicial)", "--all")
        assert code == 0
        assert out == "p=0:3 p=1:2 p=2:1\n"

    def test_p_out_of_range_exits_2(self, capsys):
        code, _, err = invoke(capsys, "chi", "P(2)", "--p", "9")
        assert code == 2 and "p must lie" in err

    def test_requires_exactly_one_mode(self, capsys):
        assert invoke(capsys, "chi", "P(2)")[0] == 1
        assert invoke(capsys, "chi", "P(2)", "--p", "1", "--all")[0] == 1


class TestChow:
    def test_torus_value(self, capsys):
        code, out, _ = invoke(capsys, "chow", "torus(2)", "--r", "0", "--m", "3")
        assert code == 0 and out == "2\n"

    def test_projective_space(self, capsys):
        code, out, _ = invoke(capsys, "chow", "P(3)", "--r", "1", "--m", "0")
        assert code == 0 and out == "1\n"

    def test_non_toric_exits_3(self, capsys):
        code, out, err = invoke(capsys, "chow", "quadric(1)", "--r", "0", "--m", "0")
        assert code == 3 and out == ""
        assert "toric" in err

    def test_negative_index_exits_2(self, capsys):
        code, _, err = invoke(capsys, "chow", "torus(1)", "--r", "-1", "--m", "0")
        assert code == 2 and "nonnegative" in err


class TestSeries:
    def test_hilb_rows(self, capsys):
        code, out, _ = invoke(capsys, "series", "hilb", "--b2", "1", "--d", "1")
        assert code == 0
        assert out.splitlines() == ["d=0: 1 0 0 0 0", "d=1: 1 0 1 0 1"]

    def test_hilb_two_point_row(self, capsys):
        code, out, _ = invoke(capsys, "series", "hilb", "--b2", "1", "--d", "2")
        assert code == 0
        assert out.splitlines()[2] == "d=2: 1 0 2 0 3 0 2 0 1"

    def test_sp_rows(self, capsys):
        code, out, _ = invoke(capsys, "series", "sp", "--cells", "0,1", "--d", "2")
        assert code == 0
        assert out.splitlines() == [
            "d=0: 1 0 0 0 0",
            "d=1: 1 0 1 0 0",
            "d=2: 1 0 1 0 1",
        ]

    def test_sp_without_a_zero_cell(self, capsys):
        code, out, err = invoke(capsys, "series", "sp", "--cells", "1,2", "--d", "2")
        assert code == 0 and err == ""
        assert out.splitlines()[2] == "d=2: 0 0 0 0 1 0 1 0 1"

    def test_sp_accepts_bracketed_cells(self, capsys):
        plain = invoke(capsys, "series", "sp", "--cells", "0,1", "--d", "2")
        bracketed = invoke(capsys, "series", "sp", "--cells", "[0,1]", "--d", "2")
        assert plain == bracketed

    def test_bad_cells_exit_2(self, capsys):
        code, _, err = invoke(capsys, "series", "sp", "--cells", "0,x", "--d", "2")
        assert code == 2 and "cells" in err

    def test_bad_series_arguments_exit_2(self, capsys):
        assert invoke(capsys, "series", "hilb", "--b2", "-1", "--d", "2")[0] == 2
        assert invoke(capsys, "series", "hilb", "--b2", "1", "--d", "0")[0] == 2


class TestCheck:
    def test_all_suites_pass(self, capsys):
        code, out, _ = invoke(capsys, "check")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 20
        assert all(line.startswith("[PASS] ") for line in lines)

    def test_named_suite(self, capsys):
        code, out, _ = invoke(capsys, "check", "--suite", "torus")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_unknown_suite_exits_1(self, capsys):
        code, _, err = invoke(capsys, "check", "--suite", "spectra")
        assert code == 1 and "usage error" in err

    def test_failed_property_exits_4(self, capsys, monkeypatch):
        failing = [CheckResult("stub property", "one instance", False)]
        monkeypatch.setitem(engine._SUITE_RUNNERS, "torus", lambda: failing)
        code, out, _ = invoke(capsys, "check", "--suite", "torus")
        assert code == 4
        assert out == "[FAIL] stub property (one instance)\n"


def _digits(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


class TestBigAnswers:
    # One rank of C(14999, 7500), about 4,500 digits: past the interpreter's
    # default int-to-string limit.
    TEXT = "sp(cellular([" + ",".join("0" * 7500) + "]),7500)"
    RANK = _digits(math.comb(14999, 7500))

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_eval_prints_every_digit(self, capsys, fmt):
        code, out, _ = invoke(capsys, "eval", self.TEXT, "--format", fmt)
        assert code == 0
        assert self.RANK in out

    def test_chi_prints_every_digit(self, capsys):
        assert invoke(capsys, "chi", "--all", self.TEXT) == (0, f"p=0:{self.RANK}\n", "")

    def test_the_digit_limit_is_restored(self, capsys):
        limit = sys.get_int_max_str_digits()
        invoke(capsys, "chi", "--all", self.TEXT)
        assert sys.get_int_max_str_digits() == limit


class TestUsage:
    def test_no_arguments(self, capsys):
        assert invoke(capsys)[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, capsys):
        assert invoke(capsys, "eval", "pt", "--frobnicate")[0] == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "eval" in out and "check" in out

    def test_main_raises_system_exit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["lawson", "chi", "P(2)", "--p", "0"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert capsys.readouterr().out == "3\n"


# Byte-for-byte lock on the CLI: one digest over the exit code and stdout of a
# fixed corpus.  A change to any emitted byte, for any format, changes it.
README_COMMANDS = (
    ("eval", "quadric(2)"),
    ("chi", "--all", "toric([1,3,3],smooth)"),
    ("chow", "torus(2)", "--r", "0", "--m", "3"),
    ("series", "hilb", "--b2", "1", "--d", "2"),
    ("series", "sp", "--cells", "0,1,1,2", "--d", "2"),
    ("check", "--suite", "quadric"),
)
CORPUS_SEED = 2009
CORPUS_SIZE = 200
CORPUS_DIGEST = "a89d6083456b80ee4d6ee3898d88149c25b9d8c696a23a1240881d12312ec08d"


def corpus_commands():
    yield from README_COMMANDS
    rng = random.Random(CORPUS_SEED)
    for _ in range(CORPUS_SIZE):
        text = render(random_expr(rng))
        for fmt in ("plain", "json", "csv"):
            yield ("eval", text, "--format", fmt)
            for bound in ("0", "-1"):
                yield ("eval", text, "--format", fmt, "--max-r", bound)
        yield ("chi", "--all", text)


def test_corpus_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for argv in corpus_commands():
        code, out, _ = invoke(capsys, *argv)
        digest.update(repr((argv, code, out)).encode())
    assert digest.hexdigest() == CORPUS_DIGEST


# The same lock on the raw generating-function rows of `series`, including
# d = 0 rejections and a cell list without a 0-cell.
SERIES_COMMANDS = tuple(
    ("series", "hilb", "--b2", str(b2), "--d", str(d)) for b2 in range(5) for d in range(7)
) + tuple(
    ("series", "sp", "--cells", cells, "--d", str(d))
    for cells in ("0", "0,1", "0,1,1,2", "1,2", "0,0,2,3,3", "4,4,4")
    for d in range(5)
)
SERIES_DIGEST = "1e59b75cef8a3a95c3fc5b93a6f0dd083817bc00b259aa2429da3e8000ca1bb4"


def test_series_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for argv in SERIES_COMMANDS:
        code, out, _ = invoke(capsys, *argv)
        digest.update(repr((argv, code, out)).encode())
    assert digest.hexdigest() == SERIES_DIGEST
