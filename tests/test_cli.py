import io
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polyprism.cli
from polyprism.cli import EX_CANTCREAT, EX_INTERNAL, EX_OVERFLOW, EX_USAGE, run
from polyprism.core import parse_polycubes
from polyprism.formulas import p3dmin_thickness2


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


class TestCount:
    @pytest.mark.parametrize(
        "engine,expected",
        [("oracle", "32"), ("series", "32"), ("formula", "32")],
    )
    def test_cube_all_engines_agree(self, engine, expected):
        code, out = _run(["count", "--b", "2", "--k", "2", "--h", "2", "--engine", engine])
        assert code == 0
        assert out.strip() == expected

    def test_trivial_formula(self):
        code, out = _run(["count", "--b", "1", "--k", "1", "--h", "1", "--engine", "formula"])
        assert code == 0 and out.strip() == "1"

    def test_formula_refuses_thick_prisms(self, capsys):
        code, _ = _run(["count", "--b", "4", "--k", "4", "--h", "4", "--engine", "formula"])
        assert code == EX_USAGE
        assert "series" in capsys.readouterr().err

    def test_unknown_engine_is_usage_error(self):
        code, _ = _run(["count", "--b", "2", "--k", "2", "--h", "2", "--engine", "magic"])
        assert code == EX_USAGE

    def test_overflow_exit_code(self):
        code, _ = _run(["count", "--b", "1", "--k", "200", "--h", "200", "--engine", "formula"])
        assert code == EX_OVERFLOW

    def test_series_overflow_exits_before_expanding(self):
        start = time.perf_counter()
        code, _ = _run(["count", "--engine", "series", "--b", "200", "--k", "200", "--h", "200"])
        assert code == EX_OVERFLOW
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("axis", ["--b", "--k", "--h"])
    @pytest.mark.parametrize(
        "short,long,code,expected",
        [
            pytest.param((2, 2), 10**12, 0, str(p3dmin_thickness2(2, 10**12)), id="2x2x1e12"),
            pytest.param((4, 5), 10**12, EX_OVERFLOW, "", id="4x5x1e12"),
            pytest.param((4, 5), 3000, 0, "979180712484941275141064", id="4x5x3000"),
        ],
    )
    def test_series_on_a_huge_long_side(self, axis, short, long, code, expected):
        sides = dict(zip([a for a in ("--b", "--k", "--h") if a != axis], map(str, short)))
        sides[axis] = str(long)
        start = time.perf_counter()
        got, out = _run(["count", "--engine", "series", *itertools.chain(*sides.items())])
        assert time.perf_counter() - start < 0.1
        assert (got, out.strip()) == (code, expected)
        assert expected != "" or out == ""

    def test_series_on_a_long_thin_prism(self):
        code, out = _run(["count", "--engine", "series", "--b", "2", "--k", "3", "--h", "400"])
        assert code == 0
        assert out.strip() == str(p3dmin_thickness2(3, 400))


class TestTables:
    def test_table1_csv(self):
        code, out = _run(["table1", "--nmax", "2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "row,n,engine,computed,reference,status"
        assert "total,2,oracle,32,32,PASS" in lines
        assert all(line.endswith("PASS") for line in lines[1:])

    def test_table2_csv(self):
        code, out = _run(["table2", "--nmax", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,engine,computed,reference,status"
        assert "4,formula,83,83,PASS" in lines
        assert "4,series,83,83,PASS" in lines


class TestVerify:
    def test_writes_json_report_and_exits_clean(self, tmp_path):
        report_path = tmp_path / "report.json"
        code, out = _run(["verify", "--max-dim", "2", "--report", str(report_path)])
        assert code == 0
        assert "0 failures, 0 errata" in out
        payload = json.loads(report_path.read_text())
        assert set(payload) == {"runs", "errata"}
        assert payload["errata"] == []
        assert all(r["passed"] for r in payload["runs"])

    def test_unwritable_report_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code, out = _run(["verify", "--max-dim", "2", "--report", str(target)])
        assert code == EX_CANTCREAT
        assert "0 failures, 0 errata" in out
        err = capsys.readouterr().err
        assert err.startswith("output error") and "Traceback" not in err


class TestList:
    def test_streams_parseable_polycubes(self):
        code, out = _run(["list", "--b", "2", "--k", "2", "--h", "1"])
        assert code == 0
        shapes = parse_polycubes(out)
        assert len(shapes) == 4

    def test_family_filter(self):
        code, out = _run(
            ["list", "--b", "2", "--k", "3", "--h", "3", "--family", "TwoDxTwoD"]
        )
        assert code == 0
        assert len(parse_polycubes(out)) == 2


class TestClassify:
    def test_golden_csv(self):
        code, out = _run(["classify", "--b", "3", "--k", "3", "--h", "3"])
        assert code == 0
        assert out == (
            "family,count\n"
            "Diagonal,2271\n"
            "TwoDxTwoD,66\n"
            "SkewCrossA,48\n"
            "SkewCrossB,16\n"
        )


class TestExpand:
    def test_csv_to_stdout(self):
        code, out = _run(["expand", "--gf", "Stair", "--bounds", "1,1,1"])
        assert code == 0
        assert out == "b,k,h,coefficient\n1,1,1,1\n"

    def test_csv_to_file(self, tmp_path):
        target = tmp_path / "stair.csv"
        code, _ = _run(["expand", "--gf", "Stair", "--bounds", "2,2,2", "--out", str(target)])
        assert code == 0
        assert target.read_text().startswith("b,k,h,coefficient\n")

    def test_unwritable_out_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "stair.csv"
        code, out = _run(["expand", "--gf", "Stair", "--bounds", "1,1,1", "--out", str(target)])
        assert code == EX_CANTCREAT and out == ""
        err = capsys.readouterr().err
        assert err.startswith("output error") and "Traceback" not in err

    def test_unknown_gf(self):
        code, _ = _run(["expand", "--gf", "Bogus", "--bounds", "2,2,2"])
        assert code == EX_USAGE

    def test_malformed_bounds(self):
        code, _ = _run(["expand", "--gf", "Stair", "--bounds", "2,2"])
        assert code == EX_USAGE


class TestUsage:
    def test_missing_subcommand(self):
        code, _ = _run([])
        assert code == EX_USAGE

    def test_unknown_flag(self):
        code, _ = _run(["count", "--sides", "3"])
        assert code == EX_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--b", "0", "--k", "2", "--h", "2", "--engine", "series"],
            ["classify", "--b", "2", "--k", "-1", "--h", "2"],
            ["expand", "--gf", "Stair", "--bounds", "2,-1,2"],
            ["expand", "--gf", "Stair", "--bounds", "2,x,2"],
            ["table1", "--nmax", "9"],
            ["table2", "--nmax", "0"],
            ["verify", "--max-dim", "1"],
            ["verify", "--max-dim", "26"],
        ],
    )
    def test_out_of_range_input_is_usage_error(self, argv, capsys):
        code, _ = _run(argv)
        assert code == EX_USAGE
        assert capsys.readouterr().err.startswith("usage error")

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_bad_thread_count_is_usage_error(self, threads, monkeypatch, capsys):
        monkeypatch.setenv("POLYCUBE_THREADS", threads)
        code, _ = _run(["count", "--b", "2", "--k", "2", "--h", "2", "--engine", "oracle"])
        assert code == EX_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: POLYCUBE_THREADS") and err.count("\n") == 1

    @pytest.mark.parametrize("fault", [ArithmeticError, ValueError, IndexError])
    def test_internal_fault_has_its_own_exit_code(self, fault, monkeypatch, capsys):
        def broken(*args):
            raise fault("broken invariant")

        monkeypatch.setattr(polyprism.cli, "total_min", broken)
        code, _ = _run(["count", "--b", "2", "--k", "2", "--h", "2", "--engine", "series"])
        assert code == EX_INTERNAL
        err = capsys.readouterr().err
        assert "internal error" in err
        assert err.startswith("Traceback (most recent call last):")
        assert f"{fault.__name__}: broken invariant" in err


class TestColdStart:
    # Each CLI call is a fresh process: modules only some commands need load
    # where they are used, not on import.
    DEFERRED = ("concurrent.futures", "multiprocessing", "fractions", "decimal", "json", "traceback")

    def test_import_leaves_out_the_deferred_modules(self):
        src = Path(polyprism.cli.__file__).resolve().parent.parent
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import polyprism, polyprism.cli; "
            f"print([m for m in {self.DEFERRED!r} if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", probe, str(src)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert proc.stdout.strip() == "[]"
