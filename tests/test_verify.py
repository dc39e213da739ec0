import io
import json
import re
from collections import Counter

import pytest

import polyprism.oracle
import polyprism.verify
from polyprism.cli import run
from polyprism.core import FamilyTag, PrismDims
from polyprism.verify import (
    TABLE1,
    TABLE2,
    CheckResult,
    Erratum,
    VerificationReport,
    _pairs,
    crosscheck,
    reproduce_table1,
    reproduce_table2,
    series_volume_projection,
)


class TestReportMechanics:
    def _sample(self):
        report = VerificationReport()
        report.check("b/later", "x", "y", "in", 1, 1)
        report.check("a/first", "x", "y", "in", 2, 3)
        return report

    def test_failures_and_exit_codes(self):
        report = self._sample()
        assert [r.check_id for r in report.failures()] == ["a/first"]
        assert not report.passed
        assert report.exit_code() == 2
        clean = VerificationReport(runs=[CheckResult("c", "x", "y", "i", 7, 7)])
        assert clean.exit_code() == 0
        with_erratum = VerificationReport(
            runs=clean.runs,
            errata=[Erratum("somewhere", "oracle", 1, 2, "note")],
        )
        assert with_erratum.exit_code() == 1

    def test_finalize_sorts_by_check_id(self):
        report = self._sample().finalize()
        assert [r.check_id for r in report.runs] == ["a/first", "b/later"]

    def test_json_schema(self):
        report = self._sample().finalize()
        report.errata.append(Erratum("loc", "src", 5, 6, "why"))
        payload = json.loads(report.to_json())
        assert set(payload) == {"runs", "errata"}
        run = payload["runs"][0]
        assert set(run) == {
            "check_id",
            "engine_a",
            "engine_b",
            "input",
            "value_a",
            "value_b",
            "passed",
        }
        erratum = payload["errata"][0]
        assert set(erratum) == {
            "paper_location",
            "expected_source",
            "observed",
            "paper_value",
            "note",
        }

    def test_format_table_marks_status(self):
        text = self._sample().format_table()
        assert "PASS" in text and "FAIL" in text
        assert text.endswith("2 checks, 1 failures, 0 errata\n")


class TestTable1:
    def test_fixture_shape(self):
        assert set(TABLE1) == {"diag", "p2dx2d", "sca", "scb", "total"}
        assert all(len(row) == 8 for row in TABLE1.values())

    def test_degenerate_column(self):
        report = reproduce_table1(1)
        assert report.passed
        by_id = {r.check_id: r for r in report.runs}
        assert by_id["table1/diag/n=1/series"].value_a == 1
        assert by_id["table1/total/n=1/series"].value_a == 1
        assert by_id["table1/sca/n=1/series"].value_a == 0

    def test_small_cube_passes(self):
        report = reproduce_table1(2)
        assert report.passed
        totals = [r for r in report.runs if r.check_id == "table1/total/n=2/oracle"]
        assert totals and totals[0].value_a == 32

    def test_full_reproduction(self):
        report = reproduce_table1(8)
        assert report.passed
        by_id = {r.check_id: r for r in report.runs}
        assert by_id["table1/diag/n=8/series"].value_a == 27263453288
        assert by_id["table1/total/n=8/series"].value_a == 27521161352

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            reproduce_table1(9)


class TestTable2:
    def test_fixture(self):
        assert TABLE2 == (1, 3, 15, 83, 450, 2295, 10834, 47175, 190407, 719243)

    def test_full_reproduction(self):
        report = reproduce_table2(10)
        assert report.passed
        assert len(report.runs) == 20  # formula + series per volume

    def test_projection_matches_fixture(self):
        assert series_volume_projection(10) == list(TABLE2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            reproduce_table2(11)


class TestCrosscheck:
    def test_engine_subset_validation(self):
        with pytest.raises(ValueError):
            crosscheck(3, engines=("oracle", "psychic"))
        with pytest.raises(ValueError):
            crosscheck(1)

    def test_formulas_vs_series_to_ten(self):
        report = crosscheck(10, engines=("formulas", "series"))
        assert not report.failures()
        assert not report.errata  # the closed corner form matches the recurrence
        ids = {r.check_id for r in report.runs}
        assert "corner/closed-vs-recurrence/10x10x10" in ids
        assert "skewcross/formula-vs-series/3x3x3" in ids

    def test_small_all_engine_run_is_clean_and_deterministic(self):
        first = crosscheck(3)
        second = crosscheck(3)
        assert first.exit_code() == 0
        assert first.to_json() == second.to_json()

    def test_engine_subset_limits_checks(self):
        report = crosscheck(3, engines=("formulas",))
        assert all(
            r.engine_a == "formulas" and r.engine_b == "formulas" for r in report.runs
        )


# Checks per id prefix (the id up to its first case field) in
# `polyprism verify --max-dim 3` and `--max-dim 4`.
VERIFY_PREFIXES = {
    "corner/closed-vs-recurrence": (10, 20),
    "corner/oracle-vs-recurrence": (10, 20),
    "corner2d/closed-vs-recurrence": (6, 10),
    "family/diag/oracle-vs-series": (4, 10),
    "family/p2dx2d/oracle-vs-series": (4, 10),
    "family/sca/oracle-vs-series": (4, 10),
    "family/scb/oracle-vs-series": (4, 10),
    "skewcross/formula-vs-series": (1, 4),
    "table1/diag": (9, 11),
    "table1/p2dx2d": (9, 11),
    "table1/sca": (9, 11),
    "table1/scb": (9, 11),
    "table1/total": (10, 12),
    "table2/volume": (20, 20),
    "thickness2/oracle-vs-formula": (3, 6),
    "thickness2/weighted2d-vs-formula": (3, 6),
    "thickness3/oracle-vs-formula": (3, 6),
    "total/oracle-vs-series": (4, 10),
    "twodim/oracle-vs-formula": (6, 10),
    "volume/Diag/formula-vs-series": (8, 8),
    "volume/P2Dx2D/formula-vs-series": (8, 8),
    "volume/SC/formula-vs-series": (8, 8),
    "volume/total/formula-vs-series": (8, 8),
}


@pytest.fixture
def fresh_oracle_memos():
    memos = (
        polyprism.verify._oracle_total,
        polyprism.verify._oracle_split,
        polyprism.verify._split_prisms,
        polyprism.oracle._rectangle,
    )
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def _verify_prefixes(max_dim, tmp_path):
    path = tmp_path / "report.json"
    code = run(["verify", "--max-dim", str(max_dim), "--report", str(path)], out=io.StringIO())
    ids = [r["check_id"] for r in json.loads(path.read_text())["runs"]]
    return code, Counter(re.sub(r"/(\d|n=).*", "", i) for i in ids)


class TestCheckTable:
    def test_verify_three_runs_every_family(self, tmp_path):
        code, prefixes = _verify_prefixes(3, tmp_path)
        assert code == 0
        assert prefixes == {p: n for p, (n, _) in VERIFY_PREFIXES.items()}
        assert sum(prefixes.values()) == 160

    def test_verify_four_runs_every_family(self, tmp_path, monkeypatch, fresh_oracle_memos):
        # Stub the oracle: only the number of checks is under test here.
        for name in ("count_min_corner", "count_min_inscribed", "count_2d_min"):
            monkeypatch.setattr(polyprism.verify, name, lambda *args: 0)
        monkeypatch.setattr(polyprism.verify, "weighted_2d_count", lambda b, k: 0)
        monkeypatch.setattr(
            polyprism.verify, "count_by_family", lambda d: dict.fromkeys(FamilyTag, 0)
        )
        _, prefixes = _verify_prefixes(4, tmp_path)
        assert prefixes == {p: n for p, (_, n) in VERIFY_PREFIXES.items()}
        assert sum(prefixes.values()) == 240

    def test_each_prism_is_searched_once(self, monkeypatch, fresh_oracle_memos):
        prisms = []

        def recording(fn):
            def wrapped(d):
                prisms.append(d.as_tuple())
                return fn(d)

            return wrapped

        for name in ("count_by_family", "count_min_inscribed"):
            monkeypatch.setattr(polyprism.verify, name, recording(getattr(polyprism.verify, name)))
        assert crosscheck(3).passed and reproduce_table1(6).passed
        # the counts do not depend on the order of the sides: (3,2,2) is (2,2,3)
        prisms = [tuple(sorted(p)) for p in prisms]
        assert len(prisms) == len(set(prisms)) == 6

    def test_verify_four_searches_each_rectangle_once(self, monkeypatch, fresh_oracle_memos):
        searches = []
        search = polyprism.oracle._search

        def recording(b, k, h, roots=None, **kwargs):
            searches.append((b, k, h, roots))
            return search(b, k, h, roots=roots, **kwargs)

        monkeypatch.setattr(polyprism.oracle, "_search", recording)
        assert run(["verify", "--max-dim", "4"], out=io.StringIO()) == 0
        # one search gives a rectangle's count and weighted sum (59 searches
        # when each took its own): the 10 with sides <= 4, longest side first;
        # beside them, 20 corner counts and the family splits of 11 prisms,
        # one search per orbit root of each searched face
        rectangles = [s for s in searches if s[2] == 1 and s[3] is None]
        assert sorted(rectangles) == sorted((k, b, 1, None) for b, k in _pairs(1, 4))
        assert len(searches) == 53

    def test_table1_takes_a_classified_total_from_the_split(
        self, monkeypatch, fresh_oracle_memos
    ):
        # Stub the oracle: only which prisms are counted is under test here.
        counted = []

        def counting(d):
            counted.append(d.as_tuple())
            return 0

        monkeypatch.setattr(polyprism.verify, "count_min_inscribed", counting)
        monkeypatch.setattr(polyprism.verify, "count_min_corner", lambda d: 0)
        monkeypatch.setattr(polyprism.verify, "count_2d_min", lambda b, k: 0)
        monkeypatch.setattr(polyprism.verify, "weighted_2d_count", lambda b, k: 0)
        monkeypatch.setattr(
            polyprism.verify, "count_by_family", lambda d: dict.fromkeys(FamilyTag, 0)
        )
        crosscheck(4)
        reproduce_table1(8)
        assert (4, 4, 4) not in counted
        for memo in (
            polyprism.verify._oracle_total,
            polyprism.verify._oracle_split,
            polyprism.verify._split_prisms,
        ):
            memo.cache_clear()
        reproduce_table1(8)  # without crosscheck, 4 x 4 x 4 is counted
        assert counted.count((4, 4, 4)) == 1

    def test_oracle_sides_are_capped(self, monkeypatch, fresh_oracle_memos):
        highest = {}

        def recording(name):
            def stub(*args):
                sides = args[0].as_tuple() if isinstance(args[0], PrismDims) else args
                key = (name, sides[0]) if name == "count_min_inscribed" else name
                highest[key] = max(highest.get(key, 0), *sides)
                return 0

            return stub

        for name in ("count_min_corner", "count_min_inscribed", "count_2d_min",
                     "weighted_2d_count"):
            monkeypatch.setattr(polyprism.verify, name, recording(name))
        crosscheck(9, engines=("oracle", "formulas"))
        assert highest == {
            "count_min_corner": 4,
            ("count_min_inscribed", 2): 7,  # thickness 2
            ("count_min_inscribed", 3): 5,  # thickness 3
            "count_2d_min": 7,
            "weighted_2d_count": 7,
        }

    def test_closed_corner_mismatch_is_an_erratum(self, monkeypatch):
        closed = polyprism.verify.p3d_corner_closed
        monkeypatch.setattr(
            polyprism.verify,
            "p3d_corner_closed",
            lambda b, k, h: closed(b, k, h) + ((b, k, h) == (2, 3, 3)),
        )
        report = crosscheck(3, engines=("formulas",))
        assert report.exit_code() == 1
        assert [e.note for e in report.errata] == ["closed form disagrees at (2,3,3)"]
        assert "corner/closed-vs-recurrence/2x3x3" not in {r.check_id for r in report.runs}
