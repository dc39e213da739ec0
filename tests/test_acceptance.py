"""Acceptance gate: exact-integer criteria binding all four engines together.

Every assertion is exact equality; there are no tolerances. Reference
constants are the embedded fixtures in ``polyprism.verify``.
"""

import io
import itertools
import os
import random
import time

import pytest

from polyprism.cli import run
from polyprism.core import FamilyTag, PrismDims
from polyprism.formulas import (
    diag_volume,
    p2d_min,
    p2dx2d_volume,
    p3d_corner_closed,
    p3d_corner_rec,
    p3dmin_thickness2,
    p3dmin_volume,
    sc_volume,
)
from polyprism.oracle import (
    count_by_family,
    count_min_corner,
    count_min_inscribed,
    weighted_2d_count,
)
from polyprism.series import GF_VALIDITY, TruncatedSeries, expand, total_min
from polyprism.verify import (
    TABLE1,
    TABLE2,
    crosscheck,
    reproduce_table1,
    series_volume_projection,
)


class TestCriterion1Table1:
    """All five reference rows for n = 1..8 via series and formulas."""

    def test_series_rows_at_bounds_14(self):
        start = time.monotonic()
        bounds = (14, 14, 14)
        rows = {
            "diag": expand("Diag", bounds),
            "p2dx2d": expand("P2Dx2D", bounds),
            "sca": expand("SCa", bounds),
            "scb": expand("SCb", bounds),
        }
        names = {"diag": "Diag", "p2dx2d": "P2Dx2D", "sca": "SCa", "scb": "SCb"}
        for n in range(1, 9):
            for row, series in rows.items():
                if tuple(sorted((n, n, n))) >= GF_VALIDITY[names[row]]:
                    value = series.coeff(n, n, n)
                else:
                    value = 1 if row == "diag" and n == 1 else 0
                assert value == TABLE1[row][n - 1], (row, n)
            assert total_min(n, n, n, bounds) == TABLE1["total"][n - 1]
        assert time.monotonic() - start < 10.0

    def test_harness_reproduction_passes(self):
        report = reproduce_table1(8)
        assert report.passed, [r.check_id for r in report.failures()]


class TestCriterion2Table2:
    def test_volume_counts_both_engines(self):
        start = time.monotonic()
        expected = (1, 3, 15, 83, 450, 2295, 10834, 47175, 190407, 719243)
        assert TABLE2 == expected
        assert tuple(p3dmin_volume(n) for n in range(1, 11)) == expected
        assert tuple(series_volume_projection(10)) == expected
        assert time.monotonic() - start < 1.0


class TestCriterion3Oracle:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 32), (3, 2401)])
    def test_small_cubes(self, n, expected):
        assert count_min_inscribed(PrismDims(n, n, n)) == expected

    def test_cube_four(self):
        assert count_min_inscribed(PrismDims(4, 4, 4)) == 87056

    def test_cube_five(self):
        assert count_min_inscribed(PrismDims(5, 5, 5)) == 2256145 == total_min(5, 5, 5)

    @pytest.mark.skipif(
        os.environ.get("POLYPRISM_SLOW") != "1", reason="opt-in slow set: set POLYPRISM_SLOW=1"
    )
    def test_cube_six_by_brute_force(self):
        """Table 1's n = 6 total, 52 177 880, by the oracle alone: about 22 s
        on one process of a 2-core x86 machine, less over ``POLYCUBE_THREADS``
        workers.

        It proves by enumeration that the 6 x 6 x 6 cube holds exactly that
        many minimal inscribed polycubes, confirming the paper's entry and the
        series coefficient that tier-1 compares with it. It does not check the
        family split at n = 6, nor any other size.
        """
        out = io.StringIO()
        assert run(["count", "--b", "6", "--k", "6", "--h", "6", "--engine", "oracle"], out=out) == 0
        assert out.getvalue().strip() == str(TABLE1["total"][5]) == "52177880"


class TestCriterion4Partition:
    def test_per_family_counts_match_series(self):
        bounds = (4, 4, 4)
        names = {
            FamilyTag.DIAGONAL: "Diag",
            FamilyTag.TWO_D_X_TWO_D: "P2Dx2D",
            FamilyTag.SKEW_CROSS_A: "SCa",
            FamilyTag.SKEW_CROSS_B: "SCb",
        }
        for b, k, h in itertools.combinations_with_replacement(range(2, 5), 3):
            counts = count_by_family(PrismDims(b, k, h))
            # the classifier tags each polycube exactly once
            assert sum(counts.values()) == count_min_inscribed(PrismDims(b, k, h))
            for tag, name in names.items():
                if tuple(sorted((b, k, h))) >= GF_VALIDITY[name]:
                    expected = expand(name, bounds).coeff(b, k, h)
                else:
                    expected = 0
                assert counts[tag] == expected, (b, k, h, tag)

    def test_cube_columns(self):
        assert tuple(count_by_family(PrismDims(3, 3, 3)).values()) == (2271, 66, 48, 16)
        four = count_by_family(PrismDims(4, 4, 4))
        assert tuple(four.values()) == (79936, 2256, 3456, 1408)


class TestCriterion5ThicknessTwo:
    def test_three_engines_agree(self):
        start = time.monotonic()
        for b in range(2, 7):
            for k in range(2, 7):
                formula = p3dmin_thickness2(b, k)
                assert weighted_2d_count(b, k) == formula
                assert count_min_inscribed(PrismDims(2, b, k)) == formula
        assert time.monotonic() - start < 60.0


class TestCriterion6CornerCounts:
    def test_recurrence_matches_oracle(self):
        for b, k, h in itertools.combinations_with_replacement(range(1, 5), 3):
            assert count_min_corner(PrismDims(b, k, h)) == p3d_corner_rec(b, k, h)

    def test_closed_form_matches_recurrence_or_is_ledgered(self):
        report = crosscheck(10, engines=("formulas",))
        assert not report.failures()
        mismatches = {
            (b, k, h)
            for b, k, h in itertools.combinations_with_replacement(range(1, 11), 3)
            if p3d_corner_closed(b, k, h) != p3d_corner_rec(b, k, h)
        }
        ledgered = len(report.errata)
        assert len(mismatches) == ledgered  # every mismatch appears as an erratum
        assert ledgered == 0  # and with the generalized binomial there are none


class TestCriterion7Properties:
    def test_ring_laws_randomized(self):
        rng = random.Random(20260823)
        bounds = (3, 3, 3)
        one = TruncatedSeries.one(bounds)

        def random_series():
            terms = {
                (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)): rng.randint(
                    -99, 99
                )
                for _ in range(rng.randint(0, 10))
            }
            return TruncatedSeries.from_terms(terms, bounds)

        for _ in range(100):
            a, b, c = random_series(), random_series(), random_series()
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * one == a

    def test_permutation_symmetry(self):
        for b, k, h in itertools.combinations_with_replacement(range(1, 7), 3):
            for perm in itertools.permutations((b, k, h)):
                assert total_min(*perm) == total_min(b, k, h)
        for b, k, h in itertools.combinations_with_replacement(range(1, 5), 3):
            reference = count_min_inscribed(PrismDims(b, k, h))
            for perm in itertools.permutations((b, k, h)):
                assert count_min_inscribed(PrismDims(*perm)) == reference

    def test_degenerate_reduction(self):
        for b in range(1, 9):
            for k in range(1, 9):
                assert count_min_inscribed(PrismDims(b, k, 1)) == p2d_min(b, k)

    def test_zero_remainder_to_30(self):
        for n in range(1, 31):
            for fn in (sc_volume, p2dx2d_volume, diag_volume, p3dmin_volume):
                assert isinstance(fn(n), int)
