"""Property-based cross-checks: ring laws, symmetry, degeneration, integrality."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from polyprism.core import PrismDims
from polyprism.formulas import (
    diag_volume,
    p2d_min,
    p2dx2d_volume,
    p3dmin_volume,
    sc_volume,
)
from polyprism.oracle import count_min_inscribed
from polyprism.series import GF_VALIDITY, TruncatedSeries, expand, family_min, total_min

BOUNDS = (3, 3, 3)


def _series(draw_terms):
    return TruncatedSeries.from_terms(draw_terms, BOUNDS)


exponents = st.tuples(
    st.integers(0, BOUNDS[0]), st.integers(0, BOUNDS[1]), st.integers(0, BOUNDS[2])
)
coefficients = st.integers(-999, 999)
series = st.dictionaries(exponents, coefficients, max_size=12).map(_series)
unit_series = series.map(
    lambda s: s - TruncatedSeries.from_terms({(0, 0, 0): s.coeff(0, 0, 0) - 1}, BOUNDS)
)


class TestRingLaws:
    @settings(max_examples=100, deadline=None)
    @given(series, series, series)
    def test_ring_axioms(self, a, b, c):
        one = TruncatedSeries.one(BOUNDS)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a - a == TruncatedSeries(BOUNDS)

    @settings(max_examples=100, deadline=None)
    @given(series, unit_series)
    def test_division_inverts_multiplication(self, a, d):
        assert (a * d).div(d) == a
        assert a.div(d) * d == a


@st.composite
def long_prisms(draw):
    """A family and a prism whose longest side exceeds the sum of the others."""
    s1 = draw(st.integers(2, 7))
    s2 = draw(st.integers(s1, 7))
    sides = (s1, s2, draw(st.integers(s1 + s2 + 1, 60)))
    return draw(st.sampled_from(sorted(GF_VALIDITY))), tuple(draw(st.permutations(sides)))


class TestLongSide:
    @settings(max_examples=30, deadline=None)
    @given(long_prisms())
    def test_long_side_path_equals_the_whole_grid(self, case):
        name, dims = case
        assert family_min(name, *dims) == expand(name, dims).coeff(*dims)


class TestPermutationSymmetry:
    def test_series_totals_up_to_six(self):
        for b, k, h in itertools.combinations_with_replacement(range(1, 7), 3):
            reference = total_min(b, k, h)
            for perm in itertools.permutations((b, k, h)):
                assert total_min(*perm) == reference

    def test_oracle_totals_up_to_four(self):
        for b, k, h in itertools.combinations_with_replacement(range(1, 5), 3):
            reference = count_min_inscribed(PrismDims(b, k, h))
            for perm in itertools.permutations((b, k, h)):
                assert count_min_inscribed(PrismDims(*perm)) == reference


class TestDegenerateReduction:
    def test_flat_prisms_reduce_to_2d_counts(self):
        for b in range(1, 9):
            for k in range(1, 9):
                assert count_min_inscribed(PrismDims(b, k, 1)) == p2d_min(b, k)


class TestZeroRemainder:
    def test_rational_closed_forms_are_integral_to_30(self):
        # each formula divides exactly; the internal Fraction check raises
        # ArithmeticError on any non-zero remainder
        for n in range(1, 31):
            for fn in (sc_volume, p2dx2d_volume, diag_volume, p3dmin_volume):
                assert isinstance(fn(n), int)
