"""Property-based cross-checks: ring laws, the product against the naive
convolution, symmetry, degeneration, integrality."""

import itertools
import operator

import pytest
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


def _naive_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The truncated convolution by its definition: the reference for ``*``."""
    terms: dict = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = tuple(p + q for p, q in zip(e1, e2))
            if all(n <= m for n, m in zip(e, a.bounds)):
                terms[e] = terms.get(e, 0) + v1 * v2
    return TruncatedSeries.from_terms(terms, a.bounds)


# small coefficients keep one-byte slots; large ones cross byte boundaries
magnitudes = st.one_of(st.integers(1, 3), st.integers(1, 2**126))
signed_coefficients = st.one_of(magnitudes, magnitudes.map(operator.neg))


def _grids(bounds: tuple[int, int, int], values) -> st.SearchStrategy:
    exps = st.tuples(*(st.integers(0, n) for n in bounds))
    size = (bounds[0] + 1) * (bounds[1] + 1) * (bounds[2] + 1)
    return st.dictionaries(exps, values, max_size=size).map(
        lambda terms: TruncatedSeries.from_terms(terms, bounds)
    )


class TestProduct:
    @pytest.mark.parametrize("kind", ["mixed", "negative", "square", "zero"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_product_equals_the_naive_convolution(self, kind, data):
        bounds = data.draw(st.tuples(*[st.integers(0, 4)] * 3))
        values = magnitudes.map(operator.neg) if kind == "negative" else signed_coefficients
        a = data.draw(_grids(bounds, values))
        if kind == "square":
            b = a
        elif kind == "zero":
            b = TruncatedSeries(bounds)
        else:
            b = data.draw(_grids(bounds, values))
        assert a * b == _naive_product(a, b)
        assert b * a == _naive_product(b, a)


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
