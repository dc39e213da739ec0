from functools import partial

import pytest

from polyprism.core import CountOverflowError
from polyprism.formulas import (
    _exact,
    binom,
    binom_gen,
    diag_volume,
    p2d_corner,
    p2d_corner_rec,
    p2d_min,
    p2dx2d_volume,
    p3d_corner_closed,
    p3d_corner_rec,
    p3dmin_thickness2,
    p3dmin_thickness3,
    p3dmin_volume,
    sc_prism,
    sc_volume,
    trinom,
)
from polyprism.series import family_min, total_min


class TestBinomials:
    def test_binom_out_of_range_is_zero(self):
        assert binom(5, -1) == 0
        assert binom(-1, 0) == 0
        assert binom(3, 4) == 0
        assert binom(5, 2) == 10

    def test_trinom(self):
        assert trinom(1, 1, 1) == 6
        assert trinom(0, 0, 0) == 1
        assert trinom(-1, 0, 0) == 0

    def test_binom_gen_negative_upper_index(self):
        # falling-factorial convention: C(-2, 2) = (-2)(-3)/2 = 3
        assert binom_gen(-2, 2) == 3
        assert binom_gen(-1, 1) == -1
        assert binom_gen(4, 2) == 6
        assert binom_gen(3, -1) == 0


class TestTwoDimensional:
    @pytest.mark.parametrize("b", range(1, 9))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_corner_closed_matches_recurrence(self, b, k):
        assert p2d_corner(b, k) == p2d_corner_rec(b, k)

    def test_known_values(self):
        assert p2d_corner(1, 1) == 1
        assert p2d_corner(2, 2) == 3
        assert p2d_min(2, 2) == 4  # the four L-trominoes
        assert p2d_min(1, 5) == 1  # a rod is the only degenerate shape

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            p2d_min(0, 3)


class TestCornerCounts:
    def test_degenerate_slab_is_two_trinomials_minus_one(self):
        assert p3d_corner_rec(1, 1, 1) == 1
        assert p3d_corner_rec(1, 2, 2) == 2 * trinom(0, 1, 1) - 1

    @pytest.mark.parametrize("b", range(1, 11))
    @pytest.mark.parametrize("k", range(1, 11))
    @pytest.mark.parametrize("h", range(1, 11))
    def test_closed_form_matches_recurrence(self, b, k, h):
        assert p3d_corner_closed(b, k, h) == p3d_corner_rec(b, k, h)

    def test_symmetric_in_dimensions(self):
        assert (
            p3d_corner_rec(2, 3, 4)
            == p3d_corner_rec(4, 3, 2)
            == p3d_corner_rec(3, 2, 4)
        )


class TestSkewCrossPrism:
    def test_smallest_prism(self):
        assert sc_prism(3, 3, 3) == 64  # 48 type a + 16 type b

    def test_rejects_thin_prisms(self):
        with pytest.raises(ValueError):
            sc_prism(2, 3, 3)


class TestVolumeFormulas:
    def test_small_volumes(self):
        assert [p3dmin_volume(n) for n in range(1, 6)] == [1, 3, 15, 83, 450]
        assert sc_volume(6) == 0
        assert sc_volume(7) == 64  # the 3x3x3 skew crosses
        assert p2dx2d_volume(5) == 0
        assert p2dx2d_volume(6) == 6  # 2x3x3 in three orientations
        assert diag_volume(1) == 1

    @pytest.mark.parametrize("fn", [sc_volume, p2dx2d_volume, diag_volume, p3dmin_volume])
    def test_zero_remainder_up_to_30(self, fn):
        for n in range(1, 31):
            assert isinstance(fn(n), int)  # _exact raises on any non-integer

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            p3dmin_volume(0)

    @pytest.mark.parametrize(
        "fn, name",
        [(sc_volume, "SC"), (p2dx2d_volume, "P2Dx2D"), (diag_volume, "Diag"),
         (p3dmin_volume, None)],
    )
    def test_matches_the_series_to_volume_12(self, fn, name):
        # every prism of volume n <= 12 has sides <= 12, inside one 14^3 expansion
        if name is None:
            count = partial(total_min, bounds=(14, 14, 14))
        else:
            count = partial(family_min, name, bounds=(14, 14, 14))
        for n in range(1, 13):
            m = n + 2
            series = sum(
                count(b, k, m - b - k) for b in range(1, m - 1) for k in range(1, m - b)
            )
            assert fn(n) == series, n

    def test_exact_rejects_a_remainder(self):
        assert _exact(-45, 15) == -3
        with pytest.raises(ArithmeticError, match="not an integer: 7/15"):
            _exact(7, 15)


class TestThicknessFormulas:
    def test_small_values(self):
        assert p3dmin_thickness2(2, 2) == 32
        assert p3dmin_thickness3(3, 3) == 2401

    def test_rejects_thin_arguments(self):
        with pytest.raises(ValueError):
            p3dmin_thickness2(1, 4)
        with pytest.raises(ValueError):
            p3dmin_thickness3(4, 1)


class TestOverflowPropagation:
    def test_large_binomial_overflows(self):
        with pytest.raises(CountOverflowError):
            p2d_min(200, 200)
