import itertools
from functools import partial

import pytest

import polyprism.series
from polyprism.core import CountOverflowError
from polyprism.formulas import p2d_min, p3dmin_thickness2, p3dmin_thickness3, sc_prism, trinom
from polyprism.series import (
    GF_VALIDITY,
    BoundsMismatchError,
    InsufficientBoundsError,
    NonUnitConstantTermError,
    TruncatedSeries,
    UnknownSeriesError,
    catalog_names,
    expand,
    family_min,
    to_csv,
    total_min,
)

B3 = (3, 3, 3)
CATALOG = ("Diag", "P2Dx2D", "Pc", "SC", "SCa", "SCb", "Stair", "Tripod")


class TestTruncatedSeries:
    def test_from_terms_drops_out_of_bounds(self):
        s = TruncatedSeries.from_terms({(0, 0, 0): 1, (9, 0, 0): 7}, (2, 2, 2))
        assert s.coeff(0, 0, 0) == 1
        assert dict(s.items()) == {(0, 0, 0): 1}

    def test_coeff_bounds_checked(self):
        s = TruncatedSeries.one(B3)
        with pytest.raises(IndexError):
            s.coeff(4, 0, 0)

    def test_add_sub_neg_scale(self):
        a = TruncatedSeries.from_terms({(1, 0, 0): 2}, B3)
        b = TruncatedSeries.from_terms({(1, 0, 0): 1, (0, 1, 0): 5}, B3)
        assert (a + b).coeff(1, 0, 0) == 3
        assert (a - b).coeff(0, 1, 0) == -5
        assert (-a).coeff(1, 0, 0) == -2
        assert a.scale(10).coeff(1, 0, 0) == 20

    def test_mul_is_truncated_convolution(self):
        x = TruncatedSeries.from_terms({(1, 0, 0): 1, (0, 0, 0): 1}, (2, 0, 0))
        sq = x * x
        assert [sq.coeff(i, 0, 0) for i in range(3)] == [1, 2, 1]

    def test_mul_with_negative_coefficients(self):
        a = TruncatedSeries.from_terms({(0, 0, 0): 1, (1, 0, 0): -1}, (3, 0, 0))
        geom = TruncatedSeries.one((3, 0, 0)).div(a)
        assert [geom.coeff(i, 0, 0) for i in range(4)] == [1, 1, 1, 1]
        assert a * geom == TruncatedSeries.one((3, 0, 0))

    def test_bounds_mismatch_rejected(self):
        with pytest.raises(BoundsMismatchError):
            TruncatedSeries.one(B3) + TruncatedSeries.one((2, 2, 2))

    def test_div_requires_unit_constant(self):
        with pytest.raises(NonUnitConstantTermError):
            TruncatedSeries.one(B3).div_terms({(0, 0, 0): 2})

    def test_div_roundtrip(self):
        d = TruncatedSeries.from_terms(
            {(0, 0, 0): 1, (1, 0, 0): -2, (0, 1, 1): 3}, B3
        )
        num = TruncatedSeries.from_terms({(1, 1, 1): 5, (2, 0, 0): -1}, B3)
        assert num.div(d) * d == num

    def test_crop(self):
        s = TruncatedSeries.from_terms({(1, 1, 1): 4}, B3)
        assert s.crop((1, 1, 1)).coeff(1, 1, 1) == 4
        with pytest.raises(InsufficientBoundsError):
            s.crop((4, 3, 3))

    def test_permute(self):
        s = TruncatedSeries.from_terms({(1, 2, 3): 7}, B3)
        assert s.permute((2, 0, 1)).coeff(3, 1, 2) == 7
        with pytest.raises(ValueError):
            s.permute((0, 0, 1))


class TestCatalog:
    def test_catalog_names_sorted_and_known(self):
        assert catalog_names() == list(CATALOG)

    def test_expansion_cache_is_bounded(self):
        assert expand.cache_info().maxsize is not None

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("bounds", [(2, 5, 7), (7, 3, 2), (4, 0, 6)])
    def test_rectangular_bounds_equal_the_cropped_cube(self, name, bounds):
        m = max(bounds)
        assert expand(name, bounds) == expand(name, (m, m, m)).crop(bounds)

    @pytest.mark.parametrize("name", CATALOG)
    def test_axis_permutation_commutes_with_expansion(self, name):
        bounds = (2, 5, 7)
        for perm in itertools.permutations(range(3)):
            permuted = tuple(bounds[t] for t in perm)
            assert expand(name, permuted) == expand(name, bounds).permute(perm)

    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownSeriesError):
            expand("NotAFunction", B3)

    def test_stair_coefficients_are_trinomials(self):
        stair = expand("Stair", (4, 4, 4))
        for b, k, h in ((1, 1, 1), (2, 2, 2), (2, 3, 4)):
            assert stair.coeff(b, k, h) == trinom(b - 1, k - 1, h - 1)

    def test_tripod_is_one_everywhere_above_two(self):
        tripod = expand("Tripod", B3)
        assert tripod.coeff(2, 2, 2) == 1
        assert tripod.coeff(3, 3, 3) == 1
        assert tripod.coeff(1, 2, 2) == 0

    def test_family_values_at_smallest_valid_prisms(self):
        assert expand("Diag", B3).coeff(2, 2, 2) == 32
        assert expand("P2Dx2D", B3).coeff(2, 3, 3) == 2
        assert expand("SC", B3).coeff(3, 3, 3) == 64
        assert expand("SCa", B3).coeff(3, 3, 3) == 48
        assert expand("SCb", B3).coeff(3, 3, 3) == 16

    def test_validity_floors_present(self):
        assert GF_VALIDITY == {
            "Diag": (2, 2, 2),
            "SC": (3, 3, 3),
            "SCa": (3, 3, 3),
            "SCb": (3, 3, 3),
            "P2Dx2D": (2, 3, 3),
        }

    @pytest.mark.parametrize("name", sorted(GF_VALIDITY))
    def test_raw_coefficients_are_zero_below_the_floors(self, name):
        # family_min reads the raw coefficient from the floor down: only
        # Diag's side-1 prisms need a correction.
        floor = GF_VALIDITY[name]
        grids = [(14, 14, 14), (1, 30, 30), (2, 30, 30)]
        grids += sorted(set(itertools.permutations((2, 2, 60))))
        for bounds in grids:
            for (b, k, h), v in expand(name, bounds).items():
                sides = sorted((b, k, h))
                below = any(s < f for s, f in zip(sides, floor))
                if below and not (name == "Diag" and sides[0] == 1):
                    pytest.fail(f"{name} has {v} at {(b, k, h)}, below {floor}")

    def test_sc_split_sums_to_sc(self):
        bounds = (6, 6, 6)
        sc = expand("SC", bounds)
        total = expand("SCa", bounds) + expand("SCb", bounds)
        for b in range(3, 7):
            for k in range(3, 7):
                for h in range(3, 7):
                    assert total.coeff(b, k, h) == sc.coeff(b, k, h)

    def test_corner_polycube_series_matches_recurrence(self):
        from polyprism.formulas import p3d_corner_rec

        pc = expand("Pc", (5, 5, 5))
        for b in range(1, 6):
            for k in range(1, 6):
                for h in range(1, 6):
                    assert pc.coeff(b, k, h) == p3d_corner_rec(b, k, h)


def _mono(*axes: int) -> tuple[int, int, int]:
    return (axes.count(0), axes.count(1), axes.count(2))


def _over(bounds, mono, *dens, coeff=1) -> TruncatedSeries:
    """coeff * mono / prod(1 - sum of the variables of d for d in dens), by division."""
    s = TruncatedSeries.from_terms({mono: coeff}, bounds)
    for axes in dens:
        s = s.div_terms({(0, 0, 0): 1, **{_mono(a): -1 for a in axes}})
    return s


def _times_mono(s: TruncatedSeries, mono) -> TruncatedSeries:
    return TruncatedSeries.from_terms(
        {tuple(a + m for a, m in zip(e, mono)): v for e, v in s.items()}, s.bounds
    )


def _papers_bracket(bounds) -> TruncatedSeries:
    """1 + (Tripod + Deg2 + 2Dhook)/xyz, term by term as the paper writes it."""
    bracket = TruncatedSeries.one(bounds) + _over(bounds, (1, 1, 1), (0,), (1,), (2,))
    for u in range(3):
        v, w = (t for t in range(3) if t != u)
        # Deg2/xyz = [2/(1-v-w) - 2/((1-v)(1-w))] * u/(1-u)
        bracket += _over(bounds, _mono(u), (u,), (v, w), coeff=2)
        bracket -= _over(bounds, _mono(u), (u,), (v,), (w,), coeff=2)
        bracket += _over(bounds, _mono(v, w), (v,), (w,))  # 2Dhook/xyz
    return bracket


def _papers_p2dx2d(bounds) -> TruncatedSeries:
    """2 * blue * yellow * SH summed over the plane pairs (uv, vw), one product each."""

    def corner_min2(u, v):  # 2D corners in the uv plane with extent >= 2 along v
        uv = _mono(u, v)
        corner = _over(bounds, uv, (u, v), coeff=2) - _over(bounds, uv, (u,), (v,))
        return corner - _over(bounds, uv, (u,))

    total = TruncatedSeries(bounds)
    for u, v, w in ((0, 1, 2), (1, 0, 2), (0, 2, 1)):
        blue = corner_min2(v, u).scale(2) - _over(bounds, _mono(u, u, v), (u,), (v,))
        yellow = corner_min2(v, w).scale(2) - _over(bounds, _mono(w, w, v), (v,), (w,))
        pair = _times_mono(blue * yellow, _mono(u, w))  # times SH = uw / ((1-u)(1-v)(1-w))
        for axis in (u, v, w):
            pair = pair.div_terms({(0, 0, 0): 1, _mono(axis): -1})
        total += pair.scale(2)
    return total


class TestRationalEntries:
    """P2Dx2D and Pc are expanded as closed rational functions; the paper's
    construction, products included, is the reference."""

    @pytest.mark.parametrize(
        "bounds",
        [(12, 12, 12), (1, 30, 30), (0, 4, 6), (3, 0, 0), (0, 0, 0)]
        + list(itertools.permutations((2, 5, 16))),
    )
    def test_equal_to_the_papers_construction_without_a_product(self, monkeypatch, bounds):
        products = []
        mul = TruncatedSeries.__mul__
        monkeypatch.setattr(
            TruncatedSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b)
        )
        p2dx2d, pc = expand.__wrapped__("P2Dx2D", bounds), expand.__wrapped__("Pc", bounds)
        assert products == []
        expand.__wrapped__("Diag", (3, 3, 3))
        assert products
        assert p2dx2d == _papers_p2dx2d(bounds)
        assert pc == expand("Stair", bounds) * _papers_bracket(bounds)


def _stub_expand(monkeypatch) -> list:
    """Replace ``series.expand`` by a zero grid; return the names it is asked for."""

    class Zero:
        def coeff(self, b, k, h):
            return 0

    expanded = []
    monkeypatch.setattr(
        polyprism.series, "expand", lambda name, bounds: expanded.append(name) or Zero()
    )
    return expanded


class TestTotals:
    def test_total_min_known_values(self):
        assert total_min(1, 1, 1) == 1
        from polyprism.formulas import p2d_min

        assert total_min(1, 4, 7) == p2d_min(4, 7)  # degenerate falls back to 2D
        assert total_min(2, 2, 2) == 32
        assert total_min(3, 3, 3) == 2401
        assert total_min(4, 4, 4) == 87056

    def test_total_min_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            total_min(0, 2, 2)

    def test_thin_prisms_match_the_thickness_formulas(self):
        assert total_min(2, 2, 300) == p3dmin_thickness2(2, 300)
        assert total_min(3, 5, 200) == p3dmin_thickness3(5, 200)
        assert total_min(2, 2, 10**6) == p3dmin_thickness2(2, 10**6)
        assert total_min(3, 4, 10**5) == p3dmin_thickness3(4, 10**5)
        assert total_min(2, 10**12, 2) == p3dmin_thickness2(2, 10**12)

    def test_family_min_on_degenerate_and_small_prisms(self):
        assert expand("Diag", (1, 1, 1)).coeff(1, 1, 1) == -2  # invalid raw term
        assert family_min("Diag", 1, 1, 1) == 1
        assert family_min("Diag", 3, 1, 5) == p2d_min(3, 5)
        assert family_min("P2Dx2D", 3, 1, 5) == 0
        assert family_min("P2Dx2D", 2, 2, 5) == 0
        assert family_min("SC", 2, 3, 3) == 0
        assert family_min("SCa", 3, 3, 3) == 48
        with pytest.raises(ValueError):
            family_min("Diag", 2, 0, 2)

    @pytest.mark.parametrize("name", ["Bogus", "Pc", "Stair", "Tripod"])
    @pytest.mark.parametrize("sides", [(1, 4, 4), (1, 2, 3), (2, 2, 2), (3, 3, 3), (0, 2, 2)])
    def test_family_min_rejects_a_name_outside_the_families(self, name, sides):
        with pytest.raises(UnknownSeriesError):
            family_min(name, *sides)

    def test_diag_bound_raises_before_any_expansion(self, monkeypatch):
        expanded = _stub_expand(monkeypatch)
        # four times the Stair count passes 2**127 from the 29-cube and 2 x 62 x 62
        for sides in (
            (29, 29, 29), (62, 2, 62), (2, 62, 62), (30, 30, 30), (2, 63, 63), (200, 200, 200)
        ):
            for count in (total_min, partial(family_min, "Diag")):
                with pytest.raises(CountOverflowError):
                    count(*sides)
        assert expanded == []
        for sides in ((28, 28, 28), (2, 61, 61)):  # just below the cap
            assert family_min("Diag", *sides) == 0
        assert expanded == ["Diag", "Diag"]

    def test_diag_is_at_least_four_times_the_stair(self):
        for b, k, h in itertools.combinations_with_replacement(range(2, 7), 3):
            assert family_min("Diag", b, k, h) >= 4 * trinom(b - 1, k - 1, h - 1)

    @pytest.mark.parametrize("name", ["P2Dx2D", "SC", "SCa", "SCb"])
    def test_other_families_take_no_bound(self, monkeypatch, name):
        expanded = _stub_expand(monkeypatch)
        assert family_min(name, 30, 30, 30) == 0
        assert expanded == [name]

    @pytest.mark.parametrize("dims", [(4, 5, 3000), (4, 3000, 5), (3000, 5, 4)])
    def test_long_side_expands_only_up_to_the_two_shorter_sides(self, monkeypatch, dims):
        bounds = []
        monkeypatch.setattr(
            polyprism.series, "expand", lambda name, b: bounds.append(b) or expand(name, b)
        )
        assert family_min("SC", *dims) == sc_prism(4, 5, 3000)
        assert bounds == [tuple(9 if n == 3000 else n for n in dims)]
        assert family_min("SC", 4, 5, 12, bounds=(5, 5, 12)) == sc_prism(4, 5, 12)
        assert bounds[1:] == [(5, 5, 12)]  # given bounds keep the grid path

    def test_long_side_overflow_is_checked(self):
        with pytest.raises(CountOverflowError):
            total_min(4, 5, 10**12)
        with pytest.raises(CountOverflowError):
            family_min("SC", 4, 5, 10**12)

    def test_cached_grid_cannot_be_changed(self):
        grid = expand("SC", B3)
        with pytest.raises(TypeError):
            grid._c[-1] += 935
        assert total_min(3, 3, 3) == 2401
        assert grid == grid.copy() and grid.copy() == grid  # tuple and list grids


class TestCsvExport:
    def test_golden_layout(self):
        s = TruncatedSeries.from_terms({(1, 0, 2): 5, (0, 0, 0): 1}, (1, 1, 2))
        assert to_csv(s) == "b,k,h,coefficient\n0,0,0,1\n1,0,2,5\n"
