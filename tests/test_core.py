import time

import pytest

from polyprism.core import (
    COUNT_LIMIT,
    Cell,
    CountOverflowError,
    Polycube,
    PrismDims,
    checked_count,
    format_polycube,
    is_inscribed,
    min_volume,
    parse_polycubes,
)


class TestCheckedCount:
    def test_passes_values_through(self):
        assert checked_count(0) == 0
        assert checked_count(-5) == -5
        assert checked_count(COUNT_LIMIT - 1) == COUNT_LIMIT - 1

    def test_rejects_overflow_both_signs(self):
        with pytest.raises(CountOverflowError):
            checked_count(COUNT_LIMIT)
        with pytest.raises(CountOverflowError):
            checked_count(-COUNT_LIMIT)

    def test_overflow_is_an_overflow_error(self):
        assert issubclass(CountOverflowError, OverflowError)


class TestCell:
    def test_ordering_is_lexicographic(self):
        assert Cell(0, 2, 2) < Cell(1, 0, 0) < Cell(1, 0, 1)

    def test_rejects_negative_coordinates(self):
        with pytest.raises(ValueError):
            Cell(0, -1, 0)

    def test_as_tuple(self):
        assert Cell(1, 2, 3).as_tuple() == (1, 2, 3)


class TestPrismDims:
    def test_volume_and_contains(self):
        d = PrismDims(2, 3, 4)
        assert d.volume() == 24
        assert d.contains(Cell(1, 2, 3))
        assert not d.contains(Cell(2, 0, 0))

    def test_rejects_non_positive_sides(self):
        with pytest.raises(ValueError):
            PrismDims(0, 1, 1)

    def test_min_volume(self):
        assert min_volume(PrismDims(1, 1, 1)) == 1
        assert min_volume(PrismDims(2, 3, 4)) == 7


class TestPolycube:
    def test_cells_sorted_and_deduplicated(self):
        p = Polycube(PrismDims(2, 1, 1), [Cell(1, 0, 0), Cell(0, 0, 0), Cell(1, 0, 0)])
        assert p.cells == (Cell(0, 0, 0), Cell(1, 0, 0))
        assert len(p) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Polycube(PrismDims(1, 1, 1), [])

    def test_rejects_cell_outside_prism(self):
        with pytest.raises(ValueError):
            Polycube(PrismDims(1, 1, 1), [Cell(1, 0, 0)])

    def test_rejects_disconnected_cells(self):
        with pytest.raises(ValueError):
            Polycube(PrismDims(3, 1, 1), [Cell(0, 0, 0), Cell(2, 0, 0)])

    def test_diagonal_touch_is_not_connected(self):
        with pytest.raises(ValueError):
            Polycube(PrismDims(2, 2, 1), [Cell(0, 0, 0), Cell(1, 1, 0)])

    def test_immutable_and_hashable(self):
        p = Polycube(PrismDims(1, 1, 1), [Cell(0, 0, 0)])
        q = Polycube(PrismDims(1, 1, 1), [Cell(0, 0, 0)])
        assert p == q and hash(p) == hash(q)
        with pytest.raises(AttributeError):
            p.cells = ()

    def test_membership(self):
        p = Polycube(PrismDims(2, 1, 1), [Cell(0, 0, 0), Cell(1, 0, 0)])
        assert Cell(1, 0, 0) in p
        assert Cell(1, 0, 0) in list(p)
        assert Cell(2, 0, 0) not in p and (1, 0, 0) not in p

    def test_size_of_the_prism_costs_nothing(self):
        # the cells are stored, not a mask over the 10**18 cells of the prism
        side = 10**6
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            p = Polycube(PrismDims(side, side, side), [Cell(side - 1, side - 1, side - 1)])
            best = min(best, time.perf_counter() - t0)
        assert Cell(side - 1, side - 1, side - 1) in p
        assert best < 0.01


def _rod(n):
    return Polycube(PrismDims(n, 1, 1), [Cell(i, 0, 0) for i in range(n)])


class TestPredicates:
    def test_is_inscribed(self):
        assert is_inscribed(_rod(3))
        partial = Polycube(PrismDims(3, 1, 1), [Cell(0, 0, 0), Cell(1, 0, 0)])
        assert not is_inscribed(partial)


class TestTextFormat:
    def test_roundtrip(self):
        p = Polycube(
            PrismDims(2, 2, 2), [Cell(0, 0, 0), Cell(1, 0, 0), Cell(1, 1, 0), Cell(1, 1, 1)]
        )
        text = format_polycube(p) + "\n\n" + format_polycube(_rod(2))
        assert parse_polycubes(text) == [p, _rod(2)]

    def test_golden_layout(self):
        assert format_polycube(_rod(2)) == "dims 2 1 1\n0 0 0\n1 0 0"

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_polycubes("size 1 1 1\n0 0 0")
        for line in ("0 0", "0 0 0 0"):  # a cell needs exactly three coordinates
            with pytest.raises(ValueError, match=line):
                parse_polycubes(f"dims 1 1 1\n{line}")
