"""Domain types and geometric predicates shared by all counting engines.

Coordinates are 0-based: a prism of size b*k*h occupies [0,b) x [0,k) x [0,h)
with b along x, k along y and h along z.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

# All counts are exact Python integers, but the contract caps magnitudes at
# 127 bits so results stay portable to fixed-width consumers.
COUNT_LIMIT = 1 << 127


class CountOverflowError(OverflowError):
    """A count or intermediate term exceeded the 127-bit magnitude cap."""


def checked_count(value: int) -> int:
    """Return ``value`` unchanged, or raise if it exceeds the 127-bit cap."""
    if not (-COUNT_LIMIT < value < COUNT_LIMIT):
        raise CountOverflowError(f"count magnitude {value} exceeds 2**127")
    return value


@dataclass(frozen=True, order=True)
class Cell:
    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        if self.x < 0 or self.y < 0 or self.z < 0:
            raise ValueError(f"cell coordinates must be non-negative: {self}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class PrismDims:
    b: int
    k: int
    h: int

    def __post_init__(self) -> None:
        if self.b < 1 or self.k < 1 or self.h < 1:
            raise ValueError(f"prism dimensions must be >= 1: {self}")

    def volume(self) -> int:
        return self.b * self.k * self.h

    def contains(self, c: Cell) -> bool:
        return 0 <= c.x < self.b and 0 <= c.y < self.k and 0 <= c.z < self.h

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.b, self.k, self.h)


_FACE_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


class Polycube:
    """A non-empty, 6-connected set of unit cells inside a prism.

    Cells are deduplicated and stored sorted by (x, y, z), with no mask over
    the prism; instances are immutable and hashable.
    """

    __slots__ = ("dims", "cells")

    def __init__(self, dims: PrismDims, cells: Iterable[Cell]):
        cellset = frozenset(cells)
        if not cellset:
            raise ValueError("polycube must contain at least one cell")
        for c in cellset:
            if not dims.contains(c):
                raise ValueError(f"cell {c} outside prism {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "cells", tuple(sorted(cellset)))
        if not self._connected():
            raise ValueError("polycube cells are not 6-connected")

    @classmethod
    def _trusted(cls, dims: PrismDims, cells: tuple[Cell, ...]) -> "Polycube":
        """A polycube from ``cells`` that the caller has checked: non-empty,
        sorted, without duplicates, inside ``dims`` and 6-connected."""
        p = object.__new__(cls)
        object.__setattr__(p, "dims", dims)
        object.__setattr__(p, "cells", cells)
        return p

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Polycube is immutable")

    def _connected(self) -> bool:
        coords = {c.as_tuple() for c in self.cells}
        start = next(iter(coords))
        todo = [start]
        seen = {start}
        while todo:
            x, y, z = todo.pop()
            for dx, dy, dz in _FACE_STEPS:
                n = (x + dx, y + dy, z + dz)
                if n in coords and n not in seen:
                    seen.add(n)
                    todo.append(n)
        return len(seen) == len(coords)

    def __contains__(self, c: Cell) -> bool:
        if not isinstance(c, Cell):
            return False
        i = bisect_left(self.cells, c)
        return i < len(self.cells) and self.cells[i] == c

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polycube)
            and self.dims == other.dims
            and self.cells == other.cells
        )

    def __hash__(self) -> int:
        return hash((self.dims, self.cells))

    def __repr__(self) -> str:
        return f"Polycube({self.dims}, {len(self.cells)} cells)"


class FamilyTag(enum.Enum):
    DIAGONAL = "Diagonal"
    TWO_D_X_TWO_D = "TwoDxTwoD"
    SKEW_CROSS_A = "SkewCrossA"
    SKEW_CROSS_B = "SkewCrossB"


def min_volume(d: PrismDims) -> int:
    """Least cell count of any polycube inscribed in ``d``: b + k + h - 2."""
    return d.b + d.k + d.h - 2


def is_inscribed(p: Polycube) -> bool:
    """True iff ``p`` touches all six faces of its prism."""
    b, k, h = p.dims.as_tuple()
    lo = [False, False, False]
    hi = [False, False, False]
    for c in p.cells:
        t = c.as_tuple()
        for a, extent in enumerate((b, k, h)):
            if t[a] == 0:
                lo[a] = True
            if t[a] == extent - 1:
                hi[a] = True
    return all(lo) and all(hi)


def format_polycube(p: Polycube) -> str:
    """Render in the line-oriented text format used by the CLI."""
    lines = [f"dims {p.dims.b} {p.dims.k} {p.dims.h}"]
    lines += [f"{c.x} {c.y} {c.z}" for c in p.cells]
    return "\n".join(lines)


def parse_polycubes(text: str) -> list[Polycube]:
    """Parse blank-line-separated polycubes in the CLI text format."""
    out = []
    for block in text.split("\n\n"):
        lines = [ln for ln in block.strip().splitlines() if ln.strip()]
        if not lines:
            continue
        head = lines[0].split()
        if head[0] != "dims" or len(head) != 4:
            raise ValueError(f"bad header line: {lines[0]!r}")
        dims = PrismDims(*(int(v) for v in head[1:]))
        for ln in lines[1:]:
            if len(ln.split()) != 3:
                raise ValueError(f"bad cell line: {ln!r}")
        cells = [Cell(*(int(v) for v in ln.split())) for ln in lines[1:]]
        out.append(Polycube(dims, cells))
    return out
