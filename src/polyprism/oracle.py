"""Ground-truth brute-force enumeration of inscribed minimal polycubes.

A shape is one ``int`` bitmask over the cells of the box: cell (x, y, z) of
a b x k x h prism is bit ``(x*k + y)*h + z``, so bit order is lexicographic
cell order. The search, the classifier and the per-cell tables use such masks.

The enumerator is a canonical-growth search (Redelmeier, "Counting
polyominoes: yet another attack", 1981): from a root it generates every
connected set holding the root exactly once, by extending a frontier of
untried neighbours; a tried candidate is never revisited. Every minimal
inscribed shape S meets the x = 0 face F, whose cells are the roots. Under
the least-cell rule (listing, the rectangles, the corner count) a root
forbids the cells below it, so S is found once, from its least cell. The
orbit rule (the total, the family split) forbids no cell and takes one root
c per orbit of F under the reflections fixing F (y -> k-1-y, z -> h-1-z,
y <-> z if k = h). They keep |S & F| and the geometric family tags, and map
the shapes through c onto those through its image, so W(c) = sum of
1/|S & F| over S holding c, in all or in one family, is constant on an
orbit, and the count, the sum of W over F, is the sum of |orbit| * W(c)
over the roots. S has b-1 cells off F, so each S adds the integer L/|S & F|
with L = lcm(1..k+h-1), and every tally is a multiple of L. The counters
put the longest side along x, which makes the root face the smallest.

Pruning uses the face deficit, the number of unit steps by which the
bounding box falls short of the six faces. A cell joined to the set lies at
most one step outside its bounding box, so one addition lowers the deficit
by at most one. A root's deficit, b + k + h - 3, equals the number of cells
a minimal shape still needs, so each addition must lower it by one: the
frontier drops the cells inside the current box, and every shape the
search completes is inscribed, from any root under either rule.

The search also enters a node only if, on every side whose face its box
has not reached, its frontier holds a cell on that side's box plane or past
it. The box is tracked by five extents; x_min is always 0, since every root
is on F. Proof: a completion must reach that face, so it adds a cell on the
plane or past it; take the first, c. Say c joins the set next to a cell d
added after the node. Then d lies short of the plane, so it is c's
neighbour one step inward, with c's other two coordinates. The box already
reaches the plane and now holds d, so it holds c, which zero slack forbids.
So c neighbours a cell of the node: it is already seen, and a seen cell is
only ever added from the current frontier. The test cuts only subtrees that
hold no shape, so every caller gets the same masks in the same order.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, NamedTuple

from .core import (
    Cell,
    FamilyTag,
    Polycube,
    PrismDims,
    checked_count,
    is_inscribed,
    min_volume,
)


class _Box(NamedTuple):
    """Per-cell tables of one prism, indexed by cell index."""

    cells: tuple[Cell, ...]  # shared by every Polycube built from a mask
    nbr: list[int]  # face neighbours
    coords: list[tuple[int, int, int]]  # (x, y, z)
    plane: tuple[list[int], list[int], list[int]]  # per axis: plane through the cell
    upto: list[list[int]]  # per axis: coordinate t -> the cells at or below t
    down: list[list[int]]  # per axis: coordinate t -> the cells at or above t
    steps: tuple[int, ...]  # h, k*h and the targets of the +y, -y, +z, -z shifts
    orients: tuple[tuple[list[int], list[int]], ...]  # per diagonal: cell -> low, high
    comparable: list[int]  # per diagonal o, in bits o*n..o*n+n-1: low | high
    copies: int  # a mask times this is four copies of it, one per diagonal


@lru_cache(maxsize=32)
def _box(b: int, k: int, h: int) -> _Box:
    coords = [(x, y, z) for x in range(b) for y in range(k) for z in range(h)]
    sizes = (b, k, h)
    planes = [[0] * n for n in sizes]  # axis -> coordinate -> plane mask
    nbr = []
    for i, c in enumerate(coords):
        for a in range(3):
            planes[a][c[a]] |= 1 << i
        m = 0
        for a, step in enumerate((k * h, h, 1)):
            if c[a] > 0:
                m |= 1 << (i - step)
            if c[a] < sizes[a] - 1:
                m |= 1 << (i + step)
        nbr.append(m)
    # per axis: coordinate t -> planes 0..t, and planes t..n-1
    upto = [[sum(p[: t + 1]) for t in range(len(p))] for p in planes]
    down = [[sum(p[t:]) for t in range(len(p))] for p in planes]
    py, pz = planes[1:]
    orients = []
    for flip_y in (False, True):
        for flip_z in (False, True):
            ylo, yhi = (down[1], upto[1]) if flip_y else (upto[1], down[1])
            zlo, zhi = (down[2], upto[2]) if flip_z else (upto[2], down[2])
            # the sub-boxes between the near corner and the cell, and the cell and the far corner
            low = [upto[0][x] & ylo[y] & zlo[z] for x, y, z in coords]
            high = [down[0][x] & yhi[y] & zhi[z] for x, y, z in coords]
            orients.append((low, high))
    n = len(coords)
    full = (1 << n) - 1
    return _Box(
        cells=tuple(Cell(*c) for c in coords),
        coords=coords,
        nbr=nbr,
        plane=tuple([p[c[a]] for c in coords] for a, p in enumerate(planes)),
        upto=upto,
        down=down,
        steps=(h, k * h, full ^ py[0], full ^ py[-1], full ^ pz[0], full ^ pz[-1]),
        orients=tuple(orients),
        comparable=[
            sum((lo[i] | hi[i]) << j * n for j, (lo, hi) in enumerate(orients)) for i in range(n)
        ],
        copies=sum(1 << j * n for j in range(len(orients))),
    )


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _search(
    b: int,
    k: int,
    h: int,
    roots: range | list[int] | None = None,
    visit: Callable[[int], None] | None = None,
    sizes: tuple[int, ...] | None = None,
) -> int:
    """Minimal inscribed shapes grown from ``roots`` (default: the x = 0
    face); ``visit``, if given, gets each shape's mask. Without ``sizes``, the
    least-cell rule: the number of shapes whose least cell is in ``roots``.
    With their orbit ``sizes``, no root forbids a cell: the orbit rule's weighted total."""
    box = _box(b, k, h)
    nbr, coords = box.nbr, box.coords
    (le_x, le_y, le_z), (_, ge_y, ge_z) = box.upto, box.down
    face, full = le_x[0], le_x[-1]
    # per side, extent -> the cells on its box plane or past it; every cell once at the face
    reach_x, reach_y1, reach_z1 = (ge[:-1] + [full] for ge in box.down)
    reach_y0, reach_z0 = ([full] + le[1:] for le in (le_y, le_z))
    if roots is None:
        roots = range(k * h)
    lcm = math.lcm(*range(1, k + h))
    weight = [0, *(lcm // f if sizes else 1 for f in range(1, k + h + 1))]  # by |S & F|
    step = [w1 - w0 for w0, w1 in zip(weight, weight[1:])]  # by |S & F|, for one more cell on F

    def tight(shape, ext, seen, x1, y0, y1, z0, z1, f, rem) -> int:
        """Completions of ``shape`` by ``rem`` >= 2 cells from the frontier
        ``ext``, at zero slack: every cell added leaves the bounding box
        [0, x1] x [y0, y1] x [z0, z1] (the root's cell, while ``shape`` is
        empty). ``f`` is ``|shape & F|``. A node is entered only if it passes
        the reach test of the module docstring."""
        count = 0
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            new = nbr[v] & ~seen
            x, y, z = coords[v]
            cx1 = x if x > x1 else x1  # the box with v, which is one step out on one side
            cy0 = y if y < y0 else y0
            cy1 = y if y > y1 else y1
            cz0 = z if z < z0 else z0
            cz1 = z if z > z1 else z1
            nxt = (ext | new) & ~(le_x[cx1] & ge_y[cy0] & le_y[cy1] & ge_z[cz0] & le_z[cz1])
            g = f + (not x)
            if rem == 2:
                if visit is not None:
                    grown, rest = shape | low, nxt
                    while rest:
                        last = rest & -rest
                        rest ^= last
                        visit(grown | last)
                count += weight[g] * nxt.bit_count() + step[g] * (nxt & face).bit_count()
            elif nxt & reach_x[cx1] and nxt & reach_y0[cy0] and nxt & reach_y1[cy1] and (
                nxt & reach_z0[cz0] and nxt & reach_z1[cz1]
            ):
                count += tight(shape | low, nxt, seen | new, cx1, cy0, cy1, cz0, cz1, g, rem - 1)
        return count

    count = 0
    rem = b + k + h - 3  # cells to add to the root
    try:
        for root, size in zip(roots, sizes or [1] * len(roots)):
            bit = 1 << root
            below = bit if sizes else (bit << 1) - 1  # the cells the root forbids, and itself
            x, y, z = coords[root]
            if rem:  # from the empty shape, whose one frontier cell is the root
                count += size * tight(0, bit, below, x, y, y, z, z, 0, rem + 1)
            else:  # a 1 x 1 x 1 prism: the root is the shape
                if visit is not None:
                    visit(bit)
                count += size * weight[1]
    finally:
        del tight  # it refers to itself, and so to ``visit``
    return count


class ThreadsSettingError(ValueError):
    """``POLYCUBE_THREADS`` is set to something other than a positive integer."""


def _threads() -> int:
    raw = os.environ.get("POLYCUBE_THREADS", "")
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ThreadsSettingError(f"POLYCUBE_THREADS must be a positive integer, got {raw!r}")
    return value


def _orbits(k: int, h: int) -> list[tuple[int, int]]:
    """The orbits of the k x h face under y -> k-1-y, z -> h-1-z, and y <-> z
    when k = h: (least cell, size) each, by least cell. A cell's orbit has
    its least cell at y and z folded into their lower halves, in order if k = h."""
    sizes: Counter = Counter()
    for y, z in product(range(k), range(h)):
        u, v = min(y, k - 1 - y), min(z, h - 1 - z)
        sizes[min(u, v) * h + max(u, v) if k == h else u * h + v] += 1
    return sorted(sizes.items())


def _count_orbit_chunk(args) -> int:
    b, k, h, lo, hi = args
    roots, sizes = zip(*_orbits(k, h)[lo:hi])
    return _search(b, k, h, roots=list(roots), sizes=sizes)


def _over_roots(work: Callable[[tuple], object], d: PrismDims) -> list:
    """``work`` on chunks ``(b, k, h, lo, hi)``, entries lo..hi-1 of ``_orbits(k, h)``, of
    ``d`` with its sides in descending order; once the x = 0 face has more than 8 cells,
    in ``POLYCUBE_THREADS`` worker processes, but no more than there are chunks."""
    b, k, h = sorted(d.as_tuple(), reverse=True)
    workers, n_roots = _threads(), len(_orbits(k, h))
    if workers > 1 and k * h > 8:
        from concurrent.futures import ProcessPoolExecutor  # loaded on first parallel use

        step = max(1, n_roots // (4 * workers))
        chunks = [(b, k, h, lo, min(lo + step, n_roots)) for lo in range(0, n_roots, step)]
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            return list(pool.map(work, chunks))
    return [work((b, k, h, 0, n_roots))]


def _unweigh(tally: int, d: PrismDims, what: str) -> int:
    """An orbit-weighted tally of ``d`` divided by L; a remainder is a fault."""
    _, k, h = sorted(d.as_tuple(), reverse=True)
    count, rest = divmod(tally, lcm := math.lcm(*range(1, k + h)))
    if rest:
        raise RuntimeError(f"orbit-weighted {what} of {d} leaves {rest} over a multiple of {lcm}")
    return checked_count(count)


def count_min_inscribed(d: PrismDims) -> int:
    """Minimal-volume inscribed polycubes in the prism, by brute force, longest
    side first, under the orbit rule, over the chunks of ``_over_roots``."""
    return _unweigh(sum(_over_roots(_count_orbit_chunk, d)), d, "count")


def count_min_corner(d: PrismDims) -> int:
    """Minimal inscribed polycubes containing a corner of the box.

    The count is the same for all eight corners, since a reflection of the
    box maps the shapes through one corner onto those through another. The
    search counts corner (0, 0, 0): as a least-cell root, cell 0 forbids no
    cell, so the shapes rooted there are exactly those holding it.
    """
    return checked_count(_search(*d.as_tuple(), roots=[0]))


@lru_cache(maxsize=64)
def _rectangle(b: int, k: int) -> tuple[int, int]:
    """Minimal inscribed polyominoes of the b x k rectangle, and their sum of
    2^deg(x) over cells x, from one search; ``verify`` asks for both."""
    PrismDims(b, k, 1)  # a side < 1 raises ValueError
    b, k = sorted((b, k), reverse=True)  # longest side first: transposing keeps degrees
    nbr = _box(b, k, 1).nbr
    weighted = 0

    def visit(shape: int) -> None:
        nonlocal weighted
        for c in _bits(shape):
            weighted += 1 << (nbr[c] & shape).bit_count()

    return checked_count(_search(b, k, 1, visit=visit)), checked_count(weighted)


def count_2d_min(b: int, k: int) -> int:
    """Minimal inscribed 2D polyominoes in a b x k rectangle, by brute force."""
    return _rectangle(b, k)[0]


def weighted_2d_count(b: int, k: int) -> int:
    """Sum over minimal inscribed 2D polyominoes of sum_x 2^deg(x).

    Counts minimal polycubes of the 2 x b x k prism through the rooted-cell
    bijection; the 1 x 1 degenerate case yields 1 (single cell, degree 0),
    consistent with the unique minimal polycube of the 2 x 1 x 1 prism.
    """
    return _rectangle(b, k)[1]


def _flood(seed: int, within: int, box: _Box) -> int:
    """Cells of ``within`` face-connected to ``seed``, one layer per pass."""
    h, kh, up_y, down_y, up_z, down_z = box.steps
    reach = seed
    while True:
        grown = within & (
            reach
            | reach << kh
            | reach >> kh
            | (reach << h) & up_y
            | (reach >> h) & down_y
            | (reach << 1) & up_z
            | (reach >> 1) & down_z
        )
        if grown == reach:
            return reach
        reach = grown


def _is_diagonal(shape: int, box: _Box) -> bool:
    """Hook-stair-hook decomposition test along one of the four diagonals.

    A diagonal shape splits, for some orientation and cut cells u <= v, into
    a corner polycube filling the sub-box below u, a monotone stair from u
    to v, and a corner polycube filling the sub-box above v. Corner
    polycubes of a sub-box are exactly its minimal inscribed polycubes that
    contain the sub-box corner. Every stair cell is a cut cell with a
    one-cell stair, so it suffices to find one cell u such that every cell
    of the shape lies below or above it, that is, is comparable with it.

    The part below u and the part above u then share only u, and no cell of
    one touches a cell of the other, so both are connected because the
    shape is. The part below u meets every near face: the inscribed shape
    has a cell c on it, and if c lies above u, so that u lies between the
    face and c, then u is on the face too. So does the part above u meet
    every far face. The two parts are thus inscribed in the sub-boxes on
    either side of u, whose minimal volumes add up to the shape's volume
    plus one. That is the number of cells the two parts hold together, so
    both are minimal: corner polycubes.

    Comparability is symmetric: c is comparable with u iff u is with c. So
    the cells u sought are the shape's cells in the AND of ``comparable[c]``
    over the shape's cells c, four diagonals side by side.
    """
    common = shape * box.copies
    for c in _bits(shape):
        common &= box.comparable[c]
        if not common:
            return False
    return True


def _corner_plane_normal(piece: int, c: int, box: _Box) -> int | None:
    """Normal axis if ``piece`` lies in a plane through cell ``c`` and on one
    side of ``c`` along each axis, so that ``c`` is a corner of its bounding
    rectangle; None otherwise. A straight rod lies in two planes and gets
    the first normal."""
    if not any(
        not piece & ~octant for low, high in box.orients for octant in (low[c], high[c])
    ):
        return None
    return next((a for a in range(3) if not piece & ~box.plane[a][c]), None)


def _skew_kind(shape: int, box: _Box) -> FamilyTag | None:
    """Skew-cross test: a central cell of degree three that is the corner
    cell of three mutually perpendicular 2D corner-polyominoes.

    Type a has two contact faces on the same axis (paired arms); type b has
    its three contact faces meeting around a vertex (all axes distinct).

    Each arm with the centre is connected, so it holds at least one cell
    more than the sum of its rectangle's two side extents. The prism's
    extents add up to at most the sum of those of the three rectangles, and
    the shape holds one cell more than the prism's extents while the three
    pieces share only the centre. So each piece is minimal in its rectangle:
    a corner polyomino.
    """
    plane = box.plane
    for c in _bits(shape):
        attached = box.nbr[c] & shape
        if attached.bit_count() != 3:
            continue
        centre = 1 << c
        rest = shape & ~centre
        covered = 0
        normals: set[int] = set()
        contact_axes: set[int] = set()
        for n in _bits(attached):
            if covered >> n & 1:
                break  # two contacts on one arm
            arm = _flood(1 << n, rest, box)
            covered |= arm
            normal = _corner_plane_normal(arm | centre, c, box)
            if normal is None:
                break
            normals.add(normal)
            contact_axes.add(next(a for a in range(3) if not plane[a][c] >> n & 1))
        else:
            if len(normals) == 3:
                if len(contact_axes) == 3:
                    return FamilyTag.SKEW_CROSS_B
                return FamilyTag.SKEW_CROSS_A
    return None


def _family(shape: int, box: _Box) -> FamilyTag:
    if _is_diagonal(shape, box):
        return FamilyTag.DIAGONAL
    return _skew_kind(shape, box) or FamilyTag.TWO_D_X_TWO_D


def classify(p: Polycube) -> FamilyTag:
    """Assign a minimal inscribed polycube to its structural family.

    Diagonal and skew-cross shapes are recognised positively; everything
    else is the 2Dx2D family (two perpendicular planar pieces joined by a
    skew hook). The three families partition the minimal polycubes, and the
    per-family counts are cross-checked against independent generating
    functions in the verification suite.
    """
    if not is_inscribed(p):
        raise ValueError("classify expects an inscribed polycube")
    if len(p) != min_volume(p.dims):
        raise ValueError("classify expects a minimal-volume polycube")
    b, k, h = p.dims.as_tuple()
    shape = sum(1 << ((c.x * k + c.y) * h + c.z) for c in p.cells)
    return _family(shape, _box(b, k, h))


def _family_orbit_chunk(args) -> Counter:
    """Orbit-weighted family tallies of one chunk: a shape S found from a
    root with orbit size s adds s * L / |S & F| to its tag."""
    b, k, h, lo, hi = args
    box = _box(b, k, h)
    face, lcm = box.plane[0][0], math.lcm(*range(1, k + h))
    counts: Counter = Counter()
    for root, size in _orbits(k, h)[lo:hi]:
        def visit(shape: int, weight: int = size * lcm) -> None:
            counts[_family(shape, box)] += weight // (shape & face).bit_count()

        _search(b, k, h, roots=[root], visit=visit, sizes=[1])
    return counts


def count_by_family(d: PrismDims) -> dict[FamilyTag, int]:
    """Family tally of the minimal inscribed polycubes of ``d``, under the orbit
    rule like ``count_min_inscribed``: the face's reflections keep the tags."""
    counts = sum(_over_roots(_family_orbit_chunk, d), Counter())
    return {tag: _unweigh(counts[tag], d, f"{tag.value} count") for tag in FamilyTag}


def _polycube(d: PrismDims, shape: int, box: _Box) -> Polycube:
    """The mask ``shape`` of the prism ``d`` as a ``Polycube``; the search grows
    only face-connected sets, so the mask is not checked again."""
    return Polycube._trusted(d, tuple(box.cells[i] for i in _bits(shape)))


def iter_min_inscribed(d: PrismDims, family: FamilyTag | None = None) -> Iterator[Polycube]:
    """Yield every minimal inscribed polycube of the prism exactly once; with
    ``family``, only those of that family.

    The search runs one root at a time, in the order of a whole search, and
    only that root's masks are held while its shapes are yielded. The family
    is read from the mask, and only the shapes yielded are built, from the
    prism's table of cells in bit order: that is lexicographic cell order,
    so their cells are sorted already.
    """
    b, k, h = d.as_tuple()
    box = _box(b, k, h)
    for root in range(k * h):  # the roots of an inscribed search: the x = 0 face
        found: list[int] = []
        _search(b, k, h, roots=[root], visit=found.append)
        for shape in found:
            if family is None or _family(shape, box) is family:
                yield _polycube(d, shape, box)
