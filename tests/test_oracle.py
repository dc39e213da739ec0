import concurrent.futures
import gc
import io
import itertools
import math
import weakref

import pytest

import polyprism.oracle
from polyprism.core import Cell, FamilyTag, Polycube, PrismDims, is_inscribed, min_volume
from polyprism.formulas import p2d_min, p3d_corner_rec, p3dmin_thickness2
from polyprism.oracle import (
    _box,
    _family,
    _is_diagonal,
    _orbits,
    _polycube,
    _search,
    _threads,
    classify,
    count_2d_min,
    count_by_family,
    count_min_corner,
    count_min_inscribed,
    iter_min_inscribed,
    weighted_2d_count,
)


def _naive_shapes(b, k, h):
    """Masks of every minimal inscribed shape, by testing all subsets."""
    coords = [(x, y, z) for x in range(b) for y in range(k) for z in range(h)]
    volume = b + k + h - 2
    found = set()
    for cells in itertools.combinations(coords, volume):
        cellset = set(cells)
        todo, reached = [cells[0]], {cells[0]}
        while todo:
            x, y, z = todo.pop()
            for n in ((x + 1, y, z), (x - 1, y, z), (x, y + 1, z),
                      (x, y - 1, z), (x, y, z + 1), (x, y, z - 1)):
                if n in cellset and n not in reached:
                    reached.add(n)
                    todo.append(n)
        if len(reached) < volume:
            continue
        if not all(
            {0, extent - 1} <= {c[a] for c in cells}
            for a, extent in enumerate((b, k, h))
        ):
            continue
        found.add(sum(1 << ((x * k + y) * h + z) for x, y, z in cells))
    return found


class TestSearchPaths:
    """The search against all subsets. The 1 x 1 x 1 prism's root is its
    shape; every other prism, side-1 prisms included, grows through the
    pruned frontier from the empty shape, whose one frontier cell is the root."""

    @pytest.mark.parametrize(
        "dims", [(2, 2, 3), (2, 3, 3), (1, 1, 1), (1, 1, 2), (1, 3, 4), (2, 2, 4), (2, 2, 5)]
    )
    def test_matches_naive_subsets(self, dims):
        seen = []
        count = _search(*dims, visit=seen.append)
        expected = _naive_shapes(*dims)
        assert count == len(seen) == len(expected) > 0
        assert set(seen) == expected

    def test_visit_target_is_freed_when_the_search_returns(self):
        class Masks(list):  # a plain list takes no weak reference
            pass

        found = Masks()
        ref = weakref.ref(found)
        gc.disable()  # the target must go by reference counting alone
        try:
            assert _search(3, 3, 3, roots=[0], visit=found.append) == len(found) == 343
            del found
            assert ref() is None
        finally:
            gc.enable()


def _unreached_masks(b, k, h, root, forbidden):
    """The masks found from ``root``, never adding a cell of ``forbidden``, in
    the search's order, by the search without its reach test: the bounding
    box as three plane unions, and a node entered whenever its frontier is not
    empty."""
    box = _box(b, k, h)
    nbr, (px, py, pz) = box.nbr, box.plane
    found = []

    def tight(shape, ext, seen, bx, by, bz, rem):
        while ext:
            low = ext & -ext
            ext ^= low
            if rem == 1:
                found.append(shape | low)
                continue
            v = low.bit_length() - 1
            new = nbr[v] & ~seen
            cx, cy, cz = bx | px[v], by | py[v], bz | pz[v]
            nxt = (ext | new) & ~(cx & cy & cz)
            if nxt:
                tight(shape | low, nxt, seen | new, cx, cy, cz, rem - 1)

    tight(0, 1 << root, forbidden | 1 << root, 0, 0, 0, b + k + h - 2)
    return found


_REACH_SIDES = [
    *itertools.combinations_with_replacement(range(1, 5), 3),
    (5, 4, 3), (6, 3, 2), (2, 2, 9), (1, 5, 6),
]


class TestReachTest:
    """The reach test cuts only subtrees that hold no shape: every ordering of
    each prism gives the masks of the search without it, in the same order,
    and the same counts under both root rules."""

    @pytest.mark.parametrize("sides", _REACH_SIDES)
    def test_least_cell_rule(self, sides):
        for dims in set(itertools.permutations(sides)):
            _, k, h = dims
            expected = [m for r in range(k * h) for m in _unreached_masks(*dims, r, (1 << r) - 1)]
            masks = []
            assert _search(*dims, visit=masks.append) == len(expected)
            assert masks == expected, dims

    @pytest.mark.parametrize("sides", _REACH_SIDES)
    def test_orbit_rule(self, sides):
        for b, k, h in set(itertools.permutations(sides)):
            face, lcm = _box(b, k, h).plane[0][0], math.lcm(*range(1, k + h))
            for root, size in _orbits(k, h):
                expected = _unreached_masks(b, k, h, root, 0)
                weighted = sum(size * lcm // (m & face).bit_count() for m in expected)
                masks = []
                assert _search(b, k, h, roots=[root], visit=masks.append, sizes=[size]) == weighted
                assert masks == expected, (b, k, h, root)


class TestMinimalCounts:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 32), (3, 2401)])
    def test_small_cubes(self, n, expected):
        assert count_min_inscribed(PrismDims(n, n, n)) == expected

    def test_thickness_two_matches_formula(self):
        for b in range(2, 6):
            for k in range(2, 6):
                assert count_min_inscribed(PrismDims(2, b, k)) == p3dmin_thickness2(b, k)

    def test_degenerate_reduces_to_2d(self):
        for b in range(1, 7):
            for k in range(1, 7):
                assert count_2d_min(b, k) == p2d_min(b, k)

    def test_permutation_invariance(self):
        for dims in ((2, 3, 4), (1, 3, 4), (2, 2, 3)):
            b, k, h = dims
            reference = count_min_inscribed(PrismDims(b, k, h))
            assert count_min_inscribed(PrismDims(h, b, k)) == reference
            assert count_min_inscribed(PrismDims(k, h, b)) == reference


class TestCornerCounts:
    def test_matches_recurrence(self):
        for b in range(1, 5):
            for k in range(1, 5):
                for h in range(1, 5):
                    assert count_min_corner(PrismDims(b, k, h)) == p3d_corner_rec(b, k, h)


class TestWeighted2D:
    def test_degenerate_single_cell(self):
        assert weighted_2d_count(1, 1) == 1

    def test_matches_thickness_two_formula(self):
        for b in range(2, 7):
            for k in range(2, 7):
                assert weighted_2d_count(b, k) == p3dmin_thickness2(b, k)

    @pytest.mark.parametrize("sides", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_a_side_below_one(self, sides):
        with pytest.raises(ValueError, match="prism dimensions"):
            weighted_2d_count(*sides)
        with pytest.raises(ValueError, match="prism dimensions"):
            count_2d_min(*sides)


class TestIteration:
    def test_yields_each_exactly_once(self):
        d = PrismDims(2, 2, 3)
        shapes = list(iter_min_inscribed(d))
        assert len(shapes) == count_min_inscribed(d)
        assert len(set(shapes)) == len(shapes)
        for p in shapes:
            assert len(p) == min_volume(d)
            assert is_inscribed(p)

    def test_streams_in_search_order(self):
        d = PrismDims(2, 3, 4)
        masks = []
        _search(2, 3, 4, visit=masks.append)
        k, h = d.k, d.h
        streamed = [
            sum(1 << ((c.x * k + c.y) * h + c.z) for c in p) for p in iter_min_inscribed(d)
        ]
        assert streamed == masks

    def test_first_shape_searches_one_root(self, monkeypatch):
        searched = []

        def recording(*args, roots=None, visit=None):
            searched.extend(roots)
            return _search(*args, roots=roots, visit=visit)

        monkeypatch.setattr(polyprism.oracle, "_search", recording)
        assert isinstance(next(iter_min_inscribed(PrismDims(4, 4, 4))), Polycube)
        assert searched == [0]

    @pytest.mark.parametrize(
        "dims",
        [*itertools.combinations_with_replacement(range(1, 4), 3), (2, 3, 4)],
    )
    def test_family_filter_matches_classify_after_building(self, dims):
        # the reference builds every shape through the public constructor,
        # then filters with classify
        b, k, h = dims
        d = PrismDims(b, k, h)
        masks = []
        _search(b, k, h, visit=masks.append)
        cells = [Cell(x, y, z) for x in range(b) for y in range(k) for z in range(h)]
        built = [Polycube(d, [c for i, c in enumerate(cells) if m >> i & 1]) for m in masks]
        assert list(iter_min_inscribed(d)) == built
        streams = {tag: list(iter_min_inscribed(d, tag)) for tag in FamilyTag}
        for tag, stream in streams.items():
            assert stream == [p for p in built if classify(p) is tag]
        assert sum(map(len, streams.values())) == len(built)
        assert set().union(*streams.values()) == set(built)

    def test_mask_path_builds_the_cells_of_the_mask(self):
        assert _polycube(PrismDims(3, 1, 1), 0b111, _box(3, 1, 1)).cells == tuple(
            Cell(x, 0, 0) for x in range(3)
        )


def _cube(cells):
    dims = PrismDims(
        1 + max(c[0] for c in cells),
        1 + max(c[1] for c in cells),
        1 + max(c[2] for c in cells),
    )
    return Polycube(dims, [Cell(*c) for c in cells])


class TestClassify:
    def test_stair_is_diagonal(self):
        p = _cube([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])
        assert classify(p) is FamilyTag.DIAGONAL

    def test_skew_lines_are_2dx2d(self):
        # two perpendicular full pilars joined by a unit bridge (2x3x3)
        p = _cube(
            [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 1, 0), (1, 1, 1), (1, 1, 2)]
        )
        assert classify(p) is FamilyTag.TWO_D_X_TWO_D

    def test_skew_cross_type_b(self):
        # central cell (1,1,1) with three cyclically skewed planar arms
        p = _cube(
            [
                (1, 1, 1),
                (2, 1, 1), (2, 1, 0),
                (1, 0, 1), (0, 0, 1),
                (1, 1, 2), (1, 2, 2),
            ]
        )
        assert classify(p) is FamilyTag.SKEW_CROSS_B

    def test_skew_cross_type_a(self):
        # two arms share the y contact axis; the three arm planes stay
        # mutually perpendicular
        p = _cube(
            [
                (1, 1, 1),
                (1, 0, 1), (0, 0, 1),
                (1, 2, 1), (1, 2, 0),
                (2, 1, 1), (2, 1, 2),
            ]
        )
        assert classify(p) is FamilyTag.SKEW_CROSS_A

    def test_rejects_non_inscribed(self):
        p = Polycube(PrismDims(2, 1, 1), [Cell(0, 0, 0)])
        with pytest.raises(ValueError):
            classify(p)

    def test_rejects_non_minimal(self):
        p = Polycube(
            PrismDims(2, 2, 1),
            [Cell(0, 0, 0), Cell(1, 0, 0), Cell(0, 1, 0), Cell(1, 1, 0)],
        )
        with pytest.raises(ValueError):
            classify(p)

    def test_partition_is_exhaustive_and_disjoint(self):
        d = PrismDims(3, 3, 3)
        tally = {tag: 0 for tag in FamilyTag}
        for p in iter_min_inscribed(d):
            tally[classify(p)] += 1
        assert tally == {
            FamilyTag.DIAGONAL: 2271,
            FamilyTag.TWO_D_X_TWO_D: 66,
            FamilyTag.SKEW_CROSS_A: 48,
            FamilyTag.SKEW_CROSS_B: 16,
        }
        assert count_by_family(d) == tally


def _diagonal_by_cut_cells(shape: int, box) -> bool:
    """The diagonal test as a scan: for each orientation and each cell u of
    the shape, is every cell below or above u, do the cells below meet the
    three near faces, and do the cells above meet the three far faces?"""
    last = len(box.cells) - 1  # the corner opposite cell 0
    for i, (low, high) in enumerate(box.orients):
        flips = (0, *divmod(i, 2))  # y outer, z inner, as in _box
        near = tuple(box.plane[a][last if flip else 0] for a, flip in enumerate(flips))
        far = tuple(box.plane[a][0 if flip else last] for a, flip in enumerate(flips))
        rest = shape
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            below, above = low[u], high[u]
            if (
                not shape & ~(below | above)
                and all(shape & below & p for p in near)
                and all(shape & above & p for p in far)
            ):
                return True
    return False


class TestDiagonalTest:
    """The one AND-fold against the scan over cut cells with face checks,
    on every shape of each prism, in every axis order named."""

    @pytest.mark.parametrize(
        "dims",
        [
            *itertools.product(range(1, 4), repeat=3),
            *itertools.permutations((2, 3, 4)),
            *sorted(set(itertools.permutations((3, 3, 4)))),
            *sorted(set(itertools.permutations((2, 4, 4)))),
            *sorted(set(itertools.permutations((2, 2, 6)))),
        ],
    )
    def test_matches_the_scan_over_cut_cells(self, dims):
        box = _box(*dims)
        masks = []
        _search(*dims, visit=masks.append)
        assert [_is_diagonal(m, box) for m in masks] == [
            _diagonal_by_cut_cells(m, box) for m in masks
        ]


class TestThreads:
    def test_default_is_single(self, monkeypatch):
        monkeypatch.delenv("POLYCUBE_THREADS", raising=False)
        assert _threads() == 1

    def test_rejects_non_positive(self, monkeypatch):
        monkeypatch.setenv("POLYCUBE_THREADS", "0")
        with pytest.raises(ValueError):
            _threads()

    def test_parallel_count_matches_serial(self, monkeypatch):
        serial = count_min_inscribed(PrismDims(3, 3, 3))
        monkeypatch.setenv("POLYCUBE_THREADS", "2")
        assert count_min_inscribed(PrismDims(3, 3, 3)) == serial

    def test_parallel_chunks_split_the_root_slab(self, monkeypatch):
        # searched as 4 x 4 x 3: the 12 cells of the x = 0 face fall into 4
        # orbits, represented by cells 0, 1, 3 and 4, in chunks of 1
        monkeypatch.delenv("POLYCUBE_THREADS", raising=False)
        serial = count_min_inscribed(PrismDims(3, 4, 4))
        chunks = _record_dispatch(monkeypatch)
        monkeypatch.setenv("POLYCUBE_THREADS", "2")
        assert count_min_inscribed(PrismDims(3, 4, 4)) == serial == 23720
        assert chunks == [(4, 4, 3, lo, lo + 1) for lo in range(4)]
        assert [_orbits(4, 3)[lo][0] for _, _, _, lo, _ in chunks] == [0, 1, 3, 4]

    def test_parallel_family_split_matches_serial(self, monkeypatch):
        # 3 orbits on the searched face of 3 x 3 x 3, in chunks of 1
        monkeypatch.delenv("POLYCUBE_THREADS", raising=False)
        serial = count_by_family(PrismDims(3, 3, 3))
        chunks = _record_dispatch(monkeypatch)
        monkeypatch.setenv("POLYCUBE_THREADS", "2")
        assert count_by_family(PrismDims(3, 3, 3)) == serial
        assert chunks == [(3, 3, 3, lo, lo + 1) for lo in range(3)]

    def test_pool_has_no_more_workers_than_chunks(self, monkeypatch):
        # A stand-in pool that maps in this process and records its size: a
        # real pool forks all its workers at the first submit, so this test
        # must start none. 3 x 4 x 4 is searched in 4 orbit chunks.
        from polyprism.cli import run

        sizes = []

        class InProcess:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        outputs = {}
        for threads in ("1", "1000000"):
            monkeypatch.setenv("POLYCUBE_THREADS", threads)
            for command in (["count", "--engine", "oracle"], ["classify"]):
                out = io.StringIO()
                assert run([*command, "--b", "3", "--k", "4", "--h", "4"], out=out) == 0
                outputs[threads, command[0]] = out.getvalue()
        assert sizes == [4, 4]
        assert outputs["1000000", "count"] == outputs["1", "count"]
        assert outputs["1000000", "classify"] == outputs["1", "classify"]


def _record_dispatch(monkeypatch) -> list:
    """Record the chunks the oracle hands to its worker processes; the oracle
    looks the pool up in ``concurrent.futures`` each time it starts one."""
    chunks = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, jobs, **kwargs):
            jobs = list(jobs)
            chunks.extend(jobs)
            return super().map(fn, jobs, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return chunks


def _image(shape: int, n: int) -> int:
    """The mask of the shape's image under the central inversion of an n-cell box."""
    return int(format(shape, f"0{n}b")[::-1], 2)


def _tally(b, k, h):
    """Family counts of the prism, one classification per shape, searched in
    the caller's axis order."""
    box = _box(b, k, h)
    counts = dict.fromkeys(FamilyTag, 0)

    def visit(shape):
        counts[_family(shape, box)] += 1

    _search(b, k, h, visit=visit)
    return counts


class TestSymmetry:
    """The counters search longest side first, and the family split weighs
    one root per orbit of the root face; neither may change a count."""

    @pytest.mark.parametrize(
        "sides",
        [*itertools.combinations_with_replacement(range(1, 5), 3), (2, 5, 5), (3, 3, 5), (1, 5, 5)],
    )
    def test_every_ordering_counts_alike(self, sides):
        totals, splits = set(), []
        for dims in sorted(set(itertools.permutations(sides))):
            d = PrismDims(*dims)
            total = count_min_inscribed(d)
            assert total == _search(*dims)  # searched in the caller's order
            split = count_by_family(d)
            assert sum(split.values()) == total
            totals.add(total)
            splits.append(split)
        assert len(totals) == 1
        assert all(split == splits[0] for split in splits)
        if max(sides) <= 3 or sides == (2, 3, 4):
            # every shape classified, in every ordering
            assert all(_tally(*dims) == splits[0] for dims in itertools.permutations(sides))

    def test_weighted_2d_is_symmetric(self):
        for b in range(1, 7):
            for k in range(1, 7):
                assert weighted_2d_count(b, k) == weighted_2d_count(k, b)

    def test_counters_search_longest_side_first(self, monkeypatch):
        searched = []

        def recording(b, k, h, **kwargs):
            searched.append((b, k, h))
            return _search(b, k, h, **kwargs)

        monkeypatch.setattr(polyprism.oracle, "_search", recording)
        monkeypatch.delenv("POLYCUBE_THREADS", raising=False)
        polyprism.oracle._rectangle.cache_clear()  # rectangles searched by earlier tests
        count_min_inscribed(PrismDims(2, 3, 4))
        count_2d_min(2, 5)
        count_by_family(PrismDims(3, 2, 4))
        weighted_2d_count(3, 4)
        # the split searches each of the 2 orbits of the 3 x 2 face on its own
        assert searched == [(4, 3, 2), (5, 2, 1), (4, 3, 2), (4, 3, 2), (4, 3, 1)]
        searched.clear()
        next(iter_min_inscribed(PrismDims(2, 3, 4)))
        assert searched == [(2, 3, 4)]  # the caller's coordinates

    @pytest.mark.parametrize(
        "dims",
        [*itertools.product(range(1, 4), repeat=3), (2, 3, 4), (2, 4, 4), (3, 3, 4)],
    )
    def test_inversion_keeps_family_tags(self, dims):
        box, n = _box(*dims), len(_box(*dims).cells)
        masks = []
        _search(*dims, visit=masks.append)
        assert set(masks) == {_image(m, n) for m in masks}
        assert all(_family(m, box) is _family(_image(m, n), box) for m in masks)

    @pytest.mark.parametrize(
        "dims",
        [
            *(s[::-1] for s in itertools.combinations_with_replacement(range(1, 4), 3)),
            (4, 3, 2),
            (4, 4, 2),
            (4, 3, 3),
        ],
    )
    def test_face_reflections_keep_family_tags(self, dims):
        # the lemma the orbit-weighted split rests on, on prisms searched
        # longest side first: y -> k-1-y, z -> h-1-z, and y <-> z if k = h
        _, k, h = dims
        box = _box(*dims)
        moves = [lambda x, y, z: (x, k - 1 - y, z), lambda x, y, z: (x, y, h - 1 - z)]
        if k == h:
            moves.append(lambda x, y, z: (x, z, y))
        masks = []
        _search(*dims, visit=masks.append)
        for move in moves:
            target = [(x * k + y) * h + z for x, y, z in (move(c.x, c.y, c.z) for c in box.cells)]
            images = [sum(1 << target[i] for i in range(len(target)) if m >> i & 1) for m in masks]
            assert set(images) == set(masks)
            assert all(_family(m, box) is _family(i, box) for m, i in zip(masks, images))

    def test_self_images_among_real_shapes_count_once(self):
        # 49 of the 2401 shapes of 3 x 3 x 3 are their own image
        masks = []
        _search(3, 3, 3, visit=masks.append)
        assert sum(m == _image(m, 27) for m in masks) == 49
        assert sum(count_by_family(PrismDims(3, 3, 3)).values()) == len(masks) == 2401


def _orbit_of(y, z, k, h):
    """The face cells reached from (y, z) by the reflections that fix the face,
    closing under the generators one step at a time."""
    moves = [lambda y, z: (k - 1 - y, z), lambda y, z: (y, h - 1 - z)]
    if k == h:
        moves.append(lambda y, z: (z, y))
    orbit, todo = {(y, z)}, [(y, z)]
    while todo:
        cell = todo.pop()
        for move in moves:
            image = move(*cell)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


class TestOrbits:
    """The orbit count searches one root per orbit of the root face and weighs
    it by the orbit's size."""

    @pytest.mark.parametrize("face", [(1, 1), (2, 3), (4, 3), (3, 3), (4, 4), (5, 5)])
    def test_orbit_table_partitions_the_face(self, face):
        k, h = face
        table = _orbits(k, h)
        assert sum(size for _, size in table) == k * h
        owner = {}
        for root, size in table:
            orbit = _orbit_of(*divmod(root, h), k, h)
            assert len(orbit) == size
            assert root == min(y * h + z for y, z in orbit)
            for cell in orbit:
                assert cell not in owner  # every cell lies in exactly one orbit
                owner[cell] = root
        assert len(owner) == k * h
        assert [root for root, _ in table] == sorted(root for root, _ in table)

    def test_transpose_only_on_a_square_face(self):
        assert _orbits(4, 3) == [(0, 4), (1, 2), (3, 4), (4, 2)]
        assert _orbits(3, 3) == [(0, 4), (1, 4), (4, 1)]  # (0, 1) and (1, 0) share an orbit
        assert _orbits(3, 4) == [(0, 4), (1, 4), (4, 2), (5, 2)]  # (0, 1) and (1, 0) do not

    @pytest.mark.parametrize("entry", range(4))
    @pytest.mark.parametrize("delta", [1, -1])
    def test_a_wrong_orbit_size_is_an_internal_fault(self, monkeypatch, entry, delta):
        # 3 x 4 x 4 is searched as 4 x 4 x 3, with 4 orbits on its 4 x 3 face;
        # no root there has a whole-number weight W(c), so any wrong size leaves
        # a remainder (the centre of the 3 x 3 face has one, and would not)
        from polyprism.cli import EX_INTERNAL, run

        _wrong_orbit_size(monkeypatch, entry, delta)
        with pytest.raises(RuntimeError, match="multiple"):
            count_min_inscribed(PrismDims(3, 4, 4))
        argv = ["count", "--engine", "oracle", "--b", "3", "--k", "4", "--h", "4"]
        assert run(argv, out=io.StringIO()) == EX_INTERNAL

    @pytest.mark.parametrize("entry", range(4))
    @pytest.mark.parametrize("delta", [1, -1])
    def test_a_wrong_orbit_size_faults_the_family_split(self, monkeypatch, entry, delta):
        # the tags' weighted tallies add up to the total's, so at least one
        # of them keeps the remainder
        from polyprism.cli import EX_INTERNAL, run

        _wrong_orbit_size(monkeypatch, entry, delta)
        with pytest.raises(RuntimeError, match="multiple"):
            count_by_family(PrismDims(3, 4, 4))
        assert run(["classify", "--b", "3", "--k", "4", "--h", "4"], out=io.StringIO()) == EX_INTERNAL


def _wrong_orbit_size(monkeypatch, entry, delta):
    """Make entry ``entry`` of the 4 x 3 face's orbit table ``delta`` off its size."""
    table = _orbits(4, 3)

    def wrong(k, h):
        assert (k, h) == (4, 3)
        root, size = table[entry]
        return [*table[:entry], (root, size + delta), *table[entry + 1 :]]

    monkeypatch.setattr(polyprism.oracle, "_orbits", wrong)
    monkeypatch.delenv("POLYCUBE_THREADS", raising=False)
