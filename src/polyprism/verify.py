"""Cross-validation harness comparing every pair of counting engines.

The published reference tables are embedded as literal fixtures; every check
is an exact-integer equality. Mismatch policy follows the trust order
oracle > recurrences > closed forms > series: a closed-form-vs-recurrence
disagreement is ledgered as an erratum, while an oracle disagreement is a
failed check. A mismatch never halts a run.

Checks are data: a ``_Family`` holds a check-id pattern, an engine pair, a
case list and two value functions, and ``_run`` makes one check per case.
Oracle results are memoised per prism and shared by every check of a run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from itertools import combinations_with_replacement
from typing import Callable, Iterable, NamedTuple

from .core import FamilyTag, PrismDims
from .formulas import (
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
)
from .oracle import (
    count_2d_min,
    count_by_family,
    count_min_corner,
    count_min_inscribed,
    weighted_2d_count,
)
from .series import family_min, total_min

# Reference Table 1: rows indexed by family, columns n = 1..8, for the
# n x n x n prism. Literal fixture data, not derived values.
TABLE1: dict[str, tuple[int, ...]] = {
    "diag": (1, 32, 2271, 79936, 2103269, 49998072, 1163531779, 27263453288),
    "p2dx2d": (0, 0, 66, 2256, 34092, 352992, 2994750, 22756896),
    "sca": (0, 0, 48, 3456, 85008, 1321344, 16174416, 172476672),
    "scb": (0, 0, 16, 1408, 33776, 505472, 5998512, 62474496),
    "total": (1, 32, 2401, 87056, 2256145, 52177880, 1188699457, 27521161352),
}

# Reference Table 2: minimal inscribed polycubes of volume n, n = 1..10,
# over every prism shape (degenerate prisms included).
TABLE2: tuple[int, ...] = (1, 3, 15, 83, 450, 2295, 10834, 47175, 190407, 719243)

# Table 1's family rows: the oracle's family and the series catalog entry.
_FAMILIES = {
    "diag": (FamilyTag.DIAGONAL, "Diag"),
    "p2dx2d": (FamilyTag.TWO_D_X_TWO_D, "P2Dx2D"),
    "sca": (FamilyTag.SKEW_CROSS_A, "SCa"),
    "scb": (FamilyTag.SKEW_CROSS_B, "SCb"),
}

@dataclass(frozen=True)
class CheckResult:
    """One exact-equality comparison between two engines."""

    check_id: str
    engine_a: str
    engine_b: str
    input: str
    value_a: int
    value_b: int

    @property
    def passed(self) -> bool:
        return self.value_a == self.value_b


@dataclass(frozen=True)
class Erratum:
    """A ledgered disagreement where the lower-trust source is presumed wrong."""

    paper_location: str
    expected_source: str
    observed: int
    paper_value: int
    note: str


@dataclass
class VerificationReport:
    runs: list[CheckResult] = field(default_factory=list)
    errata: list[Erratum] = field(default_factory=list)

    def check(
        self,
        check_id: str,
        engine_a: str,
        engine_b: str,
        input_: str,
        value_a: int,
        value_b: int,
    ) -> None:
        self.runs.append(
            CheckResult(check_id, engine_a, engine_b, input_, value_a, value_b)
        )

    def extend(self, other: "VerificationReport") -> None:
        self.runs.extend(other.runs)
        self.errata.extend(other.errata)

    def finalize(self) -> "VerificationReport":
        """Deterministic assembly: checks sorted by id, errata append-only."""
        self.runs.sort(key=lambda r: r.check_id)
        return self

    def failures(self) -> list[CheckResult]:
        return [r for r in self.runs if not r.passed]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def exit_code(self) -> int:
        """0: clean; 1: errata only; 2: failed checks."""
        if self.failures():
            return 2
        if self.errata:
            return 1
        return 0

    def to_json(self) -> str:
        import json

        payload = {
            "runs": [
                {**asdict(r), "passed": r.passed} for r in self.runs
            ],
            "errata": [asdict(e) for e in self.errata],
        }
        return json.dumps(payload, indent=2) + "\n"

    def format_table(self) -> str:
        """Human-readable summary, one line per check."""
        lines = [f"{'check':<52} {'engines':<28} {'values':<28} status"]
        for r in self.runs:
            engines = f"{r.engine_a} vs {r.engine_b}"
            values = f"{r.value_a} vs {r.value_b}"
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{r.check_id:<52} {engines:<28} {values:<28} {status}")
        for e in self.errata:
            lines.append(
                f"ERRATUM {e.paper_location}: published {e.paper_value}, "
                f"{e.expected_source} gives {e.observed} ({e.note})"
            )
        lines.append(
            f"{len(self.runs)} checks, {len(self.failures())} failures, "
            f"{len(self.errata)} errata"
        )
        return "\n".join(lines) + "\n"


_BKH = "({0},{1},{2})"  # input text of a (b, k, h) case


class _Family(NamedTuple):
    """One family of checks, one check per case.

    ``check_id`` and ``input`` are format strings over the fields of the
    case; ``value_a`` and ``value_b`` take the fields as arguments.
    """

    check_id: str
    engines: tuple[str, str]
    cases: list[tuple[int, ...]]
    input: str
    value_a: Callable[..., int]
    value_b: Callable[..., int]


def _run(families: Iterable[_Family]) -> VerificationReport:
    report = VerificationReport()
    for f in families:
        for case in f.cases:
            check_id, input_ = f.check_id.format(*case), f.input.format(*case)
            report.check(check_id, *f.engines, input_, f.value_a(*case), f.value_b(*case))
    return report


def _pairs(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Sorted sides lo <= b <= k <= hi, in lexicographic order."""
    return list(combinations_with_replacement(range(lo, hi + 1), 2))


def _triples(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Sorted sides lo <= b <= k <= h <= hi, in lexicographic order."""
    return list(combinations_with_replacement(range(lo, hi + 1), 3))


# Oracle results per prism, shared by every check of a run: functools caches,
# so that clearing the package's caches (the benchmark does, per op) clears them.
@lru_cache(maxsize=128)
def _oracle_total(b: int, k: int, h: int) -> int:
    return count_min_inscribed(PrismDims(b, k, h))


@lru_cache(maxsize=1)
def _split_prisms() -> set[tuple[int, int, int]]:
    """The prisms whose split ``_oracle_split`` has computed."""
    return set()


@lru_cache(maxsize=128)
def _oracle_split(b: int, k: int, h: int) -> tuple[int, ...]:
    """The oracle's family counts, in ``_FAMILIES`` order."""
    counts = count_by_family(PrismDims(b, k, h))
    _split_prisms().add((b, k, h))
    return tuple(counts[tag] for tag, _ in _FAMILIES.values())


def _oracle_count(row: str, b: int, k: int, h: int) -> int:
    """The oracle's count of one Table 1 row. The counts do not depend on the
    order of the sides, so the memos key a prism by its sorted sides. A prism
    classified already takes its total from the split: the four family counts
    add up to the shapes searched. So a run checks family rows before totals."""
    p = tuple(sorted((b, k, h)))
    if row != "total":
        return _oracle_split(*p)[list(_FAMILIES).index(row)]
    if p in _split_prisms():
        return sum(_oracle_split(*p))
    return _oracle_total(*p)


def _series_count(row: str, bounds: tuple[int, int, int], b: int, k: int, h: int) -> int:
    """The series count of one Table 1 row, read from expansions on ``bounds``."""
    if row == "total":
        return total_min(b, k, h, bounds)
    return family_min(_FAMILIES[row][1], b, k, h, bounds)


def _table1_value(row: str, n: int, *_: int) -> int:
    return TABLE1[row][n - 1]


def _series_volume(count: Callable[[int, int, int], int], n: int) -> int:
    """Volume-n count: the sum of ``count`` over all (b, k, h) with b + k + h = n + 2."""
    m = n + 2
    return sum(count(b, k, m - b - k) for b in range(1, m - 1) for k in range(1, m - b))


def reproduce_table1(nmax: int = 8) -> VerificationReport:
    """Compare the series engine (and the oracle at small n) to Table 1.

    Series rows cover n <= nmax; the oracle confirms the totals for n <= 4
    and the per-family splits for n <= 3 (the n = 4 family split is covered
    by ``crosscheck`` at a larger time budget).
    """
    if not 1 <= nmax <= 8:
        raise ValueError(f"nmax must be in 1..8, got {nmax}")
    bounds = (nmax, nmax, nmax)
    cubes = [(n, n, n) for n in range(1, nmax + 1)]
    return _run(
        _Family(f"table1/{row}/n={{0}}/{engine}", (engine, "table1"), cases, _BKH,
                count, partial(_table1_value, row))
        for row in TABLE1
        for engine, cases, count in (
            ("series", cubes, partial(_series_count, row, bounds)),
            ("oracle", cubes[: 4 if row == "total" else 3],
             partial(_oracle_count, row)),
        )
    ).finalize()


def series_volume_projection(nmax: int) -> list[int]:
    """Volume-n totals from the series engine, degenerate prisms included."""
    total = partial(total_min, bounds=(nmax, nmax, nmax))
    return [_series_volume(total, n) for n in range(1, nmax + 1)]


def reproduce_table2(nmax: int = 10) -> VerificationReport:
    """Compare the closed volume formula and the series projection to Table 2."""
    if not 1 <= nmax <= 10:
        raise ValueError(f"nmax must be in 1..10, got {nmax}")
    volumes = [(n,) for n in range(1, nmax + 1)]
    projected = series_volume_projection(nmax)
    return _run([
        _Family("table2/volume/n={0:02d}/formula", ("formulas", "table2"), volumes, "n={0}",
                p3dmin_volume, lambda n: TABLE2[n - 1]),
        _Family("table2/volume/n={0:02d}/series", ("series", "table2"), volumes, "n={0}",
                lambda n: projected[n - 1], lambda n: TABLE2[n - 1]),
    ]).finalize()


ENGINES = ("oracle", "formulas", "series")

_CLOSED_CORNER = "corner/closed-vs-recurrence/"


def crosscheck(
    max_dim: int, engines: tuple[str, ...] | frozenset[str] = ENGINES
) -> VerificationReport:
    """Pairwise engine comparisons on their overlapping domains.

    Oracle-backed checks have side caps whatever ``max_dim``, as the
    brute force grows about 4x per unit of side: 4 for corner counts and
    family splits, 5 for the 3 x b x k slabs, and 7 for the 2 x b x k slabs
    and the b x k rectangles. Recurrence-vs-closed-form checks run up to
    min(max_dim, 10). A closed-form mismatch is recorded as an erratum, not
    a failure.
    """
    if max_dim < 2:
        raise ValueError(f"max_dim must be >= 2, got {max_dim}")
    unknown = set(engines) - set(ENGINES)
    if unknown:
        raise ValueError(f"unknown engines: {sorted(unknown)}")
    engines = frozenset(engines)
    oracle_dim = min(max_dim, 4)
    slab_dim = min(max_dim, 7)
    bounds = (max_dim, max_dim, max_dim)
    split = _triples(2, oracle_dim)  # the prisms whose family split is checked
    total = partial(_oracle_count, "total")
    n_vol = max(max_dim, 8)
    m_top = n_vol + 2  # volume n lives at total exponent degree n + 2
    vbounds = (m_top, m_top, m_top)
    volumes = [(n,) for n in range(1, n_vol + 1)]
    o_f, o_s, f_s = ("oracle", "formulas"), ("oracle", "series"), ("formulas", "series")
    checks = [
        *(  # first: the totals checked below read a classified prism's split
            _Family(f"family/{row}/oracle-vs-series/{{0}}x{{1}}x{{2}}", o_s, split, _BKH,
                    partial(_oracle_count, row), partial(_series_count, row, bounds))
            for row in _FAMILIES
        ),
        _Family("corner/oracle-vs-recurrence/{0}x{1}x{2}", o_f, _triples(1, oracle_dim),
                _BKH, lambda *p: count_min_corner(PrismDims(*p)), p3d_corner_rec),
        _Family("thickness2/oracle-vs-formula/{0}x{1}", o_f, _pairs(2, slab_dim),
                "(2,{0},{1})", partial(total, 2), p3dmin_thickness2),
        _Family("thickness2/weighted2d-vs-formula/{0}x{1}", o_f, _pairs(2, slab_dim),
                "(2,{0},{1})", weighted_2d_count, p3dmin_thickness2),
        _Family("thickness3/oracle-vs-formula/{0}x{1}", o_f, _pairs(2, min(max_dim, 5)),
                "(3,{0},{1})", partial(total, 3), p3dmin_thickness3),
        _Family("twodim/oracle-vs-formula/{0}x{1}", o_f, _pairs(1, slab_dim),
                "({0},{1},1)", count_2d_min, p2d_min),
        _Family("total/oracle-vs-series/{0}x{1}x{2}", o_s, split,
                _BKH, total, partial(_series_count, "total", bounds)),
        _Family("skewcross/formula-vs-series/{0}x{1}x{2}", f_s, _triples(3, max_dim),
                _BKH, sc_prism, partial(family_min, "SC", bounds=bounds)),
        *(
            _Family(f"volume/{name}/formula-vs-series/n={{0:02d}}", f_s, volumes, "n={0}",
                    formula, partial(_series_volume, count))
            for name, formula, count in (
                ("SC", sc_volume, partial(family_min, "SC", bounds=vbounds)),
                ("P2Dx2D", p2dx2d_volume, partial(family_min, "P2Dx2D", bounds=vbounds)),
                # The closed diagonal volume formula carries the degenerate
                # correction, which ``family_min`` applies to side-1 prisms.
                ("Diag", diag_volume, partial(family_min, "Diag", bounds=vbounds)),
                ("total", p3dmin_volume, partial(total_min, bounds=vbounds)),
            )
        ),
        _Family("corner2d/closed-vs-recurrence/{0}x{1}", ("formulas", "formulas"),
                _pairs(1, max_dim), "({0},{1})", p2d_corner, p2d_corner_rec),
        _Family(_CLOSED_CORNER + "{0}x{1}x{2}", ("formulas", "formulas"),
                _triples(1, min(max_dim, 10)), _BKH, p3d_corner_closed, p3d_corner_rec),
    ]
    report = VerificationReport()
    for r in _run(f for f in checks if set(f.engines) <= engines).runs:
        if r.passed or not r.check_id.startswith(_CLOSED_CORNER):
            report.runs.append(r)
        else:
            # the one family with another mismatch policy: ledger, not fail
            report.errata.append(Erratum(
                "closed corner-count formula", "corner recurrence", r.value_b, r.value_a,
                f"closed form disagrees at {r.input}",
            ))
    return report.finalize()
