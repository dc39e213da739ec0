"""Cross-validation harness comparing every pair of counting engines.

The published reference tables are embedded as literal fixtures; every check
is an exact-integer equality. Mismatch policy follows the trust order
oracle > recurrences > closed forms > series: a closed-form-vs-recurrence
disagreement is ledgered as an erratum, while an oracle disagreement is a
failed check. A mismatch never halts a run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable

from .core import PrismDims
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
from .series import expand, family_min, total_min, volume_sequence
from .core import FamilyTag

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

_FAMILY_ROW = {
    "diag": FamilyTag.DIAGONAL,
    "p2dx2d": FamilyTag.TWO_D_X_TWO_D,
    "sca": FamilyTag.SKEW_CROSS_A,
    "scb": FamilyTag.SKEW_CROSS_B,
}

_FAMILY_SERIES = {"diag": "Diag", "p2dx2d": "P2Dx2D", "sca": "SCa", "scb": "SCb"}


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


def reproduce_table1(nmax: int = 8) -> VerificationReport:
    """Compare the series engine (and the oracle at small n) to Table 1.

    Series rows cover n <= nmax; the oracle confirms the totals for n <= 4
    and the per-family splits for n <= 3 (the n = 4 family split is covered
    by ``crosscheck`` at a larger time budget).
    """
    if not 1 <= nmax <= 8:
        raise ValueError(f"nmax must be in 1..8, got {nmax}")
    bounds = (nmax, nmax, nmax)
    report = VerificationReport()
    for n in range(1, nmax + 1):
        for row in ("diag", "p2dx2d", "sca", "scb"):
            report.check(
                f"table1/{row}/n={n}/series",
                "series",
                "table1",
                f"({n},{n},{n})",
                family_min(_FAMILY_SERIES[row], n, n, n, bounds),
                TABLE1[row][n - 1],
            )
        report.check(
            f"table1/total/n={n}/series",
            "series",
            "table1",
            f"({n},{n},{n})",
            total_min(n, n, n, bounds),
            TABLE1["total"][n - 1],
        )
        if n <= 4:
            report.check(
                f"table1/total/n={n}/oracle",
                "oracle",
                "table1",
                f"({n},{n},{n})",
                count_min_inscribed(PrismDims(n, n, n)),
                TABLE1["total"][n - 1],
            )
        if n <= 3:
            families = count_by_family(PrismDims(n, n, n))
            for row, tag in _FAMILY_ROW.items():
                report.check(
                    f"table1/{row}/n={n}/oracle",
                    "oracle",
                    "table1",
                    f"({n},{n},{n})",
                    families[tag],
                    TABLE1[row][n - 1],
                )
    return report.finalize()


def _volume_projection(nmax: int, count: Callable[[int, int, int], int]) -> list[int]:
    """Entry n - 1 sums ``count`` over all ordered (b, k, h) with b + k + h = n + 2."""
    out = []
    for n in range(1, nmax + 1):
        m = n + 2
        out.append(
            sum(count(b, k, m - b - k) for b in range(1, m - 1) for k in range(1, m - b))
        )
    return out


def series_volume_projection(nmax: int) -> list[int]:
    """Volume-n totals from the series engine, degenerate prisms included."""
    bounds = (nmax, nmax, nmax)
    return _volume_projection(nmax, lambda b, k, h: total_min(b, k, h, bounds))


def reproduce_table2(nmax: int = 10) -> VerificationReport:
    """Compare the closed volume formula and the series projection to Table 2."""
    if not 1 <= nmax <= 10:
        raise ValueError(f"nmax must be in 1..10, got {nmax}")
    report = VerificationReport()
    projected = series_volume_projection(nmax)
    for n in range(1, nmax + 1):
        report.check(
            f"table2/volume/n={n:02d}/formula",
            "formulas",
            "table2",
            f"n={n}",
            p3dmin_volume(n),
            TABLE2[n - 1],
        )
        report.check(
            f"table2/volume/n={n:02d}/series",
            "series",
            "table2",
            f"n={n}",
            projected[n - 1],
            TABLE2[n - 1],
        )
    return report.finalize()


ENGINES = ("oracle", "formulas", "series")


def crosscheck(
    max_dim: int, engines: tuple[str, ...] | frozenset[str] = ENGINES
) -> VerificationReport:
    """Pairwise engine comparisons on their overlapping domains.

    Oracle-backed checks are capped at side length 4 regardless of
    ``max_dim`` (the brute force beyond that is out of desk-scale budget);
    recurrence-vs-closed-form checks run up to min(max_dim, 10). A
    closed-form mismatch is recorded as an erratum, not a failure.
    """
    if max_dim < 2:
        raise ValueError(f"max_dim must be >= 2, got {max_dim}")
    unknown = set(engines) - set(ENGINES)
    if unknown:
        raise ValueError(f"unknown engines: {sorted(unknown)}")
    engines = frozenset(engines)
    report = VerificationReport()
    oracle_dim = min(max_dim, 4)
    bounds = (max_dim, max_dim, max_dim)

    if "oracle" in engines and "formulas" in engines:
        for b in range(1, oracle_dim + 1):
            for k in range(b, oracle_dim + 1):
                for h in range(k, oracle_dim + 1):
                    report.check(
                        f"corner/oracle-vs-recurrence/{b}x{k}x{h}",
                        "oracle",
                        "formulas",
                        f"({b},{k},{h})",
                        count_min_corner(PrismDims(b, k, h)),
                        p3d_corner_rec(b, k, h),
                    )
        for b in range(2, max_dim + 1):
            for k in range(b, max_dim + 1):
                report.check(
                    f"thickness2/oracle-vs-formula/{b}x{k}",
                    "oracle",
                    "formulas",
                    f"(2,{b},{k})",
                    count_min_inscribed(PrismDims(2, b, k)),
                    p3dmin_thickness2(b, k),
                )
                report.check(
                    f"thickness2/weighted2d-vs-formula/{b}x{k}",
                    "oracle",
                    "formulas",
                    f"(2,{b},{k})",
                    weighted_2d_count(b, k),
                    p3dmin_thickness2(b, k),
                )
                if k <= 5:  # brute-force budget for the 3 x b x k slab
                    report.check(
                        f"thickness3/oracle-vs-formula/{b}x{k}",
                        "oracle",
                        "formulas",
                        f"(3,{b},{k})",
                        count_min_inscribed(PrismDims(3, b, k)),
                        p3dmin_thickness3(b, k),
                    )
        for b in range(1, max_dim + 1):
            for k in range(b, max_dim + 1):
                report.check(
                    f"twodim/oracle-vs-formula/{b}x{k}",
                    "oracle",
                    "formulas",
                    f"({b},{k},1)",
                    count_2d_min(b, k),
                    p2d_min(b, k),
                )

    if "oracle" in engines and "series" in engines:
        for b in range(2, oracle_dim + 1):
            for k in range(b, oracle_dim + 1):
                for h in range(k, oracle_dim + 1):
                    report.check(
                        f"total/oracle-vs-series/{b}x{k}x{h}",
                        "oracle",
                        "series",
                        f"({b},{k},{h})",
                        count_min_inscribed(PrismDims(b, k, h)),
                        total_min(b, k, h, bounds),
                    )
                    families = count_by_family(PrismDims(b, k, h))
                    for row, tag in _FAMILY_ROW.items():
                        report.check(
                            f"family/{row}/oracle-vs-series/{b}x{k}x{h}",
                            "oracle",
                            "series",
                            f"({b},{k},{h})",
                            families[tag],
                            family_min(_FAMILY_SERIES[row], b, k, h, bounds),
                        )

    if "formulas" in engines and "series" in engines:
        sc = expand("SC", bounds)
        for b in range(3, max_dim + 1):
            for k in range(b, max_dim + 1):
                for h in range(k, max_dim + 1):
                    report.check(
                        f"skewcross/formula-vs-series/{b}x{k}x{h}",
                        "formulas",
                        "series",
                        f"({b},{k},{h})",
                        sc_prism(b, k, h),
                        sc.coeff(b, k, h),
                    )
        n_vol = max(max_dim, 8)
        m_top = n_vol + 2  # volume n lives at total exponent degree n + 2
        vbounds = (m_top, m_top, m_top)
        for name, fn in (("SC", sc_volume), ("P2Dx2D", p2dx2d_volume)):
            seq = volume_sequence(expand(name, vbounds), m_top)
            for n in range(1, n_vol + 1):
                report.check(
                    f"volume/{name}/formula-vs-series/n={n:02d}",
                    "formulas",
                    "series",
                    f"n={n}",
                    fn(n),
                    seq[n + 2],
                )
        # The closed diagonal volume formula already carries the degenerate
        # correction, which ``family_min`` applies to the side-1 prisms.
        projected = _volume_projection(
            n_vol, lambda b, k, h: family_min("Diag", b, k, h, vbounds)
        )
        for n in range(1, n_vol + 1):
            report.check(
                f"volume/Diag/formula-vs-series/n={n:02d}",
                "formulas",
                "series",
                f"n={n}",
                diag_volume(n),
                projected[n - 1],
            )
        projected = _volume_projection(
            n_vol, lambda b, k, h: total_min(b, k, h, vbounds)
        )
        for n in range(1, n_vol + 1):
            report.check(
                f"volume/total/formula-vs-series/n={n:02d}",
                "formulas",
                "series",
                f"n={n}",
                p3dmin_volume(n),
                projected[n - 1],
            )

    if "formulas" in engines:
        for b in range(1, max_dim + 1):
            for k in range(b, max_dim + 1):
                report.check(
                    f"corner2d/closed-vs-recurrence/{b}x{k}",
                    "formulas",
                    "formulas",
                    f"({b},{k})",
                    p2d_corner(b, k),
                    p2d_corner_rec(b, k),
                )
        top = min(max_dim, 10)
        for b in range(1, top + 1):
            for k in range(b, top + 1):
                for h in range(k, top + 1):
                    rec = p3d_corner_rec(b, k, h)
                    closed = p3d_corner_closed(b, k, h)
                    if rec == closed:
                        report.check(
                            f"corner/closed-vs-recurrence/{b}x{k}x{h}",
                            "formulas",
                            "formulas",
                            f"({b},{k},{h})",
                            closed,
                            rec,
                        )
                    else:
                        report.errata.append(
                            Erratum(
                                paper_location="closed corner-count formula",
                                expected_source="corner recurrence",
                                observed=rec,
                                paper_value=closed,
                                note=f"closed form disagrees at ({b},{k},{h})",
                            )
                        )
    return report.finalize()
