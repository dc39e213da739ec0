#!/usr/bin/env python3
"""Write perfbench/golden.json, the expected answers the workloads look up.

Every prism the workloads can issue is computed by each engine that reaches
it at desk-scale cost: the series, the oracle (up to ~100 k shapes), the
thickness-2/3 closed forms and Table 1. The engines must agree, and each
record lists those that vouched for it. ``list`` ops are also pinned by a
digest of each family's shapes, from the oracle and its classifier.

Run from the repository root (takes about two minutes)::

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polyprism import (  # noqa: E402
    GF_VALIDITY,
    PrismDims,
    classify,
    count_by_family,
    count_min_inscribed,
    expand,
    iter_min_inscribed,
    p3dmin_thickness2,
    p3dmin_thickness3,
    total_min,
)

import run  # noqa: E402
from workloads import (  # noqa: E402
    CLASSIFY_PRISMS,
    FAMILIES,
    GOLDEN_PATH,
    LIST_PRISMS,
    ORACLE_PRISMS,
    SERIES_CUBES,
    SERIES_LONG,
    SERIES_SHORT,
    TABLE1,
    TABLE1_FAMILY,
    dims_key,
    shape_digest,
    shape_key,
)

ORACLE_LIMIT = 100_000
SERIES_NAME = {"Diagonal": "Diag", "TwoDxTwoD": "P2Dx2D", "SkewCrossA": "SCa", "SkewCrossB": "SCb"}


def _agree(dims, values: dict) -> dict:
    distinct = {json.dumps(v, sort_keys=True) for v in values.values()}
    if len(distinct) != 1:
        raise SystemExit(f"engines disagree on {dims}: {values}")
    return {"value": next(iter(values.values())), "vouched": sorted(values)}


def count_record(dims) -> dict:
    a, b, c = dims
    values = {"series": total_min(a, b, c)}
    if values["series"] <= ORACLE_LIMIT:
        values["oracle"] = count_min_inscribed(PrismDims(a, b, c))
    if a == 2:
        values["formula"] = p3dmin_thickness2(b, c)
    elif a == 3:
        values["formula"] = p3dmin_thickness3(b, c)
    if a == b == c and a <= len(TABLE1["total"]):
        values["table1"] = TABLE1["total"][a - 1]
    return _agree(dims, values)


def family_record(dims, listed: bool) -> dict:
    m = max(dims)
    series = {}
    for family, name in SERIES_NAME.items():
        inside = tuple(dims) >= GF_VALIDITY[name]
        series[family] = expand(name, (m, m, m)).coeff(*dims) if inside else 0
    oracle = {tag.value: n for tag, n in count_by_family(PrismDims(*dims)).items()}
    values = {"series": series, "oracle": oracle}
    a, b, c = dims
    if a == b == c and a <= len(TABLE1["total"]):
        values["table1"] = {fam: TABLE1[row][a - 1] for row, fam in TABLE1_FAMILY.items()}
    record = _agree(dims, values)
    if listed:
        shapes = {family: [] for family in FAMILIES}
        for p in iter_min_inscribed(PrismDims(*dims)):
            shapes[classify(p).value].append(shape_key(c.as_tuple() for c in p))
        record["digest"] = {family: shape_digest(s) for family, s in shapes.items()}
        record["digest_by"] = "oracle"
    return record


def main() -> None:
    counts = set()
    for scale in SERIES_CUBES:
        counts |= {(n, n, n) for n in SERIES_CUBES[scale]}
        counts |= {
            tuple(sorted((a, b, n))) for a, b in SERIES_SHORT[scale] for n in SERIES_LONG[scale]
        }
        counts |= {tuple(sorted(d)) for d in ORACLE_PRISMS[scale]}
    listed = {tuple(sorted(d)) for scale in LIST_PRISMS for d in LIST_PRISMS[scale]}
    classified = listed | {tuple(sorted(d)) for s in CLASSIFY_PRISMS for d in CLASSIFY_PRISMS[s]}
    golden = {
        "written_at": run.git_commit(),
        "counts": {dims_key(d): count_record(d) for d in sorted(counts)},
        "families": {dims_key(d): family_record(d, d in listed) for d in sorted(classified)},
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}: {len(golden['counts'])} counts, {len(golden['families'])} prisms")


if __name__ == "__main__":
    main()
