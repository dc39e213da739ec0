"""Seeded workloads of the polyprism benchmark and the checks on their answers.

A workload is an endless sequence of rounds. A round is one fixed multiset
of CLI argv lists; the seed picks orientations, pairings and the order, so
every seed issues the same mix of op costs and two runs differ by machine
noise rather than by the luck of the draw. The program sees only the argv.

Every answer is checked against a value that does not come from the engine
under test: the paper's Table 1 and Table 2, the thickness-2 and thickness-3
closed forms (restated here), or ``golden.json``, which records for each
value the engines that vouched for it when it was written (see
``make_golden.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from math import comb
from pathlib import Path

FAMILIES = ("Diagonal", "TwoDxTwoD", "SkewCrossA", "SkewCrossB")
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Table 1 of the paper: minimal inscribed polycubes of the n x n x n prism,
# n = 1..8, per family and in total.
TABLE1 = {
    "diag": (1, 32, 2271, 79936, 2103269, 49998072, 1163531779, 27263453288),
    "p2dx2d": (0, 0, 66, 2256, 34092, 352992, 2994750, 22756896),
    "sca": (0, 0, 48, 3456, 85008, 1321344, 16174416, 172476672),
    "scb": (0, 0, 16, 1408, 33776, 505472, 5998512, 62474496),
    "total": (1, 32, 2401, 87056, 2256145, 52177880, 1188699457, 27521161352),
}
TABLE1_FAMILY = {"diag": "Diagonal", "p2dx2d": "TwoDxTwoD", "sca": "SkewCrossA", "scb": "SkewCrossB"}

# Table 2 of the paper: minimal inscribed polycubes of volume n, n = 1..10.
TABLE2 = (1, 3, 15, 83, 450, 2295, 10834, 47175, 190407, 719243)


def thickness2(b: int, k: int) -> int:
    """Minimal inscribed polycubes of the 2 x b x k prism (closed form)."""
    return (
        (16 * comb(b + k - 2, b - 1) - 4 * (b + k)) * (2 * b + 2 * k - 3)
        + 4 * (b - 2) * (k - 2)
        + (16 * (b + k - 2) - 12 * b * k) * (b + k - 1)
    )


def thickness3(b: int, k: int) -> int:
    """Minimal inscribed polycubes of the 3 x b x k prism (closed form)."""
    return (
        8 * (b**3 + k**3)
        - 12 * (b**3 * k + b * k**3)
        - 24 * b**2 * k**2
        - 46 * (b**2 + k**2)
        + 41 * (b**2 * k + b * k**2)
        - 93 * k * b
        + 58 * (b + k)
        - 8
        + 4 * comb(b + k - 2, b - 1) * (4 * b + 4 * k - 1) * (2 * b + 2 * k - 3)
    )


def dims_key(dims) -> str:
    """Golden-file key of a prism: its sides in ascending order."""
    return "x".join(str(s) for s in sorted(dims))


def shape_key(cells) -> str:
    """Canonical text of a shape given by its (x, y, z) cells."""
    return " ".join(f"{x},{y},{z}" for x, y, z in sorted(cells))


def shape_digest(keys) -> str:
    """Order-free digest of a set of shapes given by their keys."""
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()


# -- round contents ----------------------------------------------------------
#
# A full-scale round is COPIES builds of the lists below and takes 16-20 s at
# the reference speed of run.py, well over half of a 25 s run, so every run
# holds exactly one round and reports the same number of ops. "tiny" is for
# the benchmark's own tests.

SCALES = ("full", "tiny")
COPIES = {"series-cold": 3, "oracle-count": 2, "family-split": 2, "verify": 2}

SERIES_CUBES = {"full": range(6, 13), "tiny": range(3, 5)}
SERIES_LONG = {"full": range(10, 17), "tiny": range(5, 7)}
SERIES_SHORT = {
    "full": ((2, 2), (2, 3), (2, 5), (3, 3), (3, 4), (4, 4), (4, 5)),
    "tiny": ((2, 2), (2, 3)),
}
ORACLE_PRISMS = {
    "full": (
        (3, 3, 5), (2, 4, 6), (2, 5, 5), (3, 4, 4), (2, 4, 7), (3, 3, 6), (2, 3, 10),
        (2, 5, 6), (3, 4, 5), (2, 4, 8), (3, 3, 7), (4, 4, 4), (2, 5, 7), (2, 6, 6), (2, 4, 9),
    ),
    "tiny": ((2, 2, 3), (2, 3, 3), (2, 2, 4)),
}
CLASSIFY_PRISMS = {
    "full": (
        (2, 3, 4), (2, 4, 4), (3, 3, 3), (2, 3, 5), (2, 3, 6), (2, 4, 5), (2, 2, 6), (3, 3, 4),
    ),
    "tiny": ((2, 2, 3), (2, 3, 3)),
}
LIST_PRISMS = {
    "full": ((3, 3, 3), (2, 3, 4), (2, 3, 5), (3, 3, 4)),
    "tiny": ((2, 2, 3), (2, 3, 3)),
}
VERIFY_DIMS = {"full": (2, 3), "tiny": (2,)}
TABLE1_NMAX = {"full": range(4, 9), "tiny": range(2, 4)}
TABLE1_PER_ROUND = {"full": 2, "tiny": 1}
TABLE2_NMAX = {"full": (6, 7, 8, 9, 10) * 2, "tiny": (3, 4, 5)}


def _dims_argv(dims) -> list[str]:
    b, k, h = dims
    return ["--b", str(b), "--k", str(k), "--h", str(h)]


def _orient(rng: random.Random, dims) -> tuple[int, int, int]:
    return tuple(rng.sample(list(dims), 3))


def _series_cold(rng: random.Random, scale: str) -> list[list[str]]:
    shorts = list(SERIES_SHORT[scale])
    rng.shuffle(shorts)
    prisms = [(n, n, n) for n in SERIES_CUBES[scale]]
    prisms += [_orient(rng, (a, b, n)) for (a, b), n in zip(shorts, SERIES_LONG[scale])]
    return [["count", "--engine", "series", *_dims_argv(d)] for d in prisms]


def _oracle_count(rng: random.Random, scale: str) -> list[list[str]]:
    return [
        ["count", "--engine", "oracle", *_dims_argv(_orient(rng, d))]
        for d in ORACLE_PRISMS[scale]
    ]


def _family_split(rng: random.Random, scale: str) -> list[list[str]]:
    ops = [["classify", *_dims_argv(_orient(rng, d))] for d in CLASSIFY_PRISMS[scale]]
    # The largest prism, listed last, prints its Diagonal shapes, nearly all of
    # them: every round holds the op with the largest output, so the peak RSS
    # does not depend on the seed.
    families = [f for f in FAMILIES if f != "Diagonal"]
    rng.shuffle(families)
    prisms = LIST_PRISMS[scale]
    for family, d in zip((families + ["Diagonal"])[-len(prisms):], prisms):
        ops.append(["list", "--family", family, *_dims_argv(_orient(rng, d))])
    return ops


def _verify(rng: random.Random, scale: str) -> list[list[str]]:
    ops = [["verify", "--max-dim", str(d)] for d in VERIFY_DIMS[scale]]
    for n in rng.sample(list(TABLE1_NMAX[scale]), TABLE1_PER_ROUND[scale]):
        ops.append(["table1", "--nmax", str(n)])
    ops += [["table2", "--nmax", str(n)] for n in TABLE2_NMAX[scale]]
    return ops


BUILDERS = {
    "series-cold": _series_cold,
    "oracle-count": _oracle_count,
    "family-split": _family_split,
    "verify": _verify,
}


def rounds(workload: str, seed: int, scale: str = "full"):
    """Yield the workload's rounds, each a shuffled list of argv lists."""
    build = BUILDERS[workload]
    copies = COPIES[workload] if scale == "full" else 1
    rng = random.Random(f"{workload}/{scale}/{seed}")
    while True:
        ops = [op for _ in range(copies) for op in build(rng, scale)]
        rng.shuffle(ops)
        yield ops


# -- expected answers ---------------------------------------------------------


class References:
    """Expected answers, from sources independent of the engine under test."""

    def __init__(self):
        self.golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

    def count(self, dims) -> int:
        a, b, c = sorted(dims)
        if a == 2:
            return thickness2(b, c)
        if a == 3:
            return thickness3(b, c)
        if a == b == c and a <= len(TABLE1["total"]):
            return TABLE1["total"][a - 1]
        return self.golden["counts"][dims_key(dims)]["value"]

    def families(self, dims) -> dict[str, int]:
        a, b, c = sorted(dims)
        if a == b == c and a <= len(TABLE1["total"]):
            return {fam: TABLE1[row][a - 1] for row, fam in TABLE1_FAMILY.items()}
        return dict(self.golden["families"][dims_key(dims)]["value"])

    def family_digest(self, dims, family: str) -> str:
        return self.golden["families"][dims_key(dims)]["digest"][family]


# -- checks ----------------------------------------------------------------------


def check(argv: list[str], rc: int, text: str, refs: References) -> tuple[str | None, int]:
    """Judge one op's exit code and output.

    Returns the reason it is wrong (None when it is right) and the number of
    minimal polycubes the op enumerated, for shapes_per_s.
    """
    if rc != 0:
        return f"exit code {rc}", 0
    opts = dict(zip(argv[1::2], argv[2::2]))
    try:
        return _CHECKS[argv[0]](opts, text, refs)
    except (ValueError, IndexError) as exc:
        return f"malformed output: {exc}", 0


def _dims(opts) -> tuple[int, int, int]:
    return (int(opts["--b"]), int(opts["--k"]), int(opts["--h"]))


def _check_count(opts, text, refs):
    dims = _dims(opts)
    want = refs.count(dims)
    got = int(text.strip())
    if got != want:
        return f"count {got} != expected {want}", 0
    return None, (want if opts["--engine"] == "oracle" else 0)


def _check_classify(opts, text, refs):
    lines = text.splitlines()
    if lines[0] != "family,count":
        raise ValueError(f"header {lines[0]!r}")
    got = {}
    for line in lines[1:]:
        family, n = line.split(",")
        got[family] = int(n)
    want = refs.families(_dims(opts))
    if got != want:
        return f"families {got} != expected {want}", 0
    return None, sum(want.values())


def _check_list(opts, text, refs):
    dims = _dims(opts)
    family = opts["--family"]
    volume = sum(dims) - 2
    frame = sorted(range(3), key=lambda a: dims[a])  # axes in the golden frame
    header = "dims {} {} {}".format(*dims)
    shapes = set()
    for block in text.split("\n\n") if text.strip() else ():
        lines = block.strip().splitlines()
        if lines[0] != header:
            raise ValueError(f"header {lines[0]!r}")
        cells = {tuple(int(v) for v in line.split()) for line in lines[1:]}
        if len(cells) != volume or len(lines) - 1 != volume:
            return f"shape of {len(lines) - 1} cells, expected {volume}", 0
        for axis in range(3):
            side = [c[axis] for c in cells]
            if min(side) != 0 or max(side) != dims[axis] - 1:
                return "shape not inscribed", 0
        if not _connected(cells):
            return "shape not face-connected", 0
        key = shape_key(tuple(c[a] for a in frame) for c in cells)
        if key in shapes:
            return "shape listed twice", 0
        shapes.add(key)
    want = refs.families(dims)[family]
    if len(shapes) != want:
        return f"{len(shapes)} {family} shapes, expected {want}", 0
    if shape_digest(shapes) != refs.family_digest(dims, family):
        return f"{family} shapes differ from the golden set", 0
    return None, sum(refs.families(dims).values())


def _connected(cells: set) -> bool:
    start = next(iter(cells))
    seen = {start}
    todo = [start]
    while todo:
        x, y, z = todo.pop()
        for n in ((x + 1, y, z), (x - 1, y, z), (x, y + 1, z), (x, y - 1, z), (x, y, z + 1), (x, y, z - 1)):
            if n in cells and n not in seen:
                seen.add(n)
                todo.append(n)
    return len(seen) == len(cells)


def _check_table1(opts, text, refs):
    nmax = int(opts["--nmax"])
    lines = text.splitlines()
    if lines[0] != "row,n,engine,computed,reference,status":
        raise ValueError(f"header {lines[0]!r}")
    covered = set()
    for line in lines[1:]:
        row, n, engine, computed, reference, status = line.split(",")
        if row not in TABLE1:
            return f"table1 row {row!r} is not in Table 1", 0
        want = TABLE1[row][int(n) - 1]
        if int(computed) != want or int(reference) != want or status != "PASS":
            return f"table1 {row} n={n} {engine}: {computed} != Table 1 {want}", 0
        covered.add((row, int(n)))
    missing = {(row, n) for row in TABLE1 for n in range(1, nmax + 1)} - covered
    if missing:
        return f"table1 rows missing: {sorted(missing)}", 0
    return None, 0


def _check_table2(opts, text, refs):
    nmax = int(opts["--nmax"])
    lines = text.splitlines()
    if lines[0] != "n,engine,computed,reference,status":
        raise ValueError(f"header {lines[0]!r}")
    covered = set()
    for line in lines[1:]:
        n, engine, computed, reference, status = line.split(",")
        want = TABLE2[int(n) - 1]
        if int(computed) != want or int(reference) != want or status != "PASS":
            return f"table2 n={n} {engine}: {computed} != Table 2 {want}", 0
        covered.add(int(n))
    if covered != set(range(1, nmax + 1)):
        return f"table2 covers {sorted(covered)}, expected 1..{nmax}", 0
    return None, 0


_SUMMARY = re.compile(r"(\d+) checks, (\d+) failures, (\d+) errata")


def _check_verify(opts, text, refs):
    lines = text.splitlines()
    summary = _SUMMARY.fullmatch(lines[-1])
    if summary is None:
        raise ValueError(f"summary {lines[-1]!r}")
    checks, failures, errata = (int(g) for g in summary.groups())
    rows = lines[1:-1]
    if failures or errata or checks != len(rows) or not rows:
        return f"verify summary {lines[-1]!r} over {len(rows)} rows", 0
    for row in rows:
        # check-id, "A vs B" engines, "x vs y" values, status
        tokens = row.split()
        if tokens[-1] != "PASS" or tokens[-3] != "vs" or tokens[-4] != tokens[-2]:
            return f"verify row {row!r}", 0
    return None, 0


_CHECKS = {
    "count": _check_count,
    "classify": _check_classify,
    "list": _check_list,
    "table1": _check_table1,
    "table2": _check_table2,
    "verify": _check_verify,
}
