"""Command-line front end over the counting engines.

The CLI is a thin shell: all computation and the oracle's concurrency live
in the library modules. Exit codes: 0 success (verify: no failures or
errata), 1 verify found errata only, 2 verify found failed checks,
3 internal fault (a bug, reported with its traceback), 64 usage error
(bad arguments or a bad POLYCUBE_THREADS), 70 count overflow, 73 the
--out or --report file cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .core import CountOverflowError, FamilyTag, PrismDims, format_polycube
from .formulas import p2d_min, p3dmin_thickness2, p3dmin_thickness3
from .oracle import (
    ThreadsSettingError,
    count_by_family,
    count_min_inscribed,
    iter_min_inscribed,
)
from .series import UnknownSeriesError, catalog_names, expand, to_csv, total_min
from .verify import crosscheck, reproduce_table1, reproduce_table2

EX_INTERNAL = 3
EX_USAGE = 64
EX_OVERFLOW = 70
EX_CANTCREAT = 73


class UsageError(Exception):
    pass


class OutputError(Exception):
    """An output file named on the command line cannot be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 64 instead of argparse's 2
        raise UsageError(message)


def _int_in(lo: int, hi: int | None = None) -> Callable[[str], int]:
    """Argument type: an integer in lo..hi (no upper limit when hi is None)."""
    allowed = f"{lo}..{hi}" if hi is not None else f">= {lo}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(
                f"expected an integer {allowed}, got {text!r}"
            )
        return value

    return parse


def _bounds(text: str) -> tuple[int, int, int]:
    """Argument type: BX,BY,BZ as three non-negative integers."""
    try:
        bounds = tuple(int(v) for v in text.split(","))
    except ValueError:
        bounds = ()
    if len(bounds) != 3 or min(bounds) < 0:
        raise argparse.ArgumentTypeError(
            f"expected BX,BY,BZ as non-negative integers, got {text!r}"
        )
    return bounds


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyprism", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def dims_args(p: _Parser) -> None:
        p.add_argument("--b", type=_int_in(1), required=True)
        p.add_argument("--k", type=_int_in(1), required=True)
        p.add_argument("--h", type=_int_in(1), required=True)

    count = sub.add_parser("count", help="count minimal inscribed polycubes")
    dims_args(count)
    count.add_argument(
        "--engine", choices=("oracle", "formula", "series"), required=True
    )

    table1 = sub.add_parser("table1", help="reproduce the cubic-prism table")
    table1.add_argument("--nmax", type=_int_in(1, 8), default=8)

    table2 = sub.add_parser("table2", help="reproduce the volume table")
    table2.add_argument("--nmax", type=_int_in(1, 10), default=10)

    verify = sub.add_parser("verify", help="cross-check all engines")
    # crosscheck expands the series on the (max(d, 8) + 2)-cube, and Diag
    # exceeds the 127-bit count cap on 28^3
    verify.add_argument("--max-dim", type=_int_in(2, 25), default=4)
    verify.add_argument("--report", help="write the JSON report to this file")

    lst = sub.add_parser("list", help="stream minimal inscribed polycubes")
    dims_args(lst)
    lst.add_argument("--family", choices=[t.value for t in FamilyTag])

    cls = sub.add_parser("classify", help="per-family counts as CSV")
    dims_args(cls)

    exp = sub.add_parser("expand", help="export series coefficients as CSV")
    exp.add_argument("--gf", required=True, help="catalog name")
    exp.add_argument("--bounds", type=_bounds, required=True, help="BX,BY,BZ")
    exp.add_argument("--out", help="output file (default: standard output)")
    return parser


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _count_formula(b: int, k: int, h: int) -> int:
    sides = sorted((b, k, h))
    if sides[0] == 1:
        return p2d_min(sides[1], sides[2])
    if sides[0] == 2:
        return p3dmin_thickness2(sides[1], sides[2])
    if sides[0] == 3:
        return p3dmin_thickness3(sides[1], sides[2])
    raise UsageError(
        "no closed formula for thickness >= 4; use --engine series instead"
    )


def _cmd_count(args: argparse.Namespace, out) -> int:
    dims = PrismDims(args.b, args.k, args.h)
    if args.engine == "oracle":
        value = count_min_inscribed(dims)
    elif args.engine == "formula":
        value = _count_formula(args.b, args.k, args.h)
    else:
        value = total_min(args.b, args.k, args.h)
    print(value, file=out)
    return 0


def _cmd_table1(args: argparse.Namespace, out) -> int:
    report = reproduce_table1(args.nmax)
    print("row,n,engine,computed,reference,status", file=out)
    for r in report.runs:
        _, row, n_part, engine = r.check_id.split("/")
        n = n_part.removeprefix("n=")
        status = "PASS" if r.passed else "FAIL"
        print(f"{row},{n},{engine},{r.value_a},{r.value_b},{status}", file=out)
    return 0 if report.passed else 2


def _cmd_table2(args: argparse.Namespace, out) -> int:
    report = reproduce_table2(args.nmax)
    print("n,engine,computed,reference,status", file=out)
    for r in report.runs:
        engine = r.check_id.rsplit("/", 1)[1]
        n = r.input.removeprefix("n=")
        status = "PASS" if r.passed else "FAIL"
        print(f"{n},{engine},{r.value_a},{r.value_b},{status}", file=out)
    return 0 if report.passed else 2


def _cmd_verify(args: argparse.Namespace, out) -> int:
    report = crosscheck(args.max_dim)
    report.extend(reproduce_table1(min(args.max_dim * 2, 8)))
    report.extend(reproduce_table2())
    report.finalize()
    print(report.format_table(), end="", file=out)
    if args.report:
        _write(args.report, report.to_json())
    return report.exit_code()


def _cmd_list(args: argparse.Namespace, out) -> int:
    wanted = FamilyTag(args.family) if args.family else None
    first = True
    for p in iter_min_inscribed(PrismDims(args.b, args.k, args.h), wanted):
        if not first:
            print(file=out)
        print(format_polycube(p), file=out)
        first = False
    return 0


def _cmd_classify(args: argparse.Namespace, out) -> int:
    counts = count_by_family(PrismDims(args.b, args.k, args.h))
    print("family,count", file=out)
    for tag in FamilyTag:
        print(f"{tag.value},{counts[tag]}", file=out)
    return 0


def _cmd_expand(args: argparse.Namespace, out) -> int:
    try:
        csv = to_csv(expand(args.gf, args.bounds))
    except UnknownSeriesError:
        raise UsageError(
            f"unknown generating function {args.gf!r}; "
            f"known: {', '.join(catalog_names())}"
        ) from None
    if args.out:
        _write(args.out, csv)
    else:
        out.write(csv)
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "verify": _cmd_verify,
    "list": _cmd_list,
    "classify": _cmd_classify,
    "expand": _cmd_expand,
}


def run(argv: Sequence[str] | None = None, out=None) -> int:
    """Execute one CLI command and return its exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except (UsageError, ThreadsSettingError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except CountOverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EX_OVERFLOW
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EX_CANTCREAT
    except Exception as exc:  # the parser validated the input, so this is a bug
        import traceback

        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
