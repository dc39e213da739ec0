#!/usr/bin/env python3
"""Benchmark of the polyprism command line: one closed-loop client.

Run from the repository root, with the standard library only::

    python3 perfbench/run.py --workload series-cold --seed 1 --seconds 25 --trace 0

Each op is ``polyprism.cli.run(argv, out=StringIO)`` in this process, one op
in flight at a time, after every functools cache of the package is cleared:
a real CLI call is a fresh process that starts with cold caches. Ops come in
rounds (see ``workloads.py``), and whole rounds run until the next one would
end after ``--seconds`` of op time at reference speed. Every answer is
checked.

Op times are reported at a reference machine speed. On a shared 2-core
x86 host, neighbours on the same cores slowed interpreted code by up to
1.7x for seconds at a time, which spread 30 s runs of one seed by a
quarter. A fixed
pure-Python loop is timed right before and right after every op, and the
op's wall time is divided by the loop's slowdown against ``CAL_REF_S``
(the wall figures are printed too). On a quiet machine the two agree.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
every op runs twice, untraced and then traced (see ``tracing.py``); the two
answers must agree, and the metrics are the per-layer ones. Lines before
the last give the run's provenance and every metric with its unit; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record, spans included, goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tomllib
import traceback
from pathlib import Path

from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import BUILDERS, SCALES, References, check, rounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
SETUP_PROBES = 11
CAL_LOOPS = 20_000
CAL_REF_S = 0.002  # the loop's time on an idle core of a 2.1 GHz Xeon

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Time from a fresh interpreter's `import polyprism` until an op can be issued.
_SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import polyprism, polyprism.cli
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_package():
    """Import polyprism from this checkout's ``src``, never from elsewhere."""
    home = SRC / "polyprism"
    if not (home / "__init__.py").is_file():
        raise BenchError(f"no polyprism sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("polyprism")
    if Path(pkg.__file__).resolve().parent != home.resolve():
        raise BenchError(f"imported polyprism from {pkg.__file__}, not {home}")
    for name in ("cli", "core", "formulas", "oracle", "series", "verify"):
        importlib.import_module(f"polyprism.{name}")
    return pkg


def package_caches() -> list:
    """Every functools cache held at module level by polyprism's modules."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "polyprism" or name.startswith("polyprism."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def slowdown() -> float:
    """How many times slower than ``CAL_REF_S`` the calibration loop runs now."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(CAL_LOOPS):
            d[i & 255] = d.get(i & 255, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best / CAL_REF_S


def setup_seconds() -> float:
    """Median import time over fresh interpreters; the first may compile bytecode."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        before = slowdown()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout) * 2 / (before + slowdown()))
    return statistics.median(times[1:])


def quantile(values: list[float], p: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of the order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    mass of each 1/n slice of [0, 1], found by the midpoint rule. Unlike a
    single order statistic it does not jump when two ops of different
    sizes swap places, which halves the spread of p50 between runs.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [
        (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
        for x in ((j + 0.5) / (n * steps) for j in range(n * steps))
    ]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: (value, percentile)."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0
    p = (n - 10) / n
    return quantile(latencies, p), 100.0 * p


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _version() -> str | None:
    try:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            return tomllib.load(fh)["project"]["version"]
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "polyprism").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        # series falls back to plain int without a word when gmpy2 is missing.
        "backend": "gmpy2" if "gmpy2" in sys.modules else "int",
        "polyprism_version": _version(),
        "git_commit": git_commit(),
        "src_sha256": _src_sha256(),
        "polycube_threads": os.environ.get("POLYCUBE_THREADS"),
    }


def _run_op(run, argv, caches):
    """One op from cold caches.

    Returns (seconds at reference speed, wall seconds, exit code, output,
    error or None).
    """
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    out = io.StringIO()
    before = slowdown()
    t0 = time.perf_counter()
    try:
        rc, error = run(argv, out), None
    except Exception as exc:  # an op that raises is a failed op; the loop goes on
        rc, error = None, exc
    wall = time.perf_counter() - t0
    scaled = wall * 2 / (before + slowdown())
    if error is not None:
        traceback.print_exception(error)
        error = f"{type(error).__name__}: {error}"
    return scaled, wall, rc, out.getvalue(), error


def run_workload(pkg, workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", refs: References | None = None) -> dict:
    """Run whole rounds of the workload for about ``seconds``; return the record."""
    refs = refs if refs is not None else References()
    caches = package_caches()
    cache_info = getattr(pkg.series.expand, "cache_info", None)
    tracer = Tracer(pkg) if trace else None
    cli_run = pkg.cli.run
    records: list[dict] = []
    hits = misses = 0
    elapsed = last_round = 0.0
    for n_rounds, ops in enumerate(rounds(workload, seed, scale)):
        if n_rounds and elapsed + last_round > seconds:
            break
        done = len(records)
        for argv in ops:
            s, wall, rc, text, error = _run_op(lambda a, o: cli_run(a, out=o), argv, caches)
            fail, shapes = (error, 0) if error else check(argv, rc, text, refs)
            rec = {"argv": argv, "s": s, "wall_s": wall, "fail": fail, "shapes": shapes}
            if tracer is not None:
                op = len(records)
                t_s, t_wall, t_rc, t_text, t_error = _run_op(
                    lambda a, o: tracer.run_op(op, a, o), argv, caches
                )
                rec["traced_s"] = t_s
                rec["traced_wall_s"] = t_wall
                if fail is None and (t_error or t_rc != rc or t_text != text):
                    rec["fail"] = t_error or "traced answer differs from untraced"
            if cache_info is not None:
                info = cache_info()
                hits += info.hits
                misses += info.misses
            records.append(rec)
        last_round = sum(r["s"] + r.get("traced_s", 0.0) for r in records[done:])
        elapsed += last_round
    attempted = len(records)
    failed = sum(r["fail"] is not None for r in records)
    op_s = sum(r["s"] for r in records)
    wall_s = sum(r["wall_s"] for r in records)
    extra = {
        "fail_frac": failed / attempted,
        "shapes_per_s": sum(r["shapes"] for r in records) / op_s,
        "ops_per_s_wall": (attempted - failed) / wall_s,
        "slowdown": wall_s / op_s,
    }
    if tracer is None:
        latencies = [r["s"] for r in records]
        tail_s, tail_pct = tail(latencies)
        metrics = {
            "ops_per_s": (attempted - failed) / op_s,
            "op_p50_ms": 1e3 * quantile(latencies, 0.5),
            "op_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_seconds(),
        }
        extra.update(op_tail_percentile=tail_pct, op_samples=attempted)
    else:
        metrics = layer_metrics(tracer.spans, sum(r["traced_wall_s"] for r in records))
        metrics.update(fail_frac=extra["fail_frac"], shapes_per_s=extra["shapes_per_s"])
        metrics["series.cache_hits"] = hits
        metrics["series.cache_misses"] = misses
        metrics["trace_overhead"] = op_s / sum(r["traced_s"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "records": records,
        "spans": tracer.spans if tracer is not None else [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=SCALES, default="full",
        help="op sizes; 'tiny' keeps the benchmark's own tests to seconds",
    )
    args = parser.parse_args(argv)
    threads = os.environ.get("POLYCUBE_THREADS", "")
    if threads not in ("", "1"):
        print(f"refusing to run with POLYCUBE_THREADS={threads}: the benchmark "
              "measures one single-process client", file=sys.stderr)
        return 2
    try:
        pkg = load_package()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    prov = provenance(args)
    result = run_workload(pkg, args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    executed = [r["argv"] for r in result["records"]]
    prov["argv_sha256"] = hashlib.sha256(json.dumps(executed).encode()).hexdigest()
    prov["argv"] = executed

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, **{k: v for k, v in result.items() if k != "metrics"},
                   "metrics": metrics}, fh)
        fh.write("\n")

    print("provenance " + json.dumps(prov))
    for rec in result["records"]:
        if rec["fail"] is not None:
            print(f"FAILED {' '.join(rec['argv'])}: {rec['fail']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    extra = result["extra"]
    if not args.trace:
        print(f"fail_frac {extra['fail_frac']:.6g} ratio")
        print(f"shapes_per_s {extra['shapes_per_s']:.6g} 1/s")
        print(f"op_tail_ms is p{extra['op_tail_percentile']:.1f} of {extra['op_samples']} ops")
    print(f"ops_per_s_wall {extra['ops_per_s_wall']:.6g} 1/s (unscaled)")
    print(f"slowdown {extra['slowdown']:.4g} (mean wall time over time at reference speed)")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
