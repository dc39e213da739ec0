"""Spans around the calls between polyprism's layers, for the traced run.

While an op runs traced, the tracer replaces the names through which one
layer calls another: every function that ``cli`` and ``verify`` import from
another polyprism module, ``series.expand`` and ``series.p2d_min`` (the
names ``total_min`` looks up), and ``TruncatedSeries.__mul__`` and ``div``.
No file of the program changes. Spans stay in memory as
``(op, name, start, end, parent, overhead, info)``; ``overhead`` is the
wrapper's own time outside ``[start, end]``, which the parent's self time
leaves out. A span's self time is its duration minus the time its children
take, overhead included.

``count_by_family`` and ``iter_min_inscribed`` run the search and then
classify or build ``Polycube`` objects in one call. Their wrappers time a
``count_min_inscribed`` of the same prism afterwards, as overhead, and take
that as the search's part of the call.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

# name, unit; the metrics of a traced run, in BENCHMARK.json's order.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("oracle.search_s", "s"),
    ("oracle.us_per_shape", "us"),
    ("oracle.shapes", "count"),
    ("oracle.calls", "count"),
    ("oracle.classify_s", "s"),
    ("oracle.classify_us_per_shape", "us"),
    ("core.self_s", "s"),
    ("core.polycube_us_per_shape", "us"),
    ("series.self_s", "s"),
    ("series.expand_s", "s"),
    ("series.expand.Diag_s", "s"),
    ("series.expand.P2Dx2D_s", "s"),
    ("series.expand.SC_s", "s"),
    ("series.expand.SCa_s", "s"),
    ("series.expand.SCb_s", "s"),
    ("series.mul_calls", "count"),
    ("series.mul_s", "s"),
    ("series.mul_operand_bits", "bit"),
    ("series.div_calls", "count"),
    ("series.div_s", "s"),
    ("series.div_cells", "count"),
    ("series.other_s", "s"),
    ("series.cache_hits", "count"),
    ("series.cache_misses", "count"),
    ("formulas.calls", "count"),
    ("formulas.s", "s"),
    ("verify.checks", "count"),
    ("verify.self_s", "s"),
    ("trace.accounted", "ratio"),
    ("trace_overhead", "ratio"),
    ("shapes_per_s", "1/s"),
    ("fail_frac", "ratio"),
)

EXPANDED = ("Diag", "P2Dx2D", "SC", "SCa", "SCb")
# Layers whose self times add up to the traced op time.
LAYERS = ("cli", "oracle.search", "oracle.classify", "core", "series", "formulas", "verify")


def _grid_cells(s) -> int:
    bx, by, bz = s.bounds
    return (bx + 1) * (by + 1) * (bz + 1)


def _operand_bits(s) -> int:
    top = max((abs(v) for _, v in s.items()), default=0)
    return _grid_cells(s) * top.bit_length()


class Tracer:
    """Records spans at polyprism's layer boundaries while installed."""

    def __init__(self, pkg):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._cli = pkg.cli
        oracle, series = pkg.oracle, pkg.series
        self._count_min_inscribed = oracle.count_min_inscribed
        info = {
            "oracle.count_min_inscribed": lambda args, r: {"shapes": r},
            "oracle.count_min_corner": lambda args, r: {"shapes": r},
            "oracle.count_2d_min": lambda args, r: {"shapes": r},
            "oracle.weighted_2d_count": lambda args, r: {
                "shapes": oracle.count_2d_min(*args[:2])
            },
            "oracle.count_by_family": self._probe_search,
            "oracle.iter_min_inscribed": self._probe_search,
            "verify.crosscheck": lambda args, r: {"checks": len(r.runs)},
            "verify.reproduce_table1": lambda args, r: {"checks": len(r.runs)},
            "verify.reproduce_table2": lambda args, r: {"checks": len(r.runs)},
            "series.expand": lambda args, r: {"gf": args[0]},
            "series.mul": lambda args, r: {
                "bits": _operand_bits(args[0]) + _operand_bits(args[1])
            },
            "series.div": lambda args, r: {
                "cells": _grid_cells(args[0]) * (sum(1 for _ in args[1].items()) - 1)
            },
        }
        points = []
        for caller in (pkg.cli, pkg.verify):
            for attr, fn in vars(caller).items():
                home = getattr(fn, "__module__", None) or ""
                if (
                    callable(fn)
                    and not inspect.isclass(fn)
                    and home.startswith("polyprism.")
                    and home != caller.__name__
                ):
                    points.append((caller, attr, f"{home.split('.')[-1]}.{attr}"))
        points += [
            (series, "expand", "series.expand"),
            (series, "p2d_min", "formulas.p2d_min"),
            (series.TruncatedSeries, "__mul__", "series.mul"),
            (series.TruncatedSeries, "div", "series.div"),
        ]
        self._patches = [
            (owner, attr, getattr(owner, attr), self.wrap(name, getattr(owner, attr), info.get(name)))
            for owner, attr, name in points
        ]

    def _probe_search(self, args, result) -> dict:
        t0 = time.perf_counter()
        shapes = self._count_min_inscribed(args[0])
        return {"shapes": shapes, "search_s": time.perf_counter() - t0}

    def wrap(self, name, fn, info=None):
        """``fn`` recording one span per call, with ``info(args, result)``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent, start - entered, None)
                raise
            end = clock()
            stack.pop()
            extra = info(args, result) if info is not None else None
            spans[idx] = (self.op, name, start, end, parent, (start - entered) + (clock() - end), extra)
            return result

        return traced

    def run_op(self, op: int, argv, out) -> int:
        """Run one CLI op with every wrapper installed."""
        self.op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return self.wrap("cli.run", self._cli.run)(argv, out)
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)


def _bucket(name: str) -> str:
    layer = name.split(".")[0]
    if layer == "oracle":
        return "oracle.classify" if name == "oracle.classify" else "oracle.search"
    return layer


def layer_metrics(spans: list, traced_s: float) -> dict[str, float]:
    """Per-layer figures of a traced run from its spans.

    ``traced_s`` is the summed traced op time measured around each op.
    """
    children = [0.0] * len(spans)
    for _, _, start, end, parent, overhead, _ in spans:
        if parent >= 0:
            children[parent] += (end - start) + overhead
    layer_s = defaultdict(float)
    m = defaultdict(float)
    overhead_s = 0.0
    for i, (_, name, start, end, parent, overhead, info) in enumerate(spans):
        own = (end - start) - children[i]
        if parent >= 0:
            overhead_s += overhead
        info = info or {}
        if name in ("oracle.count_by_family", "oracle.iter_min_inscribed"):
            search = min(info.get("search_s", 0.0), own)
            layer_s["oracle.search"] += search
            rest = "oracle.classify" if name == "oracle.count_by_family" else "core"
            layer_s[rest] += own - search
            if name == "oracle.count_by_family":
                m["classified"] += info.get("shapes", 0)
            else:
                m["built"] += info.get("shapes", 0)
                m["build_s"] += own - search
        else:
            layer_s[_bucket(name)] += own
        if name.startswith("oracle.") and name != "oracle.classify":
            m["oracle.calls"] += 1
            m["oracle.shapes"] += info.get("shapes", 0)
        elif name == "oracle.classify":
            m["classified"] += 1
        elif name == "series.expand":
            m["series.expand_s"] += end - start
            m["series.other_s"] += own
            if info.get("gf") in EXPANDED:
                m[f"series.expand.{info['gf']}_s"] += end - start
        elif name == "series.mul":
            m["series.mul_calls"] += 1
            m["series.mul_s"] += end - start
            m["series.mul_operand_bits"] += info.get("bits", 0)
        elif name == "series.div":
            m["series.div_calls"] += 1
            m["series.div_s"] += end - start
            m["series.div_cells"] += info.get("cells", 0)
        elif name.startswith("formulas."):
            m["formulas.calls"] += 1
        elif name.startswith("verify."):
            m["verify.checks"] += info.get("checks", 0)

    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update({k: v for k, v in m.items() if k in out})
    out["cli.self_s"] = layer_s["cli"]
    out["oracle.search_s"] = layer_s["oracle.search"]
    out["oracle.classify_s"] = layer_s["oracle.classify"]
    out["core.self_s"] = layer_s["core"]
    out["series.self_s"] = layer_s["series"]
    out["formulas.s"] = layer_s["formulas"]
    out["verify.self_s"] = layer_s["verify"]
    if m["oracle.shapes"]:
        out["oracle.us_per_shape"] = 1e6 * layer_s["oracle.search"] / m["oracle.shapes"]
    if m["classified"]:
        out["oracle.classify_us_per_shape"] = 1e6 * layer_s["oracle.classify"] / m["classified"]
    if m["built"]:
        out["core.polycube_us_per_shape"] = 1e6 * m["build_s"] / m["built"]
    if traced_s > overhead_s:
        out["trace.accounted"] = sum(layer_s[k] for k in LAYERS) / (traced_s - overhead_s)
    return out
