"""Tests of the benchmark itself, at the tiny scale: seconds, not minutes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import BUILDERS, References, check, rounds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _dims(opts: dict) -> tuple[int, int, int]:
    return (int(opts["--b"]), int(opts["--k"]), int(opts["--h"]))


def _tiny(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "0.1",
            "--trace", str(trace), "--scale", "tiny"]


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


def test_spec_names_the_workloads_and_metrics_the_code_has():
    assert sorted(WORKLOADS) == sorted(BUILDERS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_prints_every_end_to_end_metric(workload):
    proc = _bench(*_tiny(workload, 0))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("fail_frac", "shapes_per_s", "op_tail_ms is p"):
        assert any(line.startswith(name) for line in lines), name
    assert lines[0].startswith("provenance ")
    prov = json.loads(lines[0].removeprefix("provenance "))
    assert prov["backend"] in ("gmpy2", "int") and prov["seed"] == 3 and prov["argv"]


def test_traced_run_prints_every_per_layer_metric():
    proc = _bench(*_tiny("verify", 1))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_answers_match_and_self_times_account_for_op_time(pkg, workload):
    result = run.run_workload(pkg, workload, 1, 0.1, True, "tiny")
    assert result["correct"], [r["fail"] for r in result["records"]]
    m = result["metrics"]
    assert 0.95 < m["trace.accounted"] <= 1.0 + 1e-9
    assert 0.5 < m["trace_overhead"] < 2
    ops = {span[0] for span in result["spans"]}
    assert ops == set(range(result["attempted"]))


def test_layers_show_up_where_the_workloads_put_them(pkg):
    series = run.run_workload(pkg, "series-cold", 1, 0.1, True, "tiny")["metrics"]
    oracle = run.run_workload(pkg, "oracle-count", 1, 0.1, True, "tiny")["metrics"]
    verify = run.run_workload(pkg, "verify", 1, 0.1, True, "tiny")["metrics"]
    assert series["series.mul_calls"] > 0 and series["oracle.calls"] == 0
    assert series["series.cache_hits"] == 0 and oracle["series.cache_hits"] == 0
    assert oracle["oracle.shapes"] > 0 and oracle["series.expand_s"] == 0
    assert verify["series.cache_hits"] > 0 and verify["formulas.calls"] > 0
    assert verify["verify.checks"] > 0


class _OffByOne(References):
    def count(self, dims):
        value = super().count(dims)
        return value + 1 if sorted(dims) == [2, 2, 3] else value


def test_a_wrong_expected_value_shows_in_fail_frac(pkg):
    result = run.run_workload(pkg, "oracle-count", 1, 0.1, False, "tiny", refs=_OffByOne())
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert result["extra"]["fail_frac"] == result["failed"] / result["attempted"]


def test_list_check_rejects_bad_shapes():
    refs = References()
    argv = ["list", "--family", "Diagonal", "--b", "2", "--k", "2", "--h", "3"]
    flat = "dims 2 2 3\n0 0 0\n0 0 1\n0 0 2\n0 1 0\n0 1 1"  # misses the x = 1 face
    assert check(argv, 0, flat + "\n", refs)[0] == "shape not inscribed"
    shape = "dims 2 2 3\n0 0 0\n0 0 1\n0 0 2\n0 1 0\n1 0 0"
    assert check(argv, 0, shape + "\n\n" + shape + "\n", refs)[0] == "shape listed twice"
    assert check(argv, 2, "", refs)[0] == "exit code 2"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_inputs_and_every_op_has_an_expected_answer(workload):
    assert next(rounds(workload, 7)) == next(rounds(workload, 7))
    refs = References()
    for seed in range(10):
        for argv in next(rounds(workload, seed)):
            opts = dict(zip(argv[1::2], argv[2::2]))
            if argv[0] == "count":
                assert refs.count(_dims(opts)) > 0
            if argv[0] in ("classify", "list"):
                assert sum(refs.families(_dims(opts)).values()) == refs.count(_dims(opts))
            if argv[0] == "list":
                assert refs.family_digest(_dims(opts), opts["--family"])


def test_quantiles_of_a_uniform_sample():
    values = [float(i) for i in range(1, 101)]
    assert run.quantile(values, 0.5) == pytest.approx(50.5)
    assert run.quantile(values, 0.9) == pytest.approx(90.5)
    value, percentile = run.tail(values[:30])
    assert percentile == pytest.approx(100 * 20 / 30)
    assert value == pytest.approx(20.5, abs=0.3)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_refuses_to_run_with_several_oracle_threads():
    proc = _bench(*_tiny("oracle-count", 0), env={**os.environ, "POLYCUBE_THREADS": "2"})
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(*_tiny("series-cold", 0), cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
