"""End-to-end smoke runs of the benchmark and its contract with BENCHMARK.json."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import metrics
from workloads import WORKLOADS

from conftest import BENCH, ROOT


def run(*args, cwd=ROOT, bench=BENCH):
    cmd = [sys.executable, os.path.join(bench, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.splitlines()
    return json.loads(record), json.loads(result)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload):
    record, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert record["wrong_share"] == 0.0
    assert record["provenance"]["backend"] == ["python"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: spec[0] for k, spec in metrics.END_TO_END.items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["search-cold", "labeled-jobs2"])
def test_traced_smoke_run_accounts_for_the_sweep(workload):
    record, result = smoke(workload, 1)
    assert result["correct"]
    assert set(result["metrics"]) == set(metrics.PER_LAYER)
    found = record["metrics"]
    layers = sum(found[f"{layer}.self_s"] for layer in metrics.LAYERS)
    (traced_wall,) = record["samples"]["traced_sweep_wall_s"]
    assert layers == pytest.approx(traced_wall, rel=0.02, abs=0.005)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run("--workload", "labeled-sweep", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path, bench=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == metrics.PER_LAYER

