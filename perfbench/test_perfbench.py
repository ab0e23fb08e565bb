"""Tests of the benchmark itself: every workload and check in smoke mode.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.LAYER_METRICS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_every_check(workload, trace):
    result = _run(["--workload", workload, "--seed", "11", "--smoke", "--trace", trace])
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    listed = layers.LAYER_METRICS if trace == "1" else run.E2E_METRICS
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == list(listed)
    if trace == "0":
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    result = _run(["--workload", "proxy_day", "--seed", "5", "--seconds", "1"], cwd=str(tmp_path))
    assert result.returncode != 0
    assert result.stdout.strip() == ""
