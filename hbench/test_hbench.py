"""Tests of the benchmark harness itself.

Each workload runs through the benchmark command at its smallest size
(``--seconds 1``) with tracing on.  Every span of ``hbench.tracing.SPANS``
must record at least one call in some workload, so a refactor that
renames or inlines a traced callable shows up here as a missing span
rather than as a silent zero in later benchmark runs.

Every operation of these runs must pass its correctness gate, the two
passes of a traced run must agree, and each run must print every metric.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hbench import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "hbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for workload in WORKLOADS:
        out = _bench(workload, 1)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        runs[workload] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))
    return runs


def test_every_span_records_calls(traced_runs):
    missing = [name for name in tracing.NAMES
               if not any(run["metrics"][f"{name}.calls"]["value"] > 0
                          for _, run in traced_runs.values())]
    assert missing == []


def test_traced_runs_agree_and_print_the_per_layer_metrics(traced_runs):
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, (detail, run) in traced_runs.items():
        assert detail["errors"] == [], workload
        assert run["attempted"] >= 1
        assert run["correct"] and run["failed"] == 0, workload
        assert {k: v["unit"] for k, v in run["metrics"].items()} == names


def test_untraced_run_prints_the_end_to_end_metrics():
    out = _bench("cloud-sweep", 0)
    assert out.returncode == 0, out.stderr
    run = json.loads(out.stdout.splitlines()[-1])
    assert run["correct"] and run["failed"] == 0
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in run["metrics"].items()} == names
    assert all(v["value"] > 0 for v in run["metrics"].values())


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "hbench", tmp_path / "hbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("pair-batch", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
