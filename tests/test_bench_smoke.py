"""Every benchmark workload runs to a correct result: each workload that
``BENCHMARK.json`` names runs for half a second through ``perfbench/run.py``,
untraced and traced, in a copy of ``src/`` and ``perfbench/``, so a run that
fails, a check that rejects its outputs or a traced run that drops a
per-layer metric shows here, and nothing is written under the repository's
own ``perfbench/``."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
PER_LAYER = [metric["name"] for metric in BENCHMARK["per_layer"]]


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    copy = tmp_path_factory.mktemp("bench")
    skip = shutil.ignore_patterns("out", "__pycache__", "*.egg-info")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, copy / name, ignore=skip)
    return copy


def run_workload(bench_copy, workload, trace):
    """The last line ``perfbench/run.py`` prints for a half-second run."""
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        cwd=bench_copy, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, result.stderr
    return last


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct_with_no_failed_op(bench_copy, workload):
    run_workload(bench_copy, workload, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_reports_every_per_layer_metric(bench_copy, workload):
    last = run_workload(bench_copy, workload, 1)
    assert sorted(last["metrics"]) == sorted(PER_LAYER)
