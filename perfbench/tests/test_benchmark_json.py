"""BENCHMARK.json names exactly the workloads and metrics run.py reports,
and run.py prints them in the agreed last line."""
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_short_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "session_roundtrip",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in last["metrics"].values())
