"""crossbell benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: enumerate_warm, sample_trials, session_roundtrip (see
perfbench/README.md). With --trace 0 it reports the end-to-end metrics
setup_s, op_s and peak_rss_mb; with --trace 1 the per-layer metrics of a run
that spends half its time untraced and half with the span tracer installed.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

Each set-up is a fresh interpreter: this launcher imports neither numpy nor
crossbell. For --trace 0 it starts SETUP_REPEATS - 1 workers that only set
up, then the measuring worker; setup_s is the median, over all of them, of
the wall time from starting the worker to the end of its set-up.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
# Every worker is killed once the run has lasted this long past its seconds.
DEADLINE_SLACK_S = 140.0

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
# Span names whose self time, count or waiting time per op the traced run reports.
SELF_TIMES = (
    "oracle.transfer_matrix", "oracle.derive_correction_table", "teleport.corrections_for",
    "measure.project_onto_bell", "measure.bell_collapse", "measure.bell_probabilities",
    "measure.sample_kind", "statevec.PureState", "statevec.cross", "bell.cross_bell_state",
    "statevec.apply_local", "statevec.fidelity", "teleport.recover", "teleport.run_protocol",
    "teleport.run_session", "teleport.ClassicalMessage.encode",
    "teleport.ClassicalMessage.decode", "cli.main",
)
COUNTS = ("oracle.transfer_matrix", "measure.project_onto_bell", "statevec.PureState")
WAITS = ("teleport.PipeEndpoint.recv",)
PER_LAYER_UNITS = {
    **{f"{name}.per_op": "count" for name in COUNTS},
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    **{f"{name}.wait_s": "s" for name in WAITS},
    "setup.oracle.transfer_matrix.count": "count",
    "setup.oracle.self_s": "s",
    "cli.out_bytes": "B",
    "process.py_alloc_peak_mb": "MB",
    "process.cpu_per_wall": "s/s",
    "op_floor_s": "s",
    "reference_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "op_samples": "count",
    "trace.op_s": "s",
    "trace.overhead": "ratio",
}


class WorkerError(Exception):
    pass


def run_worker(args: argparse.Namespace, setup_only: bool, deadline: float) -> dict:
    """Run one worker to its end and return the JSON object it printed last.

    The worker gets the launch time as --t0 and reports setup_s from it;
    CLOCK_MONOTONIC is system-wide, so the two processes share the clock.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(0.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker ended without a result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a kill into SystemExit, so that subprocess.run stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + args.seconds + DEADLINE_SLACK_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_worker(args, True, deadline)["setup_s"])
        result = run_worker(args, False, deadline)
        setups.append(result["setup_s"])
    except (WorkerError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if args.trace:
        units = PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
        metrics["setup_s"] = statistics.median(setups)
        result["info"]["setup_samples_s"] = setups
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    line = {
        "correct": result["problem_count"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace} nproc={os.cpu_count()} "
          f"info={json.dumps(result['info'])}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fp:
        json.dump({**line, "info": result["info"], "op_times_s": result["times"],
                   "ref_times_s": result["refs"]}, fp)
        fp.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
