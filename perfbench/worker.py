"""One benchmark process: set up a workload, time its ops and check every
output. run.py starts it; run it by hand as

    python3 perfbench/worker.py --workload sample_trials --seed 1 --seconds 5 --trace 0

It prints one JSON line when it ends: with --setup-only just its setup_s,
otherwise its counts and metrics too. setup_s runs from --t0, a
time.monotonic() reading the launcher takes before starting the process.
crossbell is imported from the src/ directory next to perfbench/ and
nowhere else.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import reference
import stats
import tracer as tracing
from checks import CheckFailed
from run import COUNTS, SELF_TIMES, WAITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The traced phase stops early once it holds this many spans, to bound memory.
MAX_SPANS = 300_000
# The tracemalloc phase runs whole rounds for at least this long.
ALLOC_PHASE_S = 1.0


def import_program() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import crossbell
        import crossbell.cli  # noqa: F401  (the package does not import it)
    except ImportError as exc:
        raise SystemExit(f"error: cannot import crossbell from {SRC}: {exc}")
    found = Path(crossbell.__file__).resolve().parent.parent
    if found != SRC:
        raise SystemExit(f"error: crossbell imported from {found}, not {SRC}")


def blas_threads() -> int | None:
    """Size of numpy's OpenBLAS thread pool, if the library says."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def run_ops(workload, seconds, tally, on_start=None, on_end=None, stop=None):
    """Run whole rounds of ops for ``seconds``. Return the per-op wall times,
    the reference kernel's time after each op's round, one per op, and the
    bytes the ops wrote. Only ``workload.run`` is timed."""
    clock = time.perf_counter
    times: list[float] = []
    refs: list[float] = []
    out_bytes = 0
    deadline = clock() + seconds
    while True:
        round_times = []
        for _ in range(workload.round_size):
            inputs = workload.prepare()
            if on_start is not None:
                on_start(tally.attempted)
            tally.attempted += 1
            t0 = clock()
            try:
                output = workload.run(inputs)
            except Exception:
                tally.failed += 1
                traceback.print_exc()
                continue
            finally:
                if on_end is not None:
                    on_end()
            round_times.append(clock() - t0)
            try:
                workload.check(inputs, output)
            except CheckFailed as exc:
                tally.problems.append(str(exc))
            out_bytes += workload.out_bytes
        ref = reference.measure()
        times += round_times
        refs += [ref] * len(round_times)
        if clock() >= deadline or (stop is not None and stop()):
            return times, refs, out_bytes


def untraced(workload, seconds, tally) -> tuple[dict, list[float], list[float]]:
    """Figures of an untraced phase, its per-op wall times and the reference
    kernel's time next to each op."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    times, refs, _ = run_ops(workload, seconds, tally)
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    if not times:
        raise SystemExit("error: no op completed")
    figures = {
        "op_s": stats.host_corrected(times, refs, reference.REFERENCE_S),
        "op_floor_s": stats.fast_floor(times),
        "reference_s": stats.median(refs),
        "op_p50_s": stats.median(times),
        "op_tail_s": stats.tail(times)[0],
        "op_samples": len(times),
        "process.cpu_per_wall": cpu / wall,
    }
    return figures, times, refs


def traced(workload, seconds, tally, tracer) -> dict:
    first = tally.attempted

    def on_start(op: int) -> None:
        tracer.op = op

    def on_end() -> None:
        tracer.op = tracing.IDLE_OP

    tracer.op = tracing.IDLE_OP
    tracer.install()
    try:
        times, refs, out_bytes = run_ops(
            workload, seconds, tally, on_start=on_start, on_end=on_end,
            stop=lambda: len(tracer.spans) >= MAX_SPANS,
        )
    finally:
        tracer.uninstall()
    ops = tally.attempted - first
    summary = tracing.summarize(tracer.spans, set(range(first, tally.attempted)))

    def per_op(name: str, key: str) -> float:
        return summary.get(name, {key: 0})[key] / ops

    metrics = {f"{name}.self_s": per_op(name, "self_s") for name in SELF_TIMES}
    metrics.update({f"{name}.per_op": per_op(name, "count") for name in COUNTS})
    metrics.update({f"{name}.wait_s": per_op(name, "self_s") for name in WAITS})
    metrics["cli.out_bytes"] = out_bytes / ops
    metrics["trace.op_s"] = stats.host_corrected(times, refs, reference.REFERENCE_S)
    setup = tracing.summarize(tracer.spans, {tracing.SETUP_OP})
    metrics["setup.oracle.transfer_matrix.count"] = setup.get(
        "oracle.transfer_matrix", {"count": 0})["count"]
    metrics["setup.oracle.self_s"] = sum(
        v["self_s"] for k, v in setup.items() if k.startswith("oracle."))
    return metrics


def alloc_peak(workload, tally) -> float:
    """Largest rise of traced Python allocations during one op, in MB."""
    peak = 0
    base = 0

    def on_start(_op: int) -> None:
        nonlocal base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]

    def on_end() -> None:
        nonlocal peak
        peak = max(peak, tracemalloc.get_traced_memory()[1] - base)

    tracemalloc.start()
    try:
        run_ops(workload, ALLOC_PHASE_S, tally, on_start=on_start, on_end=on_end)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, default=None,
                        help="launch time on time.monotonic(); defaults to the worker's start")
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    import_program()
    import workloads  # imports crossbell

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
            workload.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s = time.monotonic() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}), flush=True)
            return 0

        tally = Tally()
        if tracer is None:
            info, times, refs = untraced(workload, args.seconds, tally)
            metrics = {
                "op_s": info.pop("op_s"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            metrics, times, refs = untraced(workload, args.seconds / 2, tally)
            untraced_op_s = metrics.pop("op_s")
            metrics.update(traced(workload, args.seconds / 2, tally, tracer))
            metrics["trace.overhead"] = metrics["trace.op_s"] / untraced_op_s
            metrics["process.py_alloc_peak_mb"] = alloc_peak(workload, tally)
            info = {"untraced_op_s": untraced_op_s, "spans": len(tracer.spans)}
            OUT.mkdir(exist_ok=True)
            tracer.write(
                str(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl"),
                {"workload": args.workload, "seed": args.seed, "seconds": args.seconds},
            )
        try:
            workload.finish()
        except Exception as exc:  # a run-level check that could not pass
            tally.problems.append(f"{type(exc).__name__}: {exc}")
        info["blas_threads"] = blas_threads()
        info.update(workload.summary)
        print(json.dumps({
            "setup_s": setup_s,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems[:20],
            "problem_count": len(tally.problems),
            "metrics": metrics,
            "info": info,
            "times": times,
            "refs": refs,
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
