"""One workload in one process: set up, warm up, time ops, check every output.

Started by ``run.py``, which sets the thread limits and PYTHONPATH.  The
worker prints ``READY`` as soon as the workload's inputs are built (the
parent times set-up up to that line) and, at the end, one JSON line with the
op times and check results and, when traced, the per-layer statistics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

WARMUP_OPS = 1
MIN_OPS = 3
#: Per-layer statistics are taken over this many timed ops, so that the
#: counts repeat exactly for a given seed however long the run is.
TRACE_OPS = 3
MAX_PROBLEMS_SHOWN = 5
CALIBRATION_REPS = 3000


def calibrate() -> float:
    """Seconds taken by a fixed loop of 2x2 complex linear algebra driven from Python."""
    a = np.array([[1.0, 2.0j], [0.5, 1.0]])
    start = time.perf_counter()
    total = 0.0
    for _ in range(CALIBRATION_REPS):
        b = a @ a.conj().T
        total += np.trace(b).real + np.linalg.eigvalsh(b)[0]
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import qchansim

    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(qchansim)
        tracer.enabled = True
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir), qchansim)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    setup_stats = tracer.take() if tracer else None
    if tracer:
        tracer.enabled = False

    workload.prepare()
    calibrations: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    times: list[float] = []
    op_stats = None
    index = 0
    started = time.perf_counter()
    while True:
        timed = index >= WARMUP_OPS
        if timed and attempted >= MIN_OPS and time.perf_counter() - started >= args.seconds:
            break
        inp = workload.op_input(index)
        gc.collect()
        if timed:
            calibrations.append(calibrate())
        if tracer:
            tracer.enabled = timed
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception:
            out = None
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        if out is None:
            failed += timed
        else:
            try:
                found = workload.check(inp, out)
            except Exception:
                found = ["check raised:\n" + traceback.format_exc()]
            problems += [f"op {index}: {p}" for p in found]
            if timed:
                times.append(elapsed)
        if timed:
            attempted += 1
            if tracer and attempted == TRACE_OPS:
                op_stats = tracer.take()
        else:
            started = time.perf_counter()
        index += 1

    for p in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": len(problems),
        "op_seconds": times,
        "calibration_s": calibrations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        if op_stats is None:
            op_stats = tracer.take()
        result["trace"] = {"setup": setup_stats, "ops": op_stats, "ops_counted": min(attempted, TRACE_OPS)}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
