"""Benchmark entry point: run one workload, or all four, and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S        # every workload in turn

Run it from the root of a checkout.  Each workload runs in its own worker
process (``worker.py``), with BLAS and OpenMP threads limited to the number
of CPUs this process may use.  With ``--trace 0`` the result holds the
end-to-end metrics: ``setup_s`` is the median over SETUP_SAMPLES fresh
processes of the time from starting the process to having the workload's
inputs built; the op metrics come from the timed ops of one worker, scaled
to a reference host speed by c / CALIBRATION_REF_S, where c is the median
time of the calibration loop the worker times before every op (the host's
speed drifts by tens of per cent within minutes).  With ``--trace 1`` one
traced worker reports the per-layer metrics named in
``BENCHMARK.json``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and
traces are also written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("nogo-floor", "depolarize-codebooks", "simulate-protocols", "collapse-odd-rounds")
SETUP_SAMPLES = 5
CALIBRATION_REF_S = 0.05   # calibration loop time that defines the reference host speed
DEADLINE_S = 170.0
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
#: Per-layer metrics measured while the workload's inputs are built.
SETUP_PHASE = {
    "decompose.enumerate_extremals.s",
    "decompose.is_feasible.calls",
    "decompose.is_feasible.s",
    "protocols.rank1_product_protocol.s",
    "protocols.multi_sender_protocol.s",
}


class BenchmarkError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({name: threads for name in THREAD_VARIABLES})
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run a worker; return the seconds from start to its READY line, and its last line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        ready_s = None
        last = ""
        for line in proc.stdout:
            if ready_s is None and line.strip() == "READY":
                ready_s = time.perf_counter() - start
            elif line.strip():
                last = line.strip()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None:
        raise BenchmarkError(f"worker {' '.join(args[:2])} exited with code {code}")
    return ready_s, last


def per_layer_value(name: str, trace: dict, ops_per_s: float):
    setup, ops, counted = trace["setup"], trace["ops"], max(trace["ops_counted"], 1)
    if name == "trace.ops_per_s":
        return ops_per_s
    if name in SETUP_PHASE:
        return setup.get(name, 0.0)
    stem, _, bits = name.rpartition(".")
    if stem == "nogo.optimize.ms_per_sweep":
        sweeps = ops.get(f"nogo.optimize.sweeps.{bits}", 0.0)
        return 1e3 * ops.get(f"nogo.optimize.sweep_s.{bits}", 0.0) / sweeps if sweeps else 0.0
    if stem == "depolarize.estimate_eta.ns_per_sample":
        samples = ops.get(f"depolarize.estimate_eta.samples.{bits}", 0.0)
        return 1e9 * ops.get(f"depolarize.estimate_eta.s.{bits}", 0.0) / samples if samples else 0.0
    if name == "depolarize.score_bytes":
        return ops.get(name, 0.0)
    return ops.get(name, 0.0) / counted


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: float, trace: int):
    """Run one workload; return its result object and the unscaled op metrics."""
    deadline = time.perf_counter() + DEADLINE_S
    env = worker_env(root)
    workdir = HERE / "work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(common + ["--setup-only"], env, deadline)[0])
        ready_s, last = spawn(common + ["--seconds", str(seconds), "--trace", str(trace)], env, deadline)
        setups.append(ready_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = json.loads(last)
    times = raw["op_seconds"]
    calibration = statistics.median(raw["calibration_s"])
    unscaled = {
        "ops_per_s": len(times) / sum(times) if times else 0.0,
        "op_p50_ms": 1e3 * statistics.median(times) if times else 0.0,
        "calibration_ms": 1e3 * calibration,
    }
    slowdown = calibration / CALIBRATION_REF_S
    ops_per_s = unscaled["ops_per_s"] * slowdown
    if trace:
        metrics = {
            m["name"]: {"value": per_layer_value(m["name"], raw["trace"], ops_per_s), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "op_p50_ms": unscaled["op_p50_ms"] / slowdown,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {
        "correct": raw["problems"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    (out / f"{stem}.json").write_text(json.dumps(
        {**result, "seconds": seconds, "unscaled": unscaled, "setup_samples_s": setups,
         "op_seconds": times, "calibration_s": raw["calibration_s"]}, indent=1
    ))
    if trace:
        (out / f"{stem}.spans.json").write_text(json.dumps(raw["trace"], indent=1, sort_keys=True))
    return result, unscaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "qchansim" / "__init__.py").is_file():
            raise BenchmarkError(f"no qchansim sources under {root / 'src'}; run from the repository root")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, unscaled = run_workload(root, spec, name, args.seed, args.seconds, args.trace)
            results[name] = result
            for metric, m in result["metrics"].items():
                print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
            print(
                f"{name}  unscaled ops_per_s = {unscaled['ops_per_s']:.6g} 1/s, op_p50_ms = "
                f"{unscaled['op_p50_ms']:.6g} ms, calibration loop {unscaled['calibration_ms']:.4g} ms"
            )
            print(f"{name}  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
