"""Benchmark of the wigmatch matching pipeline.

    python3 perfbench/run.py --workload desk-n1000 --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each workload runs three fresh processes of
perfbench/stage.py, one after another:

1. "setup": imports and one small warm-up run, then exits;
2. "timed": the same set-up, then whole rounds of the workload with tracing
   off; it gives the end-to-end times and the peak resident memory;
3. "traced": the same set-up, then a replay of every distinct timed run
   through the public calls that run_pipeline makes, with a span around each
   call, and the output checks.

Each process's time from start to the end of its set-up is one set-up
sample.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
TIME_LIMIT_S = 170    # a stage still running this long after the start is killed


def _stage(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run stage.py; return (seconds until it printed "ready", its JSON result)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "stage.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read().strip()
            code = proc.wait()
        finally:
            timer.cancel()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"stage.py {args[0]} exited with code {code} before a result")
    return setup_s, json.loads(rest.splitlines()[-1]) if rest else None


def _sweep_files_failures(sw: dict, rows: int) -> list[str]:
    """The last sweep call wrote one CSV row per run and one summary entry per cell."""
    cells = len(sw["ns"]) * len(sw["rhos"]) * len(sw["epsilons"]) * len(sw["strategies"])
    with open(os.path.join(OUT_DIR, "sweep_rows.csv")) as fh:
        csv_rows = sum(1 for _ in fh) - 1
    with open(os.path.join(OUT_DIR, "sweep_summary.json")) as fh:
        summary_cells = len(json.load(fh))
    if csv_rows != rows or summary_cells != cells:
        return [f"sweep wrote {csv_rows} CSV rows for {rows} runs and "
                f"{summary_cells} summary cells for {cells}"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the wigmatch pipeline.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S

    if not os.path.isdir(os.path.join(ROOT, "src", "wigmatch")):
        print(f"perfbench: no package source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    import workloads

    spec = workloads.spec(args.workload, args.seed)
    blas_threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = blas_threads
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    setups = [_stage(["setup"], deadline)[0]]
    setup_s, timed = _stage(["timed", json.dumps(spec), str(args.seconds), OUT_DIR], deadline)
    setups.append(setup_s)
    timed_path = os.path.join(OUT_DIR, f"timed-{tag}.json")
    with open(timed_path, "w") as fh:
        json.dump(timed, fh)
    trace_path = os.path.join(OUT_DIR, f"trace-{tag}.json") if args.trace else ""
    setup_s, traced = _stage(["traced", timed_path, trace_path], deadline)
    setups.append(setup_s)

    calls = timed["calls"]
    failures = traced["failures"]
    if "sweep" in spec:
        failures += _sweep_files_failures(spec["sweep"], len(calls) // len(timed["rounds_s"]))
    for msg in traced["failed_runs"]:
        print(f"perfbench: failed {msg}", file=sys.stderr)
    for msg in failures:
        print(f"perfbench: CHECK FAILED {msg}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["layers"].items()}
    else:
        values = {"setup_s": (statistics.median(setups), "s"),
                  "run_s": (traced["run_s"], "s"),
                  "workload_s": (statistics.median(timed["rounds_s"]), "s"),
                  "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
                  "matched_lap": (traced["matched_lap"], "vertices")}
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    print("perfbench: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "blas_threads": int(blas_threads), "rounds": len(timed["rounds_s"]),
        "calls": len(calls), "setup_samples_s": setups,
        "master_seeds": sorted({c["record"]["config"]["master_seed"] for c in calls})}))
    print(json.dumps({"correct": not failures, "attempted": len(calls),
                      "failed": len(traced["failed_runs"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
