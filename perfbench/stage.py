"""One phase of a workload, run in a fresh process.

    python3 perfbench/stage.py setup
    python3 perfbench/stage.py timed SPEC_JSON SECONDS OUT_DIR
    python3 perfbench/stage.py traced TIMED_JSON_PATH TRACE_PATH

Every mode first imports the package, makes one small warm-up run and prints
"ready"; the time from the process's start to that line is one set-up
sample.  "timed" then runs whole rounds of the workload with tracing off and
prints its calls' wall times and records, its rounds' wall times and the
peak resident memory of this process, read before the result is encoded.
"traced" replays and checks the timed runs (see replay.py).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import wigmatch.pipeline as pipeline  # noqa: E402
from wigmatch import RunConfig  # noqa: E402

from workloads import WARM_UP  # noqa: E402


def _round_runs(configs: list[dict], calls: list) -> None:
    for cfg in configs:
        t0 = time.perf_counter()
        rec = pipeline.run_pipeline(RunConfig(**cfg))
        calls.append({"wall_s": time.perf_counter() - t0, "record": rec})


def _round_sweep(sw: dict, out_dir: str, calls: list) -> None:
    # sweep() calls run_pipeline once per row; wrap it to time each call and
    # keep its record, which the sweep's own rows do not carry.
    real = pipeline.run_pipeline

    def timed_run(cfg):
        t0 = time.perf_counter()
        rec = real(cfg)
        calls.append({"wall_s": time.perf_counter() - t0, "record": rec})
        return rec

    pipeline.run_pipeline = timed_run
    try:
        pipeline.sweep(RunConfig(**sw["base"]), sw["ns"], sw["rhos"],
                       sw["epsilons"], sw["strategies"], sw["trials"],
                       csv_path=os.path.join(out_dir, "sweep_rows.csv"),
                       summary_path=os.path.join(out_dir, "sweep_summary.json"),
                       workers=1)
    finally:
        pipeline.run_pipeline = real


def timed(spec: dict, seconds: float, out_dir: str) -> dict:
    """One round, then more while the next round is expected to end within
    `seconds` of the start."""
    calls: list[dict] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if "sweep" in spec:
            _round_sweep(spec["sweep"], out_dir, calls)
        else:
            _round_runs(spec["runs"], calls)
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.mean(rounds) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"calls": calls, "rounds_s": rounds, "peak_rss_mb": peak_rss_mb}


def main(argv: list[str]) -> int:
    pipeline.run_pipeline(RunConfig(**WARM_UP))
    print("ready", flush=True)
    if argv[0] == "timed":
        result = timed(json.loads(argv[1]), float(argv[2]), argv[3])
    elif argv[0] == "traced":
        from replay import traced_phase

        with open(argv[1]) as fh:
            result = traced_phase(json.load(fh), argv[2] or None)
    else:
        return 0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
