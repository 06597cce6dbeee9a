"""Repeated benchmark runs of one checkout, and a comparison of two of them.

    python3 tools/bench.py                 # writes BENCH_<short-sha>.json
    python3 tools/bench.py --compare BENCH_A.json BENCH_B.json

Run from any directory; the checkout is the one this file lies in.  The
first form calls `python3 perfbench/run.py --trace 0` at benchmark seed 1
for every workload in BENCHMARK.json, REPEATS times, one workload after
another in turn, so that drift of the machine spreads over all of them.
It writes BENCH_<short-sha>.json at the repository root, with "-dirty"
after the commit when tracked files differ from it: for each workload and
end-to-end metric the raw values, their median and quartiles, and whether
every run was correct and how many runs failed.  A run of perfbench/run.py
that exits non-zero (a stage died or hit its time limit) counts as not
correct and keeps its exit code; the statistics are over the runs that
finished (null if none), and the file is still written.  It also records
the commit, the BLAS thread count, the CPU count and the 1-minute load
average at the start.  The exit code is 1 unless every run was correct.

--compare prints, for each workload and metric, the change of the median
from A to B as a share of the metric's BENCHMARK.json bound (positive is
worse, 1.0 is the bound), and whether the change is larger than both
files' quartile spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3
SEED = 1


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _run(workload: str, seconds: float) -> tuple[dict | None, dict]:
    """One benchmark run: its settings line (None if it did not finish) and
    its result line, with the run's exit code added."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, {"correct": False, "attempted": 0, "failed": 0,
                      "exit_code": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-2].removeprefix("perfbench: ")),
            {**json.loads(lines[-1]), "exit_code": 0})


def summarize(values: list[float]) -> dict:
    """Raw values, median and quartiles (inclusive method); null without values."""
    if len(values) < 2:
        median = values[0] if values else None
        return {"values": values, "median": median, "q1": median, "q3": median}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def bench(spec: dict) -> dict:
    """Run every workload REPEATS times, interleaved, and summarize."""
    load_1min = os.getloadavg()[0]
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    blas_threads = set()
    for rep in range(REPEATS):
        for name in names:
            settings, result = _run(name, spec["run_seconds"])
            if settings is not None:
                blas_threads.add(settings["blas_threads"])
            runs[name].append(result)
            print(f"bench: {name} run {rep + 1}/{REPEATS}: correct={result['correct']} "
                  f"failed={result['failed']} exit_code={result['exit_code']}",
                  file=sys.stderr)
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    workloads = {}
    for name, results in runs.items():
        finished = [r for r in results if r["exit_code"] == 0]
        metrics = {m["name"]: dict(unit=m["unit"], **summarize(
                       [r["metrics"][m["name"]]["value"] for r in finished]))
                   for m in spec["end_to_end"]}
        workloads[name] = {"correct": all(r["correct"] for r in results),
                           "attempted": sum(r["attempted"] for r in results),
                           "failed": sum(r["failed"] for r in results),
                           "exit_codes": [r["exit_code"] for r in results],
                           "metrics": metrics}
    return {"commit": _git("rev-parse", "HEAD"), "dirty": dirty, "seed": SEED,
            "repeats": REPEATS, "blas_threads": sorted(blas_threads),
            "cpu_count": os.cpu_count(), "load_1min_at_start": load_1min,
            "workloads": workloads}


def compare(spec: dict, a: dict, b: dict) -> list[str]:
    """One line per workload and metric: medians, change as a share of the
    bound (positive is worse) and whether it exceeds both quartile spreads."""
    lines = [f"{'workload':<12} {'metric':<12} {'A median':>10} {'B median':>10} "
             f"{'change':>8} {'of bound':>9}  beyond spread"]
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for m in spec["end_to_end"]:
            ma, mb = wa["metrics"][m["name"]], wb["metrics"][m["name"]]
            if ma["median"] is None or mb["median"] is None:
                lines.append(f"{name:<12} {m['name']:<12} no finished run")
                continue
            change = (mb["median"] - ma["median"]) / ma["median"] if ma["median"] else 0.0
            worse = change if m["better"] == "lower" else 0.0 - change   # no -0.0
            spread = max(ma["q3"] - ma["q1"], mb["q3"] - mb["q1"])
            beyond = abs(mb["median"] - ma["median"]) > spread
            lines.append(f"{name:<12} {m['name']:<12} {ma['median']:>10.4g} "
                         f"{mb['median']:>10.4g} {change:>+8.1%} {worse / m['bound']:>+9.2f}  "
                         f"{'yes' if beyond else 'no'}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.compare:
        files = []
        for path in args.compare:
            with open(path) as fh:
                files.append(json.load(fh))
        print("\n".join(compare(spec, *files)))
        return 0
    out = bench(spec)
    suffix = "-dirty" if out["dirty"] else ""
    path = os.path.join(ROOT, f"BENCH_{out['commit'][:7]}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0 if all(w["correct"] and not w["failed"] for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
