"""Repeated benchmark runs of one checkout, and a comparison of two of them.

    python3 tools/bench.py                 # writes BENCH_<short-sha>.json
    python3 tools/bench.py --against DIR   # and DIR's BENCH file, run by run
    python3 tools/bench.py --tier1         # and one timed tier-1 test run
    python3 tools/bench.py --compare BENCH_A.json BENCH_B.json

Run from any directory; the checkout is the one this file lies in.  The
first form calls `python3 perfbench/run.py --trace 0` at benchmark seed 1
for every workload in BENCHMARK.json, REPEATS times, one workload after
another in turn, so that drift of the machine spreads over all of them.
It writes BENCH_<short-sha>.json at the repository root, with "-dirty"
after the commit when tracked files differ from it: for each workload and
end-to-end metric the raw values, their median and quartiles, and whether
every run was correct and how many runs failed; under "stages", the same
for each stage's seconds in the run's own records (perfbench/out/timed-
<workload>-seed1.json): record["stages_s"] summed over each round's calls,
median over the rounds.  A run of perfbench/run.py that exits non-zero (a
stage died or hit its time limit) counts as not correct and keeps its exit
code; the statistics are over the runs that finished (null if none), and
the file is still written.  It also records the commit, the BLAS thread
count, the CPU count and the 1-minute load average at the start.  The exit
code is 1 unless every run was correct.  The replay's per-layer values are
`python3 perfbench/run.py --workload W --seed 1 --seconds 10 --trace 1`.

--against DIR does the same in this checkout and in the checkout DIR (for
example a clone of the parent commit), alternating the two run by run: for
each workload and repeat, one run in each, DIR's first on odd repeats and
this checkout's first on even ones.  Both BENCH files are written at this
repository's root, so that a pair made under the same load of the machine
can be committed together.  If both checkouts are at the same commit and
both are clean or both dirty, the two files would have one name, and it
exits 2 before the first run.

--tier1 then runs the tier-1 command of ROADMAP.md once in each checkout,
after all benchmark runs, and adds its wall time, passed and failed counts
and exit code to that checkout's BENCH file as "tier1".  Its exit code does
not change the script's.

--compare prints, for each workload, each metric and then each stage (lower
is better), the change of the median from A to B, for a metric also as a
share of its BENCHMARK.json bound (positive is worse, 1.0 is the bound).
When every run of the workload finished in both files, their i-th values
are paired (with --against, repeat i of both checkouts ran back to back):
it prints how many pairs got worse and the two-sided sign-test p over the
untied pairs, calls the change "worse" or "better" only when p < 0.05 (at
least 6 pairs) and the median moved by more than A's quartile spread
(q3 - q1), and prints the median over the pairs of B's value over A's
(B/A, unless a value of A is 0); otherwise, and for a stage only one file
has, "-".  Then each file's tier-1 run, if either has one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 6     # the fewest pairs whose sign test can reach p < 0.05: 2/2**6
SEED = 1


def _git(root: str, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def _run(root: str, workload: str, seconds: float) -> tuple[dict | None, dict]:
    """One benchmark run in the checkout root: its settings line (None if it
    did not finish) and its result line, with its exit code and stages added."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, {"correct": False, "attempted": 0, "failed": 0,
                      "exit_code": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-2].removeprefix("perfbench: ")),
            {**json.loads(lines[-1]), "exit_code": 0, "stages": _stages(root, workload)})


def _stages(root: str, workload: str) -> dict[str, float]:
    """Each stage's seconds in the checkout root's last run of workload:
    record["stages_s"] summed over each round's calls, median over rounds."""
    path = os.path.join(root, "perfbench", "out", f"timed-{workload}-seed{SEED}.json")
    with open(path) as fh:
        timed = json.load(fh)
    rounds = len(timed["rounds_s"])
    per_round = len(timed["calls"]) // rounds
    sums: dict[str, list[float]] = {}
    for i, call in enumerate(timed["calls"]):
        for stage, seconds in call["record"]["stages_s"].items():
            sums.setdefault(stage, [0.0] * rounds)[i // per_round] += seconds
    return {stage: statistics.median(s) for stage, s in sums.items()}


def _tier1(root: str) -> dict:
    """One run of the tier-1 command in the checkout root: its wall time,
    the passed and failed counts of pytest's summary line and its exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"],
                          cwd=root, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    counts = {"passed": 0, "failed": 0}
    for number, outcome in re.findall(r"(\d+) (passed|failed)", lines[-1] if lines else ""):
        counts[outcome] = int(number)
    return {"wall_s": wall_s, **counts, "exit_code": proc.returncode}


def summarize(values: list[float]) -> dict:
    """Raw values, median and quartiles (inclusive method); null without values."""
    if len(values) < 2:
        median = values[0] if values else None
        return {"values": values, "median": median, "q1": median, "q3": median}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def _head(root: str) -> dict:
    """The commit of the checkout root and whether tracked files differ from it."""
    return {"commit": _git(root, "rev-parse", "HEAD"),
            "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no"))}


def _path(head: dict) -> str:
    """Where the BENCH file of a checkout with this head is written."""
    suffix = "-dirty" if head["dirty"] else ""
    return os.path.join(ROOT, f"BENCH_{head['commit'][:7]}{suffix}.json")


def bench(spec: dict, roots: list[str], heads: list[dict]) -> list[dict]:
    """Run every workload REPEATS times in each checkout of roots,
    interleaved: the workloads in turn and, for each, the checkouts one
    after the other, the first of them alternating from repeat to repeat.
    Returns one summary per checkout, headed by its entry of heads."""
    load_1min = os.getloadavg()[0]
    names = [w["name"] for w in spec["workloads"]]
    runs = {root: {name: [] for name in names} for root in roots}
    blas_threads: dict[str, set] = {root: set() for root in roots}
    for rep in range(REPEATS):
        for name in names:
            for root in (roots if rep % 2 == 0 else roots[::-1]):
                settings, result = _run(root, name, spec["run_seconds"])
                if settings is not None:
                    blas_threads[root].add(settings["blas_threads"])
                runs[root][name].append(result)
                print(f"bench: {root} {name} run {rep + 1}/{REPEATS}: "
                      f"correct={result['correct']} failed={result['failed']} "
                      f"exit_code={result['exit_code']}", file=sys.stderr)
    return [_summary(spec, head, runs[root], blas_threads[root], load_1min)
            for root, head in zip(roots, heads)]


def _summary(spec: dict, head: dict, runs: dict[str, list[dict]],
             blas_threads: set, load_1min: float) -> dict:
    """The BENCH file of one checkout's runs."""
    workloads = {}
    for name, results in runs.items():
        finished = [r for r in results if r["exit_code"] == 0]
        metrics = {m["name"]: dict(unit=m["unit"], **summarize(
                       [r["metrics"][m["name"]]["value"] for r in finished]))
                   for m in spec["end_to_end"]}
        stages: dict[str, list[float]] = {}
        for r in finished:
            for stage, seconds in r["stages"].items():
                stages.setdefault(stage, []).append(seconds)
        workloads[name] = {"correct": all(r["correct"] for r in results),
                           "attempted": sum(r["attempted"] for r in results),
                           "failed": sum(r["failed"] for r in results),
                           "exit_codes": [r["exit_code"] for r in results],
                           "metrics": metrics,
                           "stages": {s: summarize(v) for s, v in stages.items()}}
    return {**head, "seed": SEED, "repeats": REPEATS, "blas_threads": sorted(blas_threads),
            "cpu_count": os.cpu_count(), "load_1min_at_start": load_1min,
            "workloads": workloads}


def sign_test_p(worse: int, better: int) -> float:
    """Two-sided sign-test p of worse against better pairs, ties left out."""
    n = worse + better
    tail = sum(math.comb(n, i) for i in range(min(worse, better) + 1)) / 2 ** n
    return min(1.0, 2.0 * tail)


_UNPAIRED = f"{'-':>6} {'-':>7}  {'-':<6} {'-':>6}"


def _paired(wa: dict, wb: dict, ma: dict, mb: dict, better: str) -> str:
    """Pairs worse of all pairs, sign-test p, the call and the median paired
    ratio B/A, or "-" for each unless every run of wa and wb finished.  A
    change is called only when p < 0.05 and the median moved by more than
    A's quartile spread."""
    va, vb = ma["values"], mb["values"]
    if any(wa.get("exit_codes", [])) or any(wb.get("exit_codes", [])) or len(va) != len(vb):
        return _UNPAIRED
    sign = 1 if better == "lower" else -1
    worse = sum(sign * (y - x) > 0 for x, y in zip(va, vb))
    improved = sum(sign * (y - x) < 0 for x, y in zip(va, vb))
    p = sign_test_p(worse, improved)
    clears = abs(mb["median"] - ma["median"]) > ma["q3"] - ma["q1"]
    call = ("worse" if worse > improved else "better") if p < 0.05 and clears else "-"
    ratio = (f"{statistics.median(y / x for x, y in zip(va, vb)):>6.3f}" if all(va)
             else f"{'-':>6}")
    return f"{f'{worse}/{len(va)}':>6} {p:>7.2g}  {call:<6} {ratio}"


def _line(name: str, label: str, wa: dict, wb: dict, ma: dict | None, mb: dict | None,
          better: str, bound: float | None) -> str:
    """One line of compare; a stage has no bound."""
    head = f"{name:<12} {label:<12} "
    if ma is None or mb is None:    # a stage that only one file has
        cells = [f"{f['median']:>10.4g}" if f else f"{'-':>10}" for f in (ma, mb)]
        return head + f"{cells[0]} {cells[1]} {'-':>8} {'-':>9} " + _UNPAIRED
    if ma["median"] is None or mb["median"] is None:
        return head + "no finished run"
    change = (mb["median"] - ma["median"]) / ma["median"] if ma["median"] else 0.0
    worse = change if better == "lower" else 0.0 - change   # no -0.0
    share = f"{worse / bound:>+9.2f}" if bound else f"{'-':>9}"
    return (head + f"{ma['median']:>10.4g} {mb['median']:>10.4g} {change:>+8.1%} {share} "
            + _paired(wa, wb, ma, mb, better))


def compare(spec: dict, a: dict, b: dict) -> list[str]:
    """For each workload, one line per metric, then one per stage, and each
    file's tier-1 run."""
    lines = [f"{'workload':<12} {'metric/stage':<12} {'A median':>10} {'B median':>10} "
             f"{'change':>8} {'of bound':>9} {'worse':>6} {'sign p':>7}  called {'B/A':>6}"]
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for m in spec["end_to_end"]:
            lines.append(_line(name, m["name"], wa, wb, wa["metrics"][m["name"]],
                               wb["metrics"][m["name"]], m["better"], m["bound"]))
        sa, sb = wa.get("stages", {}), wb.get("stages", {})
        for stage in dict.fromkeys([*sa, *sb]):
            lines.append(_line(name, stage, wa, wb, sa.get(stage), sb.get(stage),
                               "lower", None))
    if "tier1" in a or "tier1" in b:
        for tag, f in (("A", a), ("B", b)):
            t = f.get("tier1")
            lines.append(f"tier-1 {tag}: " + (
                f"{t['wall_s']:.1f} s, {t['passed']} passed, {t['failed']} failed, "
                f"exit code {t['exit_code']}" if t else "not run"))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--against", metavar="DIR",
                    help="another checkout to run alternately with this one")
    ap.add_argument("--tier1", action="store_true",
                    help="then time one tier-1 test run in each checkout")
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
    roots = [os.path.abspath(args.against), ROOT] if args.against else [ROOT]
    heads = [_head(root) for root in roots]
    paths = [_path(head) for head in heads]
    if len(set(paths)) < len(paths):
        print(f"bench: both checkouts would write {paths[0]}", file=sys.stderr)
        return 2
    outs = bench(spec, roots, heads)
    if args.tier1:
        for out, root in zip(outs, roots):
            out["tier1"] = _tier1(root)
            print(f"bench: {root} tier-1: {out['tier1']}", file=sys.stderr)
    for out, path in zip(outs, paths):
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
        print(path)
    return 0 if all(w["correct"] and not w["failed"]
                    for out in outs for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
