"""Every benchmark run's record, timings aside, as one JSON document.

    python3 tools/records.py > records.json

Run from any directory; the checkout is the one this file lies in.  It
makes the runs of every workload in perfbench/workloads.py at benchmark
seeds 1-3 (a sweep workload with workers=1) and prints, per workload and
seed, each run's record in call order, and for a sweep also its rows and
summary.  Every benchmark workload stops AMP at round 0, so under
"min-rounds" it also prints the records of the ROUNDS runs at min_rounds
1 and 2, which sample beta and log a round, and under "compare" each
ROUNDS config's compare_clean_corrupted result at min_rounds 2, whose two
cleaned pairs advance through the same rounds.  Every `stages_s`,
`versions`, `wall_s` and `traceback` is left out, so the output depends
only on what the runs compute.  A change that must keep records
byte-identical is checked by running this in both checkouts with the
same OPENBLAS_NUM_THREADS and comparing the outputs:

    cmp parent.json change.json

It takes about 20 seconds on two cores.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
UNSTABLE = ("stages_s", "versions", "wall_s", "traceback")
# run at min_rounds 1 and 2 with ROUNDS_COMMON: one config per kind of
# adversary (weighted clique, zeroed minor, rank-1 spike)
ROUNDS = [dict(n=600, k0=24, strategy="planted-clique-weight"),
          dict(n=300, k0=12, strategy="zero-out"),
          dict(n=400, k0=24, strategy="rank1-spike")]
ROUNDS_COMMON = dict(rho=0.8, epsilon=0.01, bad_seed_candidates=1, random_candidates=1,
                     master_seed=1)


def strip(obj):
    """obj without the UNSTABLE keys, at any depth."""
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items() if k not in UNSTABLE}
    if isinstance(obj, list):
        return [strip(v) for v in obj]
    return obj


def _sweep(pipeline, RunConfig, sw: dict) -> dict:
    # sweep() calls run_pipeline once per row; wrap it to keep each record,
    # which the sweep's own rows do not carry
    real, records = pipeline.run_pipeline, []

    def recorded(cfg):
        records.append(real(cfg))
        return records[-1]

    pipeline.run_pipeline = recorded
    try:
        with tempfile.TemporaryDirectory() as tmp:
            summary_path = os.path.join(tmp, "summary.json")
            rows = pipeline.sweep(RunConfig(**sw["base"]), sw["ns"], sw["rhos"],
                                  sw["epsilons"], sw["strategies"], sw["trials"],
                                  summary_path=summary_path, workers=1)
            with open(summary_path) as fh:
                summary = json.load(fh)
    finally:
        pipeline.run_pipeline = real
    return {"records": records, "rows": rows, "summary": summary}


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import wigmatch.pipeline as pipeline
    from wigmatch import RunConfig
    from workloads import spec

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    out: dict = {}
    for name in names:
        for seed in SEEDS:
            s = spec(name, seed)
            if "sweep" in s:
                result = _sweep(pipeline, RunConfig, s["sweep"])
            else:
                result = {"records": [pipeline.run_pipeline(RunConfig(**cfg))
                                      for cfg in s["runs"]]}
            out.setdefault(name, {})[str(seed)] = strip(result)
    out["min-rounds"] = {
        str(m): strip([pipeline.run_pipeline(RunConfig(**cfg, **ROUNDS_COMMON, min_rounds=m))
                       for cfg in ROUNDS])
        for m in (1, 2)}
    out["compare"] = [pipeline.compare_clean_corrupted(RunConfig(**cfg, **ROUNDS_COMMON,
                                                                 min_rounds=2))
                      for cfg in ROUNDS]
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
