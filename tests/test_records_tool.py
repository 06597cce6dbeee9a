"""tools/records.py: the run records of the benchmark, timings aside."""

import copy
import importlib.util
import os

from wigmatch import RunConfig, run_pipeline

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("records",
                                               os.path.join(ROOT, "tools", "records.py"))
records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(records)


def test_strip_leaves_out_only_timings_versions_and_tracebacks():
    ok = run_pipeline(RunConfig(n=64, k0=12, min_rounds=1, verbose=True,
                                random_candidates=1).validate())
    failed = run_pipeline(RunConfig(n=64, master_seed=-1))
    assert ok["status"] == "ok" and "traceback" in failed
    kept = copy.deepcopy([ok, failed])
    out = records.strip([ok, failed])
    assert [ok, failed] == kept                 # the records are not changed
    want_ok = {k: v for k, v in ok.items() if k not in ("stages_s", "versions")}
    want_ok["rounds"] = [{k: v for k, v in r.items() if k != "wall_s"}
                         for r in ok["rounds"]]
    assert ok["rounds"] and ok["candidates"][0]["swap_trace"]
    assert out == [want_ok, {k: v for k, v in failed.items()
                             if k not in ("stages_s", "versions", "traceback")}]


def test_min_rounds_runs_reach_the_beta_rounds():
    # the benchmark's runs stop at round 0; these sample beta and log a round
    for cfg in records.ROUNDS:
        rec = run_pipeline(RunConfig(**cfg, **records.ROUNDS_COMMON, min_rounds=1))
        assert rec["status"] == "ok"
        assert rec["rounds"][0]["resamples"] is not None
        assert rec["rounds"][0]["window_phi"] is not None
