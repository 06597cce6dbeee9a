"""perfbench/replay.py: the benchmark's traced phase replays a run through
the package's public calls and checks every stage's output."""

import importlib
import os

from wigmatch import RunConfig, run_pipeline

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_the_benchmark_replays_and_checks_its_warm_up_run(monkeypatch):
    # the replay calls the package by name, validate_record among them: a
    # name deleted or re-signed fails here, not only in a benchmark run
    monkeypatch.syspath_prepend(PERFBENCH)
    replay = importlib.import_module("replay")
    workloads = importlib.import_module("workloads")
    record = run_pipeline(RunConfig(**workloads.WARM_UP))
    assert record["status"] == "ok"
    tracer = replay.Tracer()
    out = replay.replay_run(record, tracer, "warm-up")
    replay.check_run_outputs(record, out)
    assert tracer.total("pipeline.validate") > 0.0
    assert tracer.counts["pipeline.matched_final"] == sum(
        out["pi_final"] == out["inst"].pi_star)
