"""tools/bench.py: summaries of repeated benchmark runs and their comparison."""

import importlib.util
import json
import os
import subprocess
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench", os.path.join(ROOT, "tools", "bench.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = {"end_to_end": [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
                       {"name": "matched_lap", "unit": "vertices", "better": "higher",
                        "bound": 0.2}]}


def test_summarize_gives_median_and_inclusive_quartiles():
    assert bench.summarize([3.0, 1.0, 2.0]) == {"values": [3.0, 1.0, 2.0], "median": 2.0,
                                                "q1": 1.5, "q3": 2.5}
    assert bench.summarize([]) == {"values": [], "median": None, "q1": None, "q3": None}


def _file(peak, matched):
    return {"workloads": {"w": {"metrics": {"peak_rss_mb": bench.summarize(peak),
                                            "matched_lap": bench.summarize(matched)}}}}


def test_compare_reports_change_as_share_of_bound():
    a = _file([380.0, 382.0, 384.0], [26, 26, 26])
    b = _file([320.0, 321.0, 322.0], [26, 26, 13])
    header, peak, matched = bench.compare(SPEC, a, b)
    assert "of bound" in header
    # 382 -> 321 MB is 16.0% lower: -1.60 bounds, beyond both spreads
    assert peak.split()[4:] == ["-16.0%", "-1.60", "yes"]
    # the median of matched_lap does not move; the quartile spread is 6.5
    assert matched.split()[4:] == ["+0.0%", "+0.00", "no"]


def test_compare_counts_a_fall_of_a_higher_is_better_metric_as_worse():
    a = _file([100.0, 100.0, 100.0], [20, 20, 20])
    b = _file([100.0, 100.0, 100.0], [18, 18, 18])
    matched = bench.compare(SPEC, a, b)[2]
    assert matched.split()[4:] == ["-10.0%", "+0.50", "yes"]


def test_a_failed_run_is_recorded_and_the_file_still_written(monkeypatch, tmp_path):
    runs = []

    def fake_run(cmd, **kwargs):
        if cmd[0] == "git":
            out = "" if cmd[1] == "status" else "0123456789abcdef"
            return subprocess.CompletedProcess(cmd, 0, out, "")
        runs.append(cmd)
        if len(runs) == 1:    # the first run is killed at its time limit
            if kwargs.get("check"):
                raise subprocess.CalledProcessError(1, cmd)
            return subprocess.CompletedProcess(cmd, 1, "", "stage.py timed exited\n")
        result = {"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {m["name"]: {"value": float(len(runs))}
                              for m in SPEC["end_to_end"]}}
        out = f"perfbench: {json.dumps({'blas_threads': 2})}\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(cmd, 0, out, "")

    monkeypatch.setattr(bench, "subprocess",
                        types.SimpleNamespace(run=fake_run))
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({**SPEC, "run_seconds": 1, "workloads": [{"name": "w"}]}))
    assert bench.main([]) == 1
    assert len(runs) == bench.REPEATS == 3
    out = json.loads((tmp_path / "BENCH_0123456.json").read_text())
    w = out["workloads"]["w"]
    assert (w["correct"], w["attempted"], w["failed"]) == (False, 8, 0)
    assert w["exit_codes"] == [1, 0, 0]
    # the statistics are over the two runs that finished
    assert w["metrics"]["peak_rss_mb"]["values"] == [2.0, 3.0]
    assert w["metrics"]["peak_rss_mb"]["median"] == 2.5
    assert out["blas_threads"] == [2]


def test_compare_reports_a_metric_without_finished_runs():
    a = _file([100.0, 100.0, 100.0], [20, 20, 20])
    b = {"workloads": {"w": {"metrics": {"peak_rss_mb": bench.summarize([]),
                                         "matched_lap": bench.summarize([20])}}}}
    peak, matched = bench.compare(SPEC, a, b)[1:]
    assert peak.split()[2:] == ["no", "finished", "run"]
    assert matched.split()[4:] == ["+0.0%", "+0.00", "no"]
