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
    # 382 -> 321 MB is 16.0% lower: -1.60 bounds, beyond both spreads, and
    # no pair worse, but 3 pairs cannot call it (p = 0.25)
    assert peak.split()[4:] == ["-16.0%", "-1.60", "yes", "0/3", "0.25", "-"]
    # the median of matched_lap does not move; the quartile spread is 6.5,
    # and the one untied pair of three got worse
    assert matched.split()[4:] == ["+0.0%", "+0.00", "no", "1/3", "1", "-"]


def test_compare_counts_a_fall_of_a_higher_is_better_metric_as_worse():
    a = _file([100.0, 100.0, 100.0], [20, 20, 20])
    b = _file([100.0, 100.0, 100.0], [18, 18, 18])
    matched = bench.compare(SPEC, a, b)[2]
    assert matched.split()[4:] == ["-10.0%", "+0.50", "yes", "3/3", "0.25", "-"]


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
    # six runs, the fewest at which the sign test can call a change, then
    # one traced run
    assert len(runs) == bench.REPEATS + 1 == 7
    assert [cmd[-1] for cmd in runs] == ["0"] * 6 + ["1"]
    out = json.loads((tmp_path / "BENCH_0123456.json").read_text())
    w = out["workloads"]["w"]
    assert (w["correct"], w["attempted"], w["failed"]) == (False, 20, 0)
    assert w["exit_codes"] == [1, 0, 0, 0, 0, 0]
    # the statistics are over the five runs that finished
    assert w["metrics"]["peak_rss_mb"]["values"] == [2.0, 3.0, 4.0, 5.0, 6.0]
    assert w["metrics"]["peak_rss_mb"]["median"] == 4.0
    assert out["blas_threads"] == [2]
    assert out["layers"] == {"w": {"correct": True, "failed": 0, "exit_code": 0,
                                   "values": {"peak_rss_mb": 7.0, "matched_lap": 7.0}}}


def test_compare_reports_a_metric_without_finished_runs():
    a = _file([100.0, 100.0, 100.0], [20, 20, 20])
    b = {"workloads": {"w": {"metrics": {"peak_rss_mb": bench.summarize([]),
                                         "matched_lap": bench.summarize([20])}}}}
    peak, matched = bench.compare(SPEC, a, b)[1:]
    assert peak.split()[2:] == ["no", "finished", "run"]
    # one value against three cannot be paired
    assert matched.split()[4:] == ["+0.0%", "+0.00", "no", "-", "-", "-"]


def test_sign_test_p_is_two_sided_over_untied_pairs():
    assert bench.sign_test_p(3, 0) == 0.25
    assert bench.sign_test_p(0, 6) == 2 / 64
    assert bench.sign_test_p(5, 1) == 2 * 7 / 64
    assert bench.sign_test_p(2, 1) == 1.0
    assert bench.sign_test_p(0, 0) == 1.0


def _run_s_file(values, exit_codes=None):
    spec = {"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    w = {"exit_codes": exit_codes or [0] * len(values),
         "metrics": {"run_s": bench.summarize(values)}}
    return spec, {"workloads": {"sweep-n500": w}}


def test_compare_pairs_the_ith_runs_and_calls_only_a_significant_change():
    # sweep-n500 run_s of the committed BENCH_9a69904 pair: all 3 pairs
    # worse and beyond both spreads, yet p = 0.25, so no change is called
    spec, a = _run_s_file([0.07545782949455315, 0.07237920600891812, 0.06606006749643711])
    _, b = _run_s_file([0.0788463189965114, 0.0875532740028575, 0.09181200950115453])
    assert bench.compare(spec, a, b)[1].split()[4:] == ["+21.0%", "+0.84", "yes", "3/3",
                                                          "0.25", "-"]
    # 6 of 6 pairs worse gives p = 2/64 = 0.031 < 0.05, and the median
    # moves by 0.3, beyond either file's quartile spread of 0.175: called
    spec, a = _run_s_file([1.0, 1.2, 0.9, 1.1, 1.0, 1.3])
    _, b = _run_s_file([1.3, 1.5, 1.2, 1.4, 1.3, 1.6])
    assert bench.compare(spec, a, b)[1].split()[7:] == ["6/6", "0.031", "worse"]
    assert bench.compare(spec, b, a)[1].split()[7:] == ["0/6", "0.031", "better"]
    # the values pair by repeat, not by rank: B's sorted values are all
    # above A's, which would call 6 of 6, but the last pair got better
    _, c = _run_s_file([1.3, 1.31, 1.0, 1.2, 1.05, 1.1])
    assert bench.compare(spec, a, c)[1].split()[7:] == ["5/6", "0.22", "-"]
    # a run that did not finish in either file leaves the values unpaired
    _, d = _run_s_file([1.1, 1.3, 1.0, 1.2, 1.05], exit_codes=[0, 0, 1, 0, 0, 0])
    assert bench.compare(spec, a, d)[1].split()[7:] == ["-", "-", "-"]
    # scale-n3000 peak_rss_mb of the committed BENCH_bc2a18d pair: 6 of 6
    # pairs worse (p = 0.031), but the median moves +0.039 MB, inside A's
    # quartile spread of 0.047 MB: not called
    _, a = _run_s_file([215.58203125, 215.56640625, 215.578125, 215.515625, 215.4921875,
                        215.56640625])
    _, b = _run_s_file([215.59765625, 215.61328125, 215.59765625, 215.53515625,
                        215.62890625, 215.63671875])
    assert bench.compare(spec, a, b)[1].split()[7:] == ["6/6", "0.031", "-"]


def test_against_alternates_the_checkouts_and_writes_both_files(monkeypatch, tmp_path):
    this, other = tmp_path / "this", tmp_path / "other"
    this.mkdir()
    other.mkdir()
    (this / "BENCHMARK.json").write_text(
        json.dumps({**SPEC, "run_seconds": 1, "workloads": [{"name": "w"}, {"name": "v"}]}))
    commits = {str(this): ("fedcba9876543210", " M src/x.py"),
               str(other): ("0123456789abcdef", "")}
    calls, traced = [], []

    def fake_git(root, *args):
        commit, status = commits[root]
        return status if args[0] == "status" else commit

    def fake_run(root, workload, seconds, trace=0):
        (traced if trace else calls).append((root, workload))
        peak = 300.0 if root == str(this) else 320.0
        result = {"correct": True, "attempted": 1, "failed": 0, "exit_code": 0,
                  "metrics": {"peak_rss_mb": {"value": peak + len(calls)},
                              "matched_lap": {"value": 26}}}
        return {"blas_threads": 2}, result

    monkeypatch.setattr(bench, "ROOT", str(this))
    monkeypatch.setattr(bench, "_git", fake_git)
    monkeypatch.setattr(bench, "_run", fake_run)
    assert bench.main(["--against", str(other)]) == 0
    # each workload runs once in each checkout per repeat, the other
    # checkout first on the first, third and fifth repeat
    t, o = str(this), str(other)
    assert calls == [(o, "w"), (t, "w"), (o, "v"), (t, "v"),
                     (t, "w"), (o, "w"), (t, "v"), (o, "v")] * 3
    # then one traced run of each workload in each checkout
    assert traced == [(o, "w"), (t, "w"), (o, "v"), (t, "v")]
    mine = json.loads((this / "BENCH_fedcba9-dirty.json").read_text())
    theirs = json.loads((this / "BENCH_0123456.json").read_text())
    assert (mine["commit"], mine["dirty"]) == ("fedcba9876543210", True)
    assert (theirs["commit"], theirs["dirty"]) == ("0123456789abcdef", False)
    assert mine["workloads"]["w"]["metrics"]["peak_rss_mb"]["values"] == [
        302.0, 305.0, 310.0, 313.0, 318.0, 321.0]
    assert theirs["workloads"]["w"]["metrics"]["peak_rss_mb"]["values"] == [
        321.0, 326.0, 329.0, 334.0, 337.0, 342.0]
    assert theirs["workloads"]["v"]["exit_codes"] == [0] * 6
    assert mine["layers"]["w"]["values"] == {"peak_rss_mb": 324.0, "matched_lap": 26}
    assert theirs["layers"]["v"]["values"] == {"peak_rss_mb": 344.0, "matched_lap": 26}
    assert not list(other.iterdir())


def test_against_refuses_two_checkouts_that_would_write_one_file(monkeypatch, tmp_path,
                                                                 capsys):
    # two clones of one commit, both clean (an A/A check) or both dirty, would
    # give both BENCH files one name, so the second would overwrite the first
    this, other = tmp_path / "this", tmp_path / "other"
    this.mkdir()
    other.mkdir()
    (this / "BENCHMARK.json").write_text(
        json.dumps({**SPEC, "run_seconds": 1, "workloads": [{"name": "w"}]}))
    calls = []
    for status in ("", " M src/x.py"):
        monkeypatch.setattr(bench, "ROOT", str(this))
        monkeypatch.setattr(bench, "_git", lambda root, *args, status=status:
                            status if args[0] == "status" else "0123456789abcdef")
        monkeypatch.setattr(bench, "_run", lambda *args: calls.append(args))
        assert bench.main(["--against", str(other)]) == 2
        assert "BENCH_0123456" in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in this.iterdir()) == ["BENCHMARK.json"]


def test_tier1_times_one_test_run_per_checkout_after_the_benchmark(monkeypatch, tmp_path,
                                                                  capsys):
    this, other = tmp_path / "this", tmp_path / "other"
    this.mkdir()
    other.mkdir()
    (this / "BENCHMARK.json").write_text(
        json.dumps({**SPEC, "run_seconds": 1, "workloads": [{"name": "w"}]}))
    commits = {str(this): ("fedcba9876543210", " M src/x.py"),
               str(other): ("0123456789abcdef", "")}
    events = []

    def fake_run(root, workload, seconds, trace=0):
        events.append(("bench", root))
        result = {"correct": True, "attempted": 1, "failed": 0, "exit_code": 0,
                  "metrics": {"peak_rss_mb": {"value": 300.0}, "matched_lap": {"value": 26}}}
        return {"blas_threads": 2}, result

    def fake_pytest(cmd, cwd, env, **kwargs):
        events.append(("tier1", cwd))
        assert cmd[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
        assert env["PYTHONPATH"].split(os.pathsep)[0] == os.path.join(cwd, "src")
        failed = 4 if cwd == str(other) else 5
        out = f"....F\n===== short test summary =====\n{failed} failed, 348 passed in 160.21s\n"
        return subprocess.CompletedProcess(cmd, 1, out, "")

    monkeypatch.setattr(bench, "ROOT", str(this))
    monkeypatch.setattr(bench, "_git", lambda root, *args:
                        commits[root][1] if args[0] == "status" else commits[root][0])
    monkeypatch.setattr(bench, "_run", fake_run)
    monkeypatch.setattr(bench, "subprocess", types.SimpleNamespace(
        run=fake_pytest, CompletedProcess=subprocess.CompletedProcess))
    # off by default
    assert bench.main(["--against", str(other)]) == 0
    assert [e for e in events if e[0] == "tier1"] == []
    assert "tier1" not in json.loads((this / "BENCH_0123456.json").read_text())
    events.clear()
    # the tier-1 failures do not change the exit code
    assert bench.main(["--against", str(other), "--tier1"]) == 0
    assert events[-2:] == [("tier1", str(other)), ("tier1", str(this))]
    assert all(kind == "bench" for kind, _ in events[:-2])
    mine = json.loads((this / "BENCH_fedcba9-dirty.json").read_text())["tier1"]
    theirs = json.loads((this / "BENCH_0123456.json").read_text())["tier1"]
    assert (theirs["passed"], theirs["failed"], theirs["exit_code"]) == (348, 4, 1)
    assert (mine["passed"], mine["failed"], mine["exit_code"]) == (348, 5, 1)
    assert mine["wall_s"] >= 0.0
    capsys.readouterr()
    assert bench.main(["--compare", str(this / "BENCH_0123456.json"),
                       str(this / "BENCH_fedcba9-dirty.json")]) == 0
    tail = capsys.readouterr().out.strip().splitlines()[-2:]
    assert tail[0].startswith("tier-1 A: ") and tail[0].endswith(
        "348 passed, 4 failed, exit code 1")
    assert tail[1].endswith("348 passed, 5 failed, exit code 1")


def test_compare_prints_both_files_traced_layers():
    a = _file([100.0, 100.0, 100.0], [20, 20, 20])
    b = _file([90.0, 90.0, 90.0], [20, 20, 20])
    a["layers"] = {"w": {"values": {"pipeline.validate_s": 0.0125, "refine.swaps": 4360}}}
    b["layers"] = {"w": {"values": {"pipeline.validate_s": 0.0031, "amp.rounds": 1}},
                   "v": {"values": {}}}
    lines = bench.compare(SPEC, a, b)
    assert lines[3].split() == ["workload", "layer", "A", "B"]
    assert [line.split() for line in lines[4:]] == [
        ["w", "pipeline.validate_s", "0.0125", "0.0031"],
        ["w", "refine.swaps", "4360", "-"],
        ["w", "amp.rounds", "-", "1"]]
    # files without a traced pass print no layer lines
    assert len(bench.compare(SPEC, _file([1.0], [1]), _file([1.0], [1]))) == 3


def test_an_incorrect_traced_run_makes_the_exit_code_1(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({**SPEC, "run_seconds": 1, "workloads": [{"name": "w"}]}))

    def fake_run(root, workload, seconds, trace=0):
        result = {"correct": not trace, "attempted": 1, "failed": 0, "exit_code": 0,
                  "metrics": {"peak_rss_mb": {"value": 300.0}, "matched_lap": {"value": 26}}}
        return {"blas_threads": 2}, result

    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench, "_git", lambda root, *args:
                        "" if args[0] == "status" else "0123456789abcdef")
    monkeypatch.setattr(bench, "_run", fake_run)
    assert bench.main([]) == 1
    out = json.loads((tmp_path / "BENCH_0123456.json").read_text())
    assert out["workloads"]["w"]["correct"] is True
    assert out["layers"]["w"]["correct"] is False
