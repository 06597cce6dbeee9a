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
    # 382 -> 321 MB is 16.0% lower: -1.60 bounds, and no pair worse, but 3
    # pairs cannot call it (p = 0.25)
    assert peak.split()[4:] == ["-16.0%", "-1.60", "0/3", "0.25", "-", "0.840"]
    # the median of matched_lap does not move, and the one untied pair of
    # three got worse
    assert matched.split()[4:] == ["+0.0%", "+0.00", "1/3", "1", "-", "1.000"]


def test_compare_counts_a_fall_of_a_higher_is_better_metric_as_worse():
    a = _file([100.0, 100.0, 100.0], [20, 20, 20])
    b = _file([100.0, 100.0, 100.0], [18, 18, 18])
    matched = bench.compare(SPEC, a, b)[2]
    assert matched.split()[4:] == ["-10.0%", "+0.50", "3/3", "0.25", "-", "0.900"]


def _write_timed(root, workload, rounds):
    """A timed file of perfbench/run.py in the checkout root: each round a
    list of its calls' record["stages_s"]."""
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    calls = [{"wall_s": 0.0, "record": {"stages_s": stages}} for r in rounds for stages in r]
    timed = {"calls": calls, "rounds_s": [1.0] * len(rounds), "peak_rss_mb": 50.0}
    (out / f"timed-{workload}-seed{bench.SEED}.json").write_text(json.dumps(timed))


def test_stages_are_each_rounds_sums_and_their_median_over_rounds(tmp_path):
    # three rounds of two calls each; a stage a call did not enter counts 0
    _write_timed(tmp_path, "sweep-n500", [
        [{"clean": 0.1, "lap": 0.5}, {"clean": 0.2, "lap": 0.25}],
        [{"clean": 0.5, "lap": 0.5}, {"clean": 0.5}],
        [{"clean": 0.25, "lap": 1.0}, {"clean": 0.5, "lap": 1.0}]])
    stages = bench._stages(str(tmp_path), "sweep-n500")
    # clean: 0.3, 1.0, 0.75 -> 0.75; lap: 0.75, 0.5, 2.0 -> 0.75
    assert stages == {"clean": 0.75, "lap": 0.75}


def test_compare_pairs_stages_under_the_metrics_rule():
    a, b = _file([1.0] * 6, [20] * 6), _file([1.0] * 6, [20] * 6)
    a["workloads"]["w"]["stages"] = {
        "lap": bench.summarize([1.0, 1.2, 0.9, 1.1, 1.0, 1.3]),
        "refine": bench.summarize([1.0, 1.2, 0.9, 1.1, 1.0, 1.3]),
        "select": bench.summarize([0.001] * 6)}
    b["workloads"]["w"]["stages"] = {
        "lap": bench.summarize([1.3, 1.5, 1.2, 1.4, 1.3, 1.6]),
        # 6 of 6 pairs worse, but inside A's quartile spread of 0.175
        "refine": bench.summarize([1.01, 1.21, 0.91, 1.11, 1.01, 1.31]),
        "amp": bench.summarize([0.01] * 6)}
    header, _, _, lap, refine, select, amp = bench.compare(SPEC, a, b)
    assert "of bound" in header and "spread" not in header
    # a stage has no bound; it is better lower, paired and called as a metric
    assert lap.split() == ["w", "lap", "1.05", "1.35", "+28.6%", "-", "6/6", "0.031",
                           "worse", "1.286"]
    assert refine.split()[2:] == ["1.05", "1.06", "+1.0%", "-", "6/6", "0.031", "-", "1.010"]
    # a stage that only one file has
    assert select.split() == ["w", "select", "0.001", "-", "-", "-", "-", "-", "-", "-"]
    assert amp.split() == ["w", "amp", "-", "0.01", "-", "-", "-", "-", "-", "-"]


def test_compare_reads_committed_files_without_stages():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    files = []
    for name in ("BENCH_1d1cea0.json", "BENCH_1d1cea0-dirty.json"):
        with open(os.path.join(ROOT, name)) as fh:
            files.append(json.load(fh))
    header, *lines = bench.compare(spec, *files)
    assert [line.split()[:2] for line in lines] == [
        [w, m["name"]] for w in files[0]["workloads"] for m in spec["end_to_end"]]
    assert all(len(line.split()) == 10 for line in lines)


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
        _write_timed(tmp_path, "w", [[{"lap": float(len(runs))}]])
        out = f"perfbench: {json.dumps({'blas_threads': 2})}\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(cmd, 0, out, "")

    monkeypatch.setattr(bench, "subprocess",
                        types.SimpleNamespace(run=fake_run))
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({**SPEC, "run_seconds": 1, "workloads": [{"name": "w"}]}))
    assert bench.main([]) == 1
    # six untraced runs, the fewest at which the sign test can call a change
    assert len(runs) == bench.REPEATS == 6
    assert [cmd[-2:] for cmd in runs] == [["--trace", "0"]] * 6
    out = json.loads((tmp_path / "BENCH_0123456.json").read_text())
    w = out["workloads"]["w"]
    assert (w["correct"], w["attempted"], w["failed"]) == (False, 20, 0)
    assert w["exit_codes"] == [1, 0, 0, 0, 0, 0]
    # the statistics are over the five runs that finished
    assert w["metrics"]["peak_rss_mb"]["values"] == [2.0, 3.0, 4.0, 5.0, 6.0]
    assert w["metrics"]["peak_rss_mb"]["median"] == 4.0
    assert out["blas_threads"] == [2]
    # the run that did not finish gives no stage value
    assert w["stages"] == {"lap": bench.summarize([2.0, 3.0, 4.0, 5.0, 6.0])}
    assert "layers" not in out


def test_compare_reports_a_metric_without_finished_runs():
    a = _file([100.0, 100.0, 100.0], [20, 20, 20])
    b = {"workloads": {"w": {"metrics": {"peak_rss_mb": bench.summarize([]),
                                         "matched_lap": bench.summarize([20])}}}}
    peak, matched = bench.compare(SPEC, a, b)[1:]
    assert peak.split()[2:] == ["no", "finished", "run"]
    # one value against three cannot be paired
    assert matched.split()[4:] == ["+0.0%", "+0.00", "-", "-", "-", "-"]


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
    # worse and the median beyond A's spread, yet p = 0.25: not called
    spec, a = _run_s_file([0.07545782949455315, 0.07237920600891812, 0.06606006749643711])
    _, b = _run_s_file([0.0788463189965114, 0.0875532740028575, 0.09181200950115453])
    assert bench.compare(spec, a, b)[1].split()[4:] == ["+21.0%", "+0.84", "3/3", "0.25",
                                                          "-", "1.210"]
    # 6 of 6 pairs worse gives p = 2/64 = 0.031 < 0.05, and the median
    # moves by 0.3, beyond A's quartile spread of 0.175: called
    spec, a = _run_s_file([1.0, 1.2, 0.9, 1.1, 1.0, 1.3])
    _, b = _run_s_file([1.3, 1.5, 1.2, 1.4, 1.3, 1.6])
    assert bench.compare(spec, a, b)[1].split()[6:] == ["6/6", "0.031", "worse", "1.286"]
    assert bench.compare(spec, b, a)[1].split()[6:] == ["0/6", "0.031", "better", "0.777"]
    # the values pair by repeat, not by rank: B's sorted values are all
    # above A's, which would call 6 of 6, but the last pair got better
    _, c = _run_s_file([1.3, 1.31, 1.0, 1.2, 1.05, 1.1])
    assert bench.compare(spec, a, c)[1].split()[6:] == ["5/6", "0.22", "-", "1.091"]
    # a run that did not finish in either file leaves the values unpaired
    _, d = _run_s_file([1.1, 1.3, 1.0, 1.2, 1.05], exit_codes=[0, 0, 1, 0, 0, 0])
    assert bench.compare(spec, a, d)[1].split()[6:] == ["-", "-", "-", "-"]
    # scale-n3000 peak_rss_mb of the committed BENCH_bc2a18d pair: 6 of 6
    # pairs worse (p = 0.031), but the median moves +0.039 MB, inside A's
    # quartile spread of 0.047 MB: not called
    _, a = _run_s_file([215.58203125, 215.56640625, 215.578125, 215.515625, 215.4921875,
                        215.56640625])
    _, b = _run_s_file([215.59765625, 215.61328125, 215.59765625, 215.53515625,
                        215.62890625, 215.63671875])
    assert bench.compare(spec, a, b)[1].split()[6:] == ["6/6", "0.031", "-", "1.000"]


def test_compare_prints_the_median_of_the_paired_ratios():
    # the pairs' ratios are 1.5, 1.5 and 0.5: their median is 1.5, though
    # both medians are 2.0
    spec, a = _run_s_file([1.0, 2.0, 4.0])
    _, b = _run_s_file([1.5, 3.0, 2.0])
    header, line = bench.compare(spec, a, b)
    assert header.split()[-2:] == ["called", "B/A"]
    assert line.split()[2:] == ["2", "2", "+0.0%", "+0.00", "2/3", "1", "-", "1.500"]
    # no ratio to a value of 0 in A
    spec, a = _run_s_file([0.0, 2.0, 4.0])
    assert bench.compare(spec, a, b)[1].split()[-2:] == ["-", "-"]


def test_against_alternates_the_checkouts_and_writes_both_files(monkeypatch, tmp_path):
    this, other = tmp_path / "this", tmp_path / "other"
    this.mkdir()
    other.mkdir()
    (this / "BENCHMARK.json").write_text(
        json.dumps({**SPEC, "run_seconds": 1, "workloads": [{"name": "w"}, {"name": "v"}]}))
    commits = {str(this): ("fedcba9876543210", " M src/x.py"),
               str(other): ("0123456789abcdef", "")}
    calls = []

    def fake_git(root, *args):
        commit, status = commits[root]
        return status if args[0] == "status" else commit

    def fake_run(root, workload, seconds):
        calls.append((root, workload))
        peak = 300.0 if root == str(this) else 320.0
        result = {"correct": True, "attempted": 1, "failed": 0, "exit_code": 0,
                  "metrics": {"peak_rss_mb": {"value": peak + len(calls)},
                              "matched_lap": {"value": 26}},
                  "stages": {"clean": len(calls) / 100}}
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
    mine = json.loads((this / "BENCH_fedcba9-dirty.json").read_text())
    theirs = json.loads((this / "BENCH_0123456.json").read_text())
    assert (mine["commit"], mine["dirty"]) == ("fedcba9876543210", True)
    assert (theirs["commit"], theirs["dirty"]) == ("0123456789abcdef", False)
    assert mine["workloads"]["w"]["metrics"]["peak_rss_mb"]["values"] == [
        302.0, 305.0, 310.0, 313.0, 318.0, 321.0]
    assert theirs["workloads"]["w"]["metrics"]["peak_rss_mb"]["values"] == [
        321.0, 326.0, 329.0, 334.0, 337.0, 342.0]
    assert theirs["workloads"]["v"]["exit_codes"] == [0] * 6
    assert mine["workloads"]["w"]["stages"]["clean"]["values"] == [
        0.02, 0.05, 0.10, 0.13, 0.18, 0.21]
    assert "layers" not in mine and "layers" not in theirs
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

    def fake_run(root, workload, seconds):
        events.append(("bench", root))
        result = {"correct": True, "attempted": 1, "failed": 0, "exit_code": 0,
                  "metrics": {"peak_rss_mb": {"value": 300.0}, "matched_lap": {"value": 26}},
                  "stages": {}}
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

