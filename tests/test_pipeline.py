"""Pipeline orchestration: records, determinism, schema, sweeps."""

import copy
import csv
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import wigmatch
from wigmatch.config import RunConfig, make_config, parse_config_file
from wigmatch import pipeline
from wigmatch.errors import NumericalError, ParameterError, RecordError
from wigmatch.pipeline import (RUN_RECORD_SCHEMA, compare_clean_corrupted,
                               run_pipeline, sweep, validate_record)
from wigmatch.rng import child, derive_streams, stream_seed


def small_cfg(**kw):
    base = dict(n=120, rho=0.9, epsilon=0.02, strategy="planted-clique-weight",
                k0=24, master_seed=7, min_rounds=1)
    base.update(kw)
    return RunConfig(**base).validate()


# --------------------------------------------------------------- config


def test_config_validation_errors():
    with pytest.raises(ParameterError):
        RunConfig(n=1).validate()
    with pytest.raises(ParameterError):
        RunConfig(rho=0.0).validate()
    with pytest.raises(ParameterError):
        RunConfig(epsilon=1.0).validate()
    with pytest.raises(ParameterError):
        RunConfig(strategy="nope").validate()
    with pytest.raises(ParameterError):
        RunConfig(k0=6).validate()
    with pytest.raises(ParameterError):
        RunConfig(n=20, k0=24).validate()
    with pytest.raises(ParameterError):
        RunConfig(bad_seed_candidates=-1).validate()
    with pytest.raises(ParameterError):
        RunConfig(random_candidates=-1).validate()
    for seed in (-1, 2 ** 64):
        with pytest.raises(ParameterError, match="master_seed"):
            RunConfig(master_seed=seed).validate()
    RunConfig(master_seed=2 ** 64 - 1).validate()
    for name in ("rho", "epsilon"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParameterError, match="finite"):
                RunConfig(**{name: value}).validate()


def test_replay_reads_the_defaults_the_run_uses():
    # the benchmark's replay rebuilds a run as RunConfig(**record["config"])
    # and passes RunConfig's class constants where run_pipeline relies on
    # the library defaults or module constants; the two must stay equal
    from wigmatch.amp import run_amp
    from wigmatch.denoiser import build_schedule, make_denoiser
    from wigmatch.model import CLIQUE_WEIGHT, _corrupt_in_place, corrupt
    from wigmatch.preprocess import THRESHOLD_MULT, clean_pair
    from wigmatch.refine import RefineParams, seeded_refine
    from wigmatch.spectral import XI_FACTOR

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    pairs = {"gamma": (build_schedule, "gamma"),
             "max_resamples": (run_amp, "max_resamples"),
             "spectral_mode": (run_amp, "spectral_mode"),
             "denoiser_b": (make_denoiser, "b"),
             "spike_scale": (corrupt, "spike_scale"),
             "selection_rule": (seeded_refine, "selection")}
    for constant, (fn, name) in pairs.items():
        assert getattr(RunConfig, constant) == default(fn, name), constant
    # the three replay-pinned parameters mirror the constants their modules
    # apply, and default to them
    mirrors = {"xi_factor": (XI_FACTOR, run_amp), "threshold_mult": (THRESHOLD_MULT, clean_pair),
               "clique_weight": (CLIQUE_WEIGHT, corrupt)}
    for constant, (value, fn) in mirrors.items():
        assert getattr(RunConfig, constant) is value, constant
        assert default(fn, constant) is value, constant
    # run_pipeline calls the in-place core, whose default is the same
    assert default(_corrupt_in_place, "spike_scale") == default(corrupt, "spike_scale")
    cfg = small_cfg(n=64, bad_seed_candidates=1)
    assert cfg.max_swaps_value == RefineParams.for_run(cfg.rho, cfg.n).max_swaps
    rec = run_pipeline(cfg)
    assert rec["status"] == "ok"
    assert RunConfig(**rec["config"]) == cfg


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "n = 64\n"
        "rho = 0.85\n"
        "epsilon=0.0\n"
        "strategy = zero-out\n"
        "master_seed = 99\n"
        "output = none\n"
        "verbose = true\n")
    cfg = make_config(path, {"rho": 0.9})
    assert cfg.n == 64
    assert cfg.rho == 0.9          # flag override wins
    assert cfg.strategy == "zero-out"
    assert cfg.output is None
    assert cfg.verbose is True


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("frobnicate = 3\n")
    with pytest.raises(ParameterError, match="unknown config key"):
        parse_config_file(path)


def test_stream_seeds_documented_split():
    cfg = small_cfg()
    seeds = derive_streams(cfg.master_seed)
    assert set(seeds) == {"instance", "noise", "beta", "corruption"}
    assert len(set(seeds.values())) == 4
    assert seeds == derive_streams(small_cfg().master_seed)
    assert [seeds[name] for name in ("instance", "noise", "beta", "corruption")] == [
        stream_seed(cfg.master_seed, sid) for sid in range(4)]
    with pytest.raises(ValueError):      # a stream is named by its id only
        stream_seed(cfg.master_seed, "noise")


# ------------------------------------------------------------- pipeline


def test_run_record_ok_and_schema(tmp_path):
    out = tmp_path / "record.json"
    cfg = small_cfg(output=str(out), bad_seed_candidates=1, random_candidates=1)
    rec = run_pipeline(cfg)
    assert rec["status"] == "ok"
    validate_record(rec)
    assert list(rec["config"]) == [f.name for f in fields(RunConfig)]
    on_disk = json.loads(out.read_text())
    assert on_disk["schema_version"] == rec["schema_version"]
    labels = [c["label"] for c in rec["candidates"]]
    assert labels[0] == "oracle"
    assert "bad0" in labels and "random0" in labels
    assert rec["final"]["selected_label"] in labels
    assert 0.0 <= rec["final"]["overlap_final"] <= 1.0
    assert rec["schedule"]["t_star"] == 0
    assert rec["assertions"]["xi_phi_orthonormal"] is True
    assert rec["assertions"]["psi_diag_in_window"] is True
    # desk-scale rounds cannot satisfy the eigenvalue windows
    assert rec["assertions"]["spectral_window_all_rounds"] is False


def test_validate_record_rejects_missing_status():
    rec = run_pipeline(small_cfg(n=80, min_rounds=0))
    del rec["status"]
    with pytest.raises(RecordError) as exc:
        validate_record(rec)
    assert "'status' is a required property" in str(exc.value)


def _record_cases():
    """(label, record) pairs: run records as they come, and copies with one
    value deleted, replaced or added at a path."""
    ok = run_pipeline(small_cfg(n=80, epsilon=0.1, strategy="rank1-spike",
                                bad_seed_candidates=1, random_candidates=1, verbose=True))
    ok0 = run_pipeline(small_cfg(n=80, min_rounds=0))
    failed = run_pipeline(RunConfig(n=64, master_seed=-1))
    assert ok["status"] == ok0["status"] == "ok" and failed["status"] != "ok"
    assert ok["cleaning"]["zeroed_a"] == [57]
    cases = [("ok", ok), ("ok t*=0", ok0), ("failed", failed)]

    def edit(label, path, value=None, delete=False):
        rec = copy.deepcopy(ok)
        *parents, last = path
        target = rec
        for key in parents:
            target = target[key]
        if delete:
            del target[last]
        else:
            target[last] = value
        cases.append((f"{label} at {path}", rec))

    for key in RUN_RECORD_SCHEMA["required"]:
        edit("deleted", (key,), delete=True)
    props = RUN_RECORD_SCHEMA["properties"]
    typed = [((key,), sub) for key, sub in props.items()]
    typed += [(("cleaning", key), sub) for key, sub in props["cleaning"]["properties"].items()]
    typed += [(("cleaning", "zeroed_a", 0), {"type": "integer"})]
    typed += [(("candidates", 0, key), sub)
              for key, sub in props["candidates"]["items"]["properties"].items()]
    # a wrong type for every typed property, and the edge cases of integer
    values = ["text", 2, 2.0, 2.5, True, None, [], {}]
    for path, sub in typed:
        if "type" in sub:
            for value in values:
                edit(repr(value), path, value)
    for key in props["candidates"]["items"]["required"]:
        edit("deleted", ("candidates", 0, key), delete=True)
    for value in (2, 1.0, True):
        edit(repr(value), ("schema_version",), value)
    edit("a string", ("stages_s", "amp"), "0.1")
    edit("a number", ("assertions", "psi_diag_in_window"), 1)
    edit("an object", ("rounds", 0), [])
    edit("an extra key", ("extra",), {"any": "thing"})
    edit("an extra key", ("cleaning", "extra"), "x")
    edit("an extra key", ("candidates", 0, "extra"), [1])
    return cases


def test_record_check_agrees_with_jsonschema():
    import jsonschema

    jsonschema.Draft202012Validator.check_schema(RUN_RECORD_SCHEMA)
    reference = jsonschema.Draft202012Validator(RUN_RECORD_SCHEMA)
    outcomes = set()
    for label, rec in _record_cases():
        errors = list(reference.iter_errors(rec))
        try:
            validate_record(rec)
        except RecordError as exc:
            assert errors, label
            if len(errors) == 1:    # the same wording and path
                assert str(exc) == f"{errors[0].json_path}: {errors[0].message}", label
            outcomes.add(False)
        else:
            assert not errors, label
            outcomes.add(True)
    assert outcomes == {True, False}


@pytest.mark.parametrize("a, b", [(1, 1.0), (1, True), (0, False), (True, True), (None, 0),
                                  ("1", 1), ([1, True], [1.0, True]), ([1], [True]),
                                  ({"a": 1}, {"a": 1.0}), ({"a": 1}, {"b": 1}), ([], {})])
def test_const_equality_follows_jsonschema(a, b):
    from jsonschema._utils import equal

    assert pipeline._equal(a, b) is pipeline._equal(b, a) is equal(a, b)


def test_record_check_refuses_a_keyword_it_does_not_implement(monkeypatch):
    rec = run_pipeline(small_cfg(n=80, min_rounds=0))
    monkeypatch.setitem(RUN_RECORD_SCHEMA["properties"]["final"], "minProperties", 1)
    with pytest.raises(ValueError, match="minProperties"):
        validate_record(rec)


def test_run_validates_its_record_without_jsonschema(subprocess_env):
    # the benchmark's warm-up run: jsonschema is never imported, and the
    # record is still checked inside run_pipeline
    code = """if True:
        import copy, sys
        from wigmatch import RecordError, RunConfig, pipeline

        calls = []
        check = pipeline.validate_record
        pipeline.validate_record = lambda rec: calls.append(check(rec))
        rec = pipeline.run_pipeline(RunConfig(
            n=120, rho=0.9, epsilon=0.05, strategy='rank1-spike', k0=12,
            bad_seed_candidates=1, random_candidates=1, master_seed=0))
        bad = copy.deepcopy(rec)
        bad['candidates'][0]['swaps'] = 'many'
        try:
            check(bad)
        except RecordError as exc:
            print(exc)
        print(rec['status'], len(calls), 'jsonschema' in sys.modules)
        """
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines() == [
        "$.candidates[0].swaps: 'many' is not of type 'integer'", "ok 1 False"]


def test_default_run_stops_at_t_star_with_the_same_matching():
    # t* = 0 at n = 300: the forced rounds of min_rounds = 2 sample a beta
    # that the windows reject, so h and l still come from round 0
    kw = dict(n=300, rho=0.9, epsilon=0.02, strategy="rank1-spike", k0=24,
              master_seed=11, bad_seed_candidates=1)
    default = run_pipeline(RunConfig(**kw).validate())
    forced = run_pipeline(RunConfig(**kw, min_rounds=2).validate())
    assert default["status"] == forced["status"] == "ok"
    assert default["cleaning"] == forced["cleaning"]
    assert default["final"] == forced["final"]
    assert len(default["candidates"]) == len(forced["candidates"]) == 2
    for c_def, c_forced in zip(default["candidates"], forced["candidates"]):
        assert c_def.pop("stopped_reason") == "t_star"
        assert c_forced.pop("stopped_reason") != "t_star"
        assert c_def == c_forced
    assert default["config"]["min_rounds"] == 0
    assert default["schedule"]["ks"] == [24]
    assert default["rounds"][0]["resamples"] is None
    assert forced["rounds"][0]["resamples"] is not None
    assert default["assertions"]["spectral_window_all_rounds"] is None


def test_run_record_stage_times_and_selection():
    rec = run_pipeline(small_cfg(bad_seed_candidates=1, random_candidates=2))
    assert rec["status"] == "ok"
    assert list(rec["stages_s"]) == ["generate", "corrupt", "clean", "amp", "score",
                                     "lap", "refine", "select"]
    assert all(t >= 0.0 for t in rec["stages_s"].values())
    scores = [c["select_score"] for c in rec["candidates"]]
    assert rec["final"]["select_scores"] == scores
    first_best = rec["candidates"][scores.index(max(scores))]["label"]
    assert rec["final"]["selected_label"] == first_best


def test_run_record_determinism():
    cfg1 = small_cfg(verbose=True)
    cfg2 = small_cfg(verbose=True)
    r1, r2 = run_pipeline(cfg1), run_pipeline(cfg2)
    c1, c2 = r1["candidates"][0], r2["candidates"][0]
    assert c1["overlap_lap"] == c2["overlap_lap"]
    assert c1["overlap_refine"] == c2["overlap_refine"]
    assert c1["swap_trace"] == c2["swap_trace"]
    assert r1["final"]["overlap_final"] == r2["final"]["overlap_final"]


_TIMELESS_RECORD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from records import strip
from wigmatch import RunConfig, run_pipeline

print(json.dumps(strip(run_pipeline(RunConfig(**json.loads(sys.argv[2])).validate()))))
"""


def test_run_record_independent_of_blas_threads():
    # Desk settings at master seed 101: h differs in its last bits between 1
    # and 2 BLAS threads, which once reordered tied zero vertices in pi_lap.
    cfg = dict(n=1000, rho=0.9, epsilon=0.01, strategy="rank1-spike", k0=24,
               master_seed=101, verbose=True)
    src = os.path.dirname(os.path.dirname(wigmatch.__file__))
    tools = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
    records = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _TIMELESS_RECORD, tools, json.dumps(cfg)],
                              env=env, capture_output=True, text=True, timeout=600,
                              check=True)
        records.append(json.loads(proc.stdout))
    assert records[0]["status"] == "ok"
    assert records[0] == records[1]


def test_run_record_failure_stage():
    cfg = small_cfg()
    cfg.strategy = "bogus"   # invalid at the setup stage
    rec = run_pipeline(cfg)
    assert rec["status"] == "failed:setup"
    assert rec["exit_code"] == 2
    assert "strategy" in rec["error"]
    assert "traceback" in rec
    # refused before the streams are derived from it
    rec = run_pipeline(RunConfig(n=64, master_seed=-1))
    assert (rec["status"], rec["exit_code"]) == ("failed:setup", 2)
    assert rec["error"].startswith("ParameterError: master_seed")
    assert list(rec)[:3] == ["schema_version", "config", "stream_seeds"]


def test_run_record_output_failure_is_recorded(tmp_path):
    missing = str(tmp_path / "missing" / "run.json")
    rec = run_pipeline(small_cfg(output=missing))
    assert rec["status"] == "failed:output"
    assert rec["exit_code"] == 1
    assert rec["error"].startswith("FileNotFoundError")
    assert "FileNotFoundError" in rec["traceback"]
    assert "final" in rec       # the run itself completed
    cfg = small_cfg(output=missing)
    cfg.strategy = "bogus"      # an earlier failure keeps its status
    rec = run_pipeline(cfg)
    assert rec["status"] == "failed:setup"
    assert rec["exit_code"] == 2


def test_refused_record_is_recorded_and_its_manifest_written(tmp_path, monkeypatch):
    # run_pipeline never raises: a record that the schema refuses becomes
    # failed:record, and the manifest is still written
    schema = copy.deepcopy(RUN_RECORD_SCHEMA)
    schema["required"].append("nonexistent")
    monkeypatch.setattr(pipeline, "RUN_RECORD_SCHEMA", schema)
    out = tmp_path / "run.json"
    rec = run_pipeline(small_cfg(output=str(out)))
    assert (rec["status"], rec["exit_code"]) == ("failed:record", 1)
    assert rec["error"] == "RecordError: $: 'nonexistent' is a required property"
    assert "RecordError" in rec["traceback"] and "final" in rec
    assert json.loads(out.read_text()) == rec


_STAGES = ["schedule", "generate", "corrupt", "clean", "amp", "score", "lap", "dump",
           "refine", "select"]


@pytest.mark.parametrize("name, stage", [
    ("generate", "generate"), ("_corrupt_in_place", "corrupt"), ("_clean_owned", "clean"),
    ("build_schedule", "schedule"), ("run_amp", "amp"), ("build_scores", "score"),
    ("solve_lap", "lap"), ("_dump", "dump"), ("seeded_refine", "refine"),
    ("selection_score", "select")])
def test_run_record_failure_names_its_stage(monkeypatch, tmp_path, name, stage):
    exc = OSError if stage == "dump" else NumericalError

    def fail(*args, **kwargs):
        raise exc(f"{name} failed")

    monkeypatch.setattr(pipeline, name, fail)
    # only a run with a dump directory dumps, and only a random candidate is
    # scored in the select stage
    rec = run_pipeline(small_cfg(dump_dir=str(tmp_path / "dumps"), random_candidates=1))
    assert rec["status"] == f"failed:{stage}"
    assert rec["exit_code"] == (1 if exc is OSError else 3)
    assert rec["error"] == f"{exc.__name__}: {name} failed"
    # stages_s lists the timed stages the run entered, the failing one too
    entered = _STAGES[:_STAGES.index(stage) + 1]
    assert list(rec["stages_s"]) == [s for s in entered if s not in ("schedule", "dump")]


def test_run_peak_memory_is_bounded():
    # Desk settings at n = 400.  Each stage owns the matrices it replaces and
    # each n x n float64 matrix dies at its last use.  generate holds A and
    # the correlated matrix in Z's buffer, which B is permuted in (2.0);
    # corrupt perturbs A and B in place (2.0).  Cleaning builds A' >= 1
    # (B' >= 1), then re-injects and cleans A' (B') in its own buffer: the
    # pair and both indicators make 2.25, and AMP reads the pair arranged in
    # place.  The LAP's score and cost make about 2.25.  rank1-spike measures
    # 2.75 and zero-out 3.04: at this size a noise row block is a sixth of
    # the matrix, and zero-out ends cleaning with the certificate, whose
    # 256 x n block of M^T M is two thirds of it.
    n = 400
    for strategy in ("rank1-spike", "zero-out"):
        cfg = RunConfig(n=n, rho=0.9, epsilon=0.01, strategy=strategy, k0=24,
                        bad_seed_candidates=1, random_candidates=2, master_seed=101)
        assert run_pipeline(cfg)["status"] == "ok"     # warm-up: imports and caches
        tracemalloc.start()
        try:
            rec = run_pipeline(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec["status"] == "ok"
        assert peak <= 3.25 * 8 * n * n, \
            f"{strategy}: peak {peak / (8 * n * n):.2f} n x n matrices"


_RUN_RSS_GROWTH = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from perfbench.workloads import WARM_UP
from wigmatch import RunConfig, run_pipeline

assert run_pipeline(RunConfig(**WARM_UP).validate())["status"] == "ok"
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rec = run_pipeline(RunConfig(**json.loads(sys.argv[2])).validate())
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"status": rec["status"], "growth_kb": after - before}))
"""


def test_run_rss_growth_is_bounded():
    # tracemalloc sees neither BLAS nor allocator pages; ru_maxrss does, as
    # the benchmark's peak_rss_mb does.  A fresh interpreter makes the
    # benchmark's warm-up run, then a desk-settings run at n = 1500; its
    # peak grows by 2.61 (rank1-spike) and 2.69 (zero-out) n x n float64
    # matrices.
    n = 1500
    src = os.path.dirname(os.path.dirname(wigmatch.__file__))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for strategy in ("rank1-spike", "zero-out"):
        cfg = dict(n=n, rho=0.9, epsilon=0.01, strategy=strategy, k0=24, master_seed=101)
        proc = subprocess.run([sys.executable, "-c", _RUN_RSS_GROWTH, root, json.dumps(cfg)],
                              env=env, capture_output=True, text=True, timeout=600, check=True)
        out = json.loads(proc.stdout)
        assert out["status"] == "ok"
        growth = out["growth_kb"] * 1024 / (8 * n * n)
        assert growth <= 3.0, f"{strategy}: peak RSS grew by {growth:.2f} n x n matrices"


def test_run_cleaning_trace_is_written_with_output(tmp_path, monkeypatch):
    n = 120
    out = tmp_path / "run.json"
    cfg = small_cfg(n=n, epsilon=0.15, strategy="rank1-spike", trace_cleaning=True,
                    output=str(out))
    rec = run_pipeline(cfg)
    assert rec["status"] == "ok"
    lines = (tmp_path / "run.json.cleaning.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert rec["cleaning"]["zeroed_a"] and rec["cleaning"]["zeroed_b"]
    for name in "ab":
        mine = [r for r in rows if r["matrix"] == name]
        removed = [r["removed_index"] for r in mine if r["removed_index"] is not None]
        assert sorted(removed) == rec["cleaning"][f"zeroed_{name}"]
        assert mine[-1]["top_singular_value"] < 10 * np.sqrt(n)
    # the trace file is named after the record's, so without one none is written
    bare = tmp_path / "bare"
    bare.mkdir()
    monkeypatch.chdir(bare)
    cfg.output = None
    assert run_pipeline(cfg)["status"] == "ok"
    assert list(bare.iterdir()) == []


def test_run_cleaning_trace_write_failure_is_an_output_failure(tmp_path):
    # the trace is written with the record, after the run: a file that
    # cannot be written fails the output, not the cleaning
    cfg = RunConfig(n=120, k0=24, trace_cleaning=True,
                    output=str(tmp_path / "missing" / "run.json"))
    rec = run_pipeline(cfg)
    assert (rec["status"], rec["exit_code"]) == ("failed:output", 1)
    assert rec["error"].startswith("FileNotFoundError") and "cleaning.jsonl" in rec["error"]
    assert list(rec["stages_s"]) == ["generate", "corrupt", "clean", "amp", "score", "lap",
                                     "refine", "select"]
    assert "final" in rec


def test_dump_dir_artifacts(tmp_path):
    cfg = small_cfg(dump_dir=str(tmp_path / "dumps"))
    rec = run_pipeline(cfg)
    assert rec["status"] == "ok"
    dumped = sorted(p.name for p in (tmp_path / "dumps").iterdir())
    assert "score_oracle.npy" in dumped
    assert "assignment_oracle.csv" in dumped
    score = np.load(tmp_path / "dumps" / "score_oracle.npy")
    assert score.shape == (96, 96)


def test_sweep_dumps_each_row_to_its_own_directory(tmp_path):
    # row r dumps to <dump_dir>.<r>, the score of that row's own run
    base = small_cfg(n=80, k0=12, min_rounds=0, dump_dir=str(tmp_path / "d"))
    rows = sweep(base, [80], [0.9], [0.0, 0.05], ["zero-out"], trials=1)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.0", "d.1"]
    for row_idx, eps in enumerate((0.0, 0.05)):
        cfg = RunConfig(**{**base.as_dict(), "epsilon": eps, "strategy": "zero-out",
                           "master_seed": child(base.master_seed, row_idx),
                           "dump_dir": str(tmp_path / "own")})
        assert run_pipeline(cfg)["status"] == "ok"
        for name in ("score_oracle.npy", "assignment_oracle.csv"):
            got = (tmp_path / f"d.{row_idx}" / name).read_bytes()
            assert got == (tmp_path / "own" / name).read_bytes(), (row_idx, name)


def test_compare_clean_corrupted_memory_and_result():
    # Desk settings at n = 400 and eps = 0.05.  Each matrix dies at its last
    # use: cleaning consumes the corrupted copies of A and B, then A and B
    # themselves.  Either cleaning holds about 2.25 matrices next to two
    # more (A and B, then the corrupted side's cleaned pair), and AMP reads
    # each cleaned pair arranged in place; the peak measures 5.04.  The
    # result is pinned.
    n = 400
    cfg = RunConfig(n=n, rho=0.9, epsilon=0.05, strategy="rank1-spike", k0=24,
                    master_seed=101)
    compare_clean_corrupted(cfg)     # warm-up: imports and caches
    tracemalloc.start()
    try:
        out = compare_clean_corrupted(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.72 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} n x n matrices"
    assert out == {"gap": pytest.approx(0.2621400220734512, rel=1e-12, abs=0),
                   "rounds_clean": 0, "rounds_corrupted": 0,
                   "zeroed_corrupted": [8], "zeroed_clean": []}


def test_compare_clean_corrupted_small():
    cfg = small_cfg(n=200, epsilon=0.02)
    out = compare_clean_corrupted(cfg)
    assert out["gap"] >= 0.0
    assert out["rounds_clean"] == out["rounds_corrupted"]


# ---------------------------------------------------------------- sweep


def test_sweep_rows_and_outputs(tmp_path):
    base = small_cfg(n=80, min_rounds=0)
    csv_path = tmp_path / "rows.csv"
    summary_path = tmp_path / "summary.json"
    rows = sweep(base, ns=[80], rhos=[0.9], epsilons=[0.0, 0.05],
                 strategies=["zero-out"], trials=2,
                 csv_path=csv_path, summary_path=summary_path)
    assert len(rows) == 4                         # |grid| * trials
    assert all(r["status"] == "ok" for r in rows)
    text = csv_path.read_text().strip().split("\n")
    assert len(text) == 5                         # header + rows
    summary = json.loads(summary_path.read_text())
    assert len(summary) == 2
    for cell in summary.values():
        assert cell["trials"] == 2
        assert cell["resamples_mean"] is None     # no round sampled beta
    assert all(r["resamples_mean"] is None for r in rows)
    assert all(r["resamples_mean"] == "" for r in csv.DictReader(text))


def test_sweep_workers_give_the_rows_and_summary_of_one_process(tmp_path):
    base = small_cfg(n=64, min_rounds=0, k0=12)
    out = {}
    for workers in (1, 2):
        summary_path = tmp_path / f"summary{workers}.json"
        rows = sweep(base, ns=[64], rhos=[0.9], epsilons=[0.0, 0.05],
                     strategies=["zero-out", "rank1-spike"], trials=1,
                     summary_path=summary_path, workers=workers)
        out[workers] = ([{k: v for k, v in r.items() if k != "wall_s"} for r in rows],
                        json.loads(summary_path.read_text()))
    assert len(out[1][0]) == 4 and all(r["status"] == "ok" for r in out[1][0])
    assert out[2] == out[1]


def test_sweep_resamples_mean_with_forced_rounds(tmp_path):
    base = small_cfg(n=80, min_rounds=1)
    summary_path = tmp_path / "summary.json"
    rows = sweep(base, ns=[80], rhos=[0.9], epsilons=[0.0],
                 strategies=["zero-out"], trials=2, summary_path=summary_path)
    # all 64 + 1 draws rejected
    assert [r["resamples_mean"] for r in rows] == [65.0, 65.0]
    cell, = json.loads(summary_path.read_text()).values()
    assert cell["resamples_mean"] == 65.0


def test_sweep_single_cell_matches_run_pipeline():
    base = small_cfg(n=80, min_rounds=0)
    rows = sweep(base, [80], [0.9], [0.02], ["planted-clique-weight"], trials=1)
    assert len(rows) == 1
    cfg = RunConfig(**{**base.as_dict(),
                       "master_seed": child(base.master_seed, 0), "output": None})
    rec = run_pipeline(cfg)
    assert rows[0]["overlap_final"] == rec["final"]["overlap_final"]


def test_sweep_records_partial_failures(tmp_path, monkeypatch):
    # every kind of row has every field: an ok row, a row whose run failed
    # (k0 = 24 >= n fails validation) and a row whose run_pipeline raised
    base = small_cfg(n=80, min_rounds=1)
    csv_path = tmp_path / "rows.csv"
    rows = sweep(base, ns=[80, 10], rhos=[0.9], epsilons=[0.15],
                 strategies=["rank1-spike"], trials=1, csv_path=csv_path)
    with open(csv_path, newline="") as fh:
        assert next(csv.reader(fh)) == pipeline.SWEEP_FIELDS

    def fail(cfg):
        raise RuntimeError("run_pipeline raised")

    monkeypatch.setattr(pipeline, "run_pipeline", fail)
    rows += sweep(base, ns=[80], rhos=[0.9], epsilons=[0.15], strategies=["rank1-spike"],
                  trials=1)
    assert [list(r) for r in rows] == [pipeline.SWEEP_FIELDS] * 3
    assert all(r.pop("wall_s") >= 0.0 for r in rows)
    cell = {"rho": 0.9, "epsilon": 0.15, "strategy": "rank1-spike", "trial": 0}
    ok, setup, raised = rows
    assert ok == {"n": 80, **cell, "master_seed": child(7, 0), "status": "ok",
                  "overlap_lap": 0.3125, "overlap_refine": 0.275, "overlap_final": 0.275,
                  "cleaning_iters": 2, "resamples_mean": 65.0, "error": None}
    assert setup.pop("error").startswith("ParameterError")
    assert setup == {"n": 10, **cell, "master_seed": child(7, 1), "status": "failed:setup",
                     "overlap_lap": None, "overlap_refine": None, "overlap_final": None,
                     "cleaning_iters": 0, "resamples_mean": None}
    assert raised == {"n": 80, **cell, "master_seed": child(7, 0), "status": "failed:sweep",
                      "overlap_lap": None, "overlap_refine": None, "overlap_final": None,
                      "cleaning_iters": None, "resamples_mean": None,
                      "error": "run_pipeline raised"}
