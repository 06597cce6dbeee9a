"""Pipeline orchestration: records, determinism, schema, sweeps."""

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
from wigmatch.errors import NumericalError, ParameterError
from wigmatch.pipeline import (compare_clean_corrupted,
                               run_pipeline, sweep, validate_record)
from wigmatch.rng import derive_streams


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
    # the library defaults; the two must stay equal
    from wigmatch.amp import run_amp
    from wigmatch.denoiser import build_schedule, make_denoiser
    from wigmatch.model import _corrupt_in_place, corrupt
    from wigmatch.preprocess import _clean_owned, clean_pair
    from wigmatch.refine import RefineParams, seeded_refine

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    pairs = {"gamma": (build_schedule, "gamma"),
             "xi_factor": (run_amp, "xi_factor"),
             "max_resamples": (run_amp, "max_resamples"),
             "spectral_mode": (run_amp, "spectral_mode"),
             "denoiser_b": (make_denoiser, "b"),
             "threshold_mult": (clean_pair, "threshold_mult"),
             "clique_weight": (corrupt, "clique_weight"),
             "spike_scale": (corrupt, "spike_scale"),
             "selection_rule": (seeded_refine, "selection")}
    for constant, (fn, name) in pairs.items():
        assert getattr(RunConfig, constant) == default(fn, name), constant
    # run_pipeline calls the in-place cores, whose defaults are the same
    assert default(_clean_owned, "threshold_mult") == default(clean_pair, "threshold_mult")
    for name in ("clique_weight", "spike_scale"):
        assert default(_corrupt_in_place, name) == default(corrupt, name)
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
    import jsonschema

    rec = run_pipeline(small_cfg(n=80, min_rounds=0))
    del rec["status"]
    with pytest.raises(jsonschema.ValidationError) as exc:
        validate_record(rec)
    assert "'status' is a required property" in str(exc.value)


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
from wigmatch import RunConfig, run_pipeline

def strip(o):
    if isinstance(o, dict):
        return {k: strip(v) for k, v in o.items()
                if k not in ("stages_s", "versions", "wall_s")}
    return [strip(v) for v in o] if isinstance(o, list) else o

print(json.dumps(strip(run_pipeline(RunConfig(**json.loads(sys.argv[1])).validate()))))
"""


def test_run_record_independent_of_blas_threads():
    # Desk settings at master seed 101: h differs in its last bits between 1
    # and 2 BLAS threads, which once reordered tied zero vertices in pi_lap.
    cfg = dict(n=1000, rho=0.9, epsilon=0.01, strategy="rank1-spike", k0=24,
               master_seed=101, verbose=True)
    src = os.path.dirname(os.path.dirname(wigmatch.__file__))
    records = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _TIMELESS_RECORD, json.dumps(cfg)],
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
    assert "final" in rec       # the run itself completed
    cfg = small_cfg(output=missing)
    cfg.strategy = "bogus"      # an earlier failure keeps its status
    rec = run_pipeline(cfg)
    assert rec["status"] == "failed:setup"
    assert rec["exit_code"] == 2


@pytest.mark.parametrize("name, stage", [("build_scores", "score"), ("solve_lap", "lap"),
                                         ("seeded_refine", "refine")])
def test_run_record_failure_names_its_stage(monkeypatch, name, stage):
    def fail(*args, **kwargs):
        raise NumericalError(f"{name} failed")

    monkeypatch.setattr(pipeline, name, fail)
    rec = run_pipeline(small_cfg())
    assert rec["status"] == f"failed:{stage}"
    assert rec["exit_code"] == 3
    assert rec["error"] == f"NumericalError: {name} failed"


def test_run_peak_memory_is_bounded():
    # Desk settings at n = 400.  Each stage owns the matrices it replaces and
    # each n x n float64 matrix dies at its last use.  generate holds A, the
    # correlated matrix in Z's buffer and the gathered B (3.0); corrupt
    # perturbs A and B in place (2.0).  Cleaning builds each re-injected
    # matrix in its noise's buffer and drops A' (B') once A' >= 1 (B' >= 1)
    # is built; the cleaned pair, both indicators and the certificate's
    # M^T M make 3.25.  Both adversaries measure about 3.5: a noise row
    # block is a sixth of the matrix at this size.  zero-out ends cleaning
    # with the certificate, rank1-spike mostly does not.
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
        assert peak <= 3.75 * 8 * n * n, \
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
    # peak grows by about 3.7 n x n float64 matrices with either adversary.
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
        assert growth <= 4.0, f"{strategy}: peak RSS grew by {growth:.2f} n x n matrices"


def test_dump_dir_artifacts(tmp_path):
    cfg = small_cfg(dump_dir=str(tmp_path / "dumps"))
    rec = run_pipeline(cfg)
    assert rec["status"] == "ok"
    dumped = sorted(p.name for p in (tmp_path / "dumps").iterdir())
    assert "score_oracle.npy" in dumped
    assert "assignment_oracle.csv" in dumped
    score = np.load(tmp_path / "dumps" / "score_oracle.npy")
    assert score.shape == (96, 96)


def test_compare_clean_corrupted_memory_and_result():
    # Desk settings at n = 400 and eps = 0.05.  Each matrix dies at its last
    # use: cleaning consumes the corrupted copies of A and B, then A and B
    # themselves.  Either cleaning holds about 3.25 matrices next to two
    # more (A and B, then the corrupted side's cleaned pair); the peak
    # measures 5.42.  The result is pinned.
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
    from wigmatch.rng import child

    cfg = RunConfig(**{**base.as_dict(),
                       "master_seed": child(base.master_seed, 0), "output": None})
    rec = run_pipeline(cfg)
    assert rows[0]["overlap_final"] == rec["final"]["overlap_final"]


def test_sweep_records_partial_failures():
    base = small_cfg(n=80, min_rounds=0)
    rows = sweep(base, ns=[80, 10], rhos=[0.9], epsilons=[0.0],
                 strategies=["zero-out"], trials=1)
    status = {r["n"]: r["status"] for r in rows}
    assert status[80] == "ok"
    assert status[10] != "ok"                     # k0 = 24 >= n fails validation
    assert len(rows) == 2
