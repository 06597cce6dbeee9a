"""Pipeline orchestration: records, determinism, schema, sweeps."""

import copy
import csv
import inspect
import json
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
import types
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

import wigmatch
from wigmatch.amp import RoundLog
from wigmatch.config import RunConfig, field_types, make_config, parse_config_file
from wigmatch.denoiser import Schedule
from wigmatch import pipeline
from wigmatch.errors import NumericalError, ParameterError, RecordError
from wigmatch.pipeline import (RECORD_TYPES, SCHEMA_VERSION, Candidate, Cleaning, Final,
                               compare_clean_corrupted, run_pipeline, sweep, validate_record)
from wigmatch.rng import child, derive_streams, stream_seed
from wigmatch.spectral import PHI_WINDOW


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
    # each field's type, from FIELD_TYPES; a bool is no count
    for name, value in (("n", 400.0), ("n", True), ("epsilon", 0.01j), ("rho", "0.9"),
                        ("strategy", b"zero-out"), ("verbose", 1), ("output", 3)):
        with pytest.raises(ParameterError, match=f"^{name} must be of type"):
            RunConfig(**{name: value}).validate()
    RunConfig(n=np.int64(400), rho=1, output=pathlib.Path("run.json")).validate()


def test_replay_reads_the_defaults_the_run_uses():
    # the benchmark's replay rebuilds a run as RunConfig(**record["config"])
    # and passes RunConfig's class constants where run_pipeline relies on
    # the library defaults or module constants; the two must stay equal
    from wigmatch.amp import run_amp, spectral_rounds
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
    # the run's rounds are made by spectral_rounds with its own default cap
    assert RunConfig.max_resamples == default(spectral_rounds, "max_resamples")
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
    cfg = small_cfg(output=str(out), bad_seed_candidates=1, random_candidates=1,
                    verbose=True)
    rec = run_pipeline(cfg)
    assert rec["status"] == "ok"
    validate_record(rec)
    assert list(rec["config"]) == [f.name for f in fields(RunConfig)]
    # the manifest is the record: every value JSON, tuples written as lists
    assert json.loads(out.read_text()) == rec
    assert "swap_trace" in rec["candidates"][0]
    labels = [c["label"] for c in rec["candidates"]]
    assert labels[0] == "oracle"
    assert "bad0" in labels and "random0" in labels
    assert rec["final"]["selected_label"] in labels
    assert 0.0 <= rec["final"]["overlap_final"] <= 1.0
    assert rec["schedule"]["t_star"] == 0
    # every round's frame is Phi-orthonormal, with its Psi diagonal in the window
    lo, hi = PHI_WINDOW
    for r in rec["rounds"]:
        assert r["xi_ortho_err"] <= 1e-8
        assert lo * r["eps_t"] < r["psi_diag_min"] <= r["psi_diag_max"] < hi * r["eps_t"]
    # desk-scale rounds cannot satisfy the eigenvalue windows
    assert any(r["accepted"] is False for r in rec["rounds"])


def test_every_top_level_key_is_declared():
    # the check reads only declared keys: an undeclared one goes unchecked
    declared = set(RECORD_TYPES)
    ok = run_pipeline(small_cfg(n=80, min_rounds=0, bad_seed_candidates=1,
                                random_candidates=1))
    setup = run_pipeline(RunConfig(n=64, master_seed=-1))
    amp = run_pipeline(RunConfig(n=100, k0=24, epsilon=0.7, strategy="zero-out",
                                 master_seed=1).validate())
    assert [r["status"] for r in (ok, setup, amp)] == ["ok", "failed:setup", "failed:amp"]
    for rec in (ok, setup, amp):
        assert set(rec) <= declared, rec["status"]


def test_record_states_each_fact_once():
    rec = run_pipeline(small_cfg(n=80, min_rounds=0, bad_seed_candidates=1,
                                 random_candidates=1))
    assert rec["status"] == "ok"
    assert rec["schema_version"] == SCHEMA_VERSION == 3
    # the rounds log each round's checks; no section restates them
    assert "assertions" not in rec and "assertions" not in RECORD_TYPES
    # no flag or count beside the value it restates
    assert list(rec["cleaning"]) == ["zeroed_a", "zeroed_b"]
    assert not {"signal_growth_condition_met", "eq25_satisfied"} & set(rec["schedule"])
    assert {"signal_growth_factor", "eq25_ratio"} <= set(rec["schedule"])
    # the rounds are the run's, so where they stopped is said once, after them
    keys = list(rec)
    assert keys[keys.index("rounds") + 1] == "stopped_reason"
    assert rec["stopped_reason"] == "t_star"
    assert [c["label"] for c in rec["candidates"]] == ["oracle", "bad0", "random0"]
    assert not any("stopped_reason" in c for c in rec["candidates"])


_JSON = {int: "integer", float: "number", bool: "boolean", str: "string", dict: "object"}


def _json_of(hint) -> dict:
    """The Draft 2020-12 schema of a value annotated hint: a dataclass is an
    object of its fields (the schedule's but rho and k0, the config's), a
    tuple[X, ...] an array of X and a dict[str, X] an object of X."""
    if is_dataclass(hint):
        left_out = ("rho", "k0") if hint is Schedule else ()
        return {"type": "object", "properties": {
            name: _json_of(h) for name, h in get_type_hints(hint).items() if name not in left_out}}
    if isinstance(hint, types.UnionType):      # X | None
        base, = set(get_args(hint)) - {type(None)}
        inner = _json_of(base)
        return {**inner, "type": [inner["type"], "null"]}
    if get_origin(hint) is tuple:
        return {"type": "array", "items": _json_of(get_args(hint)[0])}
    if get_origin(hint) is dict:
        return {"type": "object", "additionalProperties": _json_of(get_args(hint)[1])}
    return {"type": _JSON[hint]}


def _reference_schema() -> dict:
    """RECORD_TYPES as a Draft 2020-12 schema, with the tests that
    validate_record makes beside them written as const, enum and required."""
    props = {key: _json_of(hint) for key, hint in RECORD_TYPES.items()}
    props["schema_version"] = {"const": SCHEMA_VERSION}
    props["stopped_reason"]["enum"] = ["t_star", "min_rounds", "spectral"]
    props["candidates"]["items"]["required"] = ["label", "select_score"]
    return {"$schema": "https://json-schema.org/draft/2020-12/schema", "type": "object",
            "required": ["schema_version", "config", "status", "stream_seeds", "stages_s",
                         "versions"],
            "properties": props}


def test_round_and_schedule_types_come_from_their_dataclasses():
    sections = {"config": RunConfig, "cleaning": Cleaning, "schedule": Schedule,
                "rounds": tuple[RoundLog, ...], "candidates": tuple[Candidate, ...],
                "final": Final}
    assert {key: RECORD_TYPES[key] for key in sections} == sections
    # the check reads each section's keys from its dataclass's fields, in
    # order; rho and k0 are the config's
    for cls in (RunConfig, Cleaning, Schedule, RoundLog, Candidate, Final):
        left_out = ("rho", "k0") if cls is Schedule else ()
        assert list(pipeline._plan(cls)[1]) == [
            f.name for f in fields(cls) if f.name not in left_out], cls
    props = _reference_schema()["properties"]
    assert props["rounds"]["items"]["properties"]["resamples"] == {"type": ["integer", "null"]}
    assert props["schedule"]["properties"]["ks"] == {"type": "array", "items": {"type": "integer"}}
    assert props["candidates"]["items"]["properties"]["goodness"] == {
        "type": ["boolean", "null"]}
    assert props["stages_s"] == {"type": "object", "additionalProperties": {"type": "number"}}

    # a field that a new dataclass annotates is checked with no other edit
    @dataclass
    class Made:
        label: str | None
        xs: tuple[float, ...]
        flag: bool = False

    assert field_types(Made) == {"label": (str, True), "xs": (tuple[float, ...], False),
                                 "flag": (bool, False)}
    pipeline._check({"label": None, "xs": [0.5, 2], "flag": True}, Made, "$")
    for value, message in [({"label": 3}, "$.label: 3 is not of type 'string', 'null'"),
                           ({"xs": [0.5, "x"]}, "$.xs[1]: 'x' is not of type 'number'"),
                           ({"xs": (0.5,)}, "$.xs: (0.5,) is not of type 'array'"),
                           ({"label": "a", "flag": 1}, "$.flag: 1 is not of type 'boolean'")]:
        with pytest.raises(RecordError) as exc:
            pipeline._check(value, Made, "$")
        assert str(exc.value) == message


def test_validate_record_rejects_missing_status():
    rec = run_pipeline(small_cfg(n=80, min_rounds=0))
    del rec["status"]
    with pytest.raises(RecordError) as exc:
        validate_record(rec)
    assert "'status' is a required property" in str(exc.value)


def _edited(rec, path, value=None, delete=False):
    """A copy of rec with the value at path replaced, or deleted."""
    rec = copy.deepcopy(rec)
    *parents, last = path
    target = rec
    for key in parents:
        target = target[key]
    if delete:
        del target[last]
    else:
        target[last] = value
    return rec


def _typed(schema, value, path=()):
    """(path, schema) of each property of schema, present in value or not,
    and of the first item of each list in value that schema types, at every
    depth that value reaches."""
    children = []
    if isinstance(value, dict):
        children = [((*path, key), sub, value.get(key))
                    for key, sub in schema.get("properties", {}).items()]
    if isinstance(value, list) and value and "items" in schema:
        children.append(((*path, 0), schema["items"], value[0]))
    out = []
    for child_path, sub, child in children:
        out += [(child_path, sub), *_typed(sub, child, child_path)]
    return out


def _record_cases():
    """(label, record) pairs: run records as they come, and copies with one
    value deleted, replaced or added at a path."""
    ok = run_pipeline(small_cfg(n=80, epsilon=0.1, strategy="rank1-spike",
                                bad_seed_candidates=1, random_candidates=1, verbose=True))
    ok0 = run_pipeline(small_cfg(n=80, min_rounds=0))
    failed = run_pipeline(RunConfig(n=64, master_seed=-1))
    # cleaning and schedule, but no rounds, candidates or final
    amp = run_pipeline(RunConfig(n=100, k0=24, epsilon=0.7, strategy="zero-out",
                                 master_seed=1).validate())
    assert ok["status"] == ok0["status"] == "ok" and failed["status"] != "ok"
    assert amp["status"] == "failed:amp" and "schedule" in amp and "rounds" not in amp
    assert ok["cleaning"]["zeroed_a"] == [57]
    cases = [("ok", ok), ("ok t*=0", ok0), ("failed", failed), ("failed:amp", amp)]
    schema = _reference_schema()

    def edit(label, path, value=None, delete=False):
        cases.append((f"{label} at {path}", _edited(ok, path, value, delete)))

    for key in schema["required"]:
        edit("deleted", (key,), delete=True)
    props = schema["properties"]
    # a wrong type for every typed property and list item, and the edge
    # cases of integer
    values = ["text", 2, 2.0, 2.5, True, None, [], {}]
    for path, sub in _typed(schema, ok):
        if "type" in sub:
            for value in values:
                edit(repr(value), path, value)
    for key in props["candidates"]["items"]["required"]:
        edit("deleted", ("candidates", 0, key), delete=True)
    for value in (2, 3.0, True):
        edit(repr(value), ("schema_version",), value)
    edit("a string", ("stages_s", "amp"), "0.1")
    for value in ("anything", "n/a", "T_STAR"):
        edit(repr(value), ("stopped_reason",), value)
    edit("an object", ("rounds", 0), [])
    edit("an extra key", ("extra",), {"any": "thing"})
    edit("an extra key", ("cleaning", "extra"), "x")
    edit("an extra key", ("candidates", 0, "extra"), [1])
    return cases


def test_record_check_agrees_with_jsonschema():
    import jsonschema

    schema = _reference_schema()
    jsonschema.Draft202012Validator.check_schema(schema)
    reference = jsonschema.Draft202012Validator(schema)
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


def test_record_check_refuses_a_broken_figure_in_every_section():
    ok = run_pipeline(small_cfg(n=80, min_rounds=0))
    assert ok["status"] == "ok"
    validate_record(ok)
    for path, value, message in [
            (("final", "overlap_final"), "x", "$.final.overlap_final: 'x' is not of type 'number'"),
            (("schedule", "t_star"), "x", "$.schedule.t_star: 'x' is not of type 'integer'"),
            (("rounds", 0, "eps_t"), "x", "$.rounds[0].eps_t: 'x' is not of type 'number'"),
            (("stopped_reason",), "anything", "$.stopped_reason: 'anything' is not one of "
                                              "['t_star', 'min_rounds', 'spectral']")]:
        with pytest.raises(RecordError) as exc:
            validate_record(_edited(ok, path, value))
        assert str(exc.value) == message


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
    assert default["stopped_reason"] == "t_star"
    assert forced["stopped_reason"] != "t_star"
    assert len(default["candidates"]) == 2
    assert default["candidates"] == forced["candidates"]
    assert default["config"]["min_rounds"] == 0
    assert default["schedule"]["ks"] == [24]
    assert default["rounds"][0]["resamples"] is None
    assert forced["rounds"][0]["resamples"] is not None
    # round 0 draws no beta, so no window accepted or refused one
    assert all(r["accepted"] is None for r in default["rounds"])


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


def test_a_run_without_enough_clean_seed_vertices_fails_in_amp():
    # at eps = 0.7 zero-out corrupts or zeroes all but a few of the 100
    # vertices, so the oracle pair cannot find k0 = 24 clean ones
    rec = run_pipeline(RunConfig(n=100, k0=24, epsilon=0.7, strategy="zero-out",
                                 master_seed=1).validate())
    assert (rec["status"], rec["exit_code"]) == ("failed:amp", 2)
    assert rec["error"] == "ParameterError: cannot find 24 clean seed vertices"
    assert list(rec["stages_s"]) == ["generate", "corrupt", "clean", "amp"]


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


def test_a_path_output_is_recorded_as_its_string(tmp_path):
    out, dumps = tmp_path / "run.json", tmp_path / "dumps"
    rec = run_pipeline(small_cfg(n=80, k0=12, min_rounds=0, output=out, dump_dir=dumps))
    assert rec["status"] == "ok"
    assert (rec["config"]["output"], rec["config"]["dump_dir"]) == (str(out), str(dumps))
    assert json.loads(out.read_text()) == rec
    assert (dumps / "score_oracle.npy").exists()


def test_a_wrongly_typed_config_value_is_a_config_error_and_still_written(tmp_path):
    # the config is recorded as given: a value that JSON cannot encode is
    # recorded as its repr, so the manifest is still written
    out = tmp_path / "run.json"
    for kw, recorded in ((dict(strategy=b"zero-out"), ("strategy", "b'zero-out'")),
                         (dict(epsilon=0.01j), ("epsilon", "0.01j"))):
        rec = run_pipeline(RunConfig(n=80, k0=12, min_rounds=0, output=out, **kw))
        assert (rec["status"], rec["exit_code"]) == ("failed:setup", 2)
        assert rec["error"].startswith(f"ParameterError: {recorded[0]} must be of type")
        assert rec["config"][recorded[0]] == recorded[1]
        assert json.loads(out.read_text()) == rec
    # an output that is not a path is refused and written nowhere, not to
    # the file descriptor it names
    r, w = os.pipe()
    try:
        rec = run_pipeline(RunConfig(n=80, k0=12, min_rounds=0, output=w))
        assert (rec["status"], rec["exit_code"]) == ("failed:setup", 2)
        assert rec["error"].startswith("ParameterError: output must be of type str or None")
        os.close(w)     # raises if the run closed it
        assert os.read(r, 1) == b""
    finally:
        os.close(r)


@pytest.mark.parametrize("kw", [dict(output=threading.Lock()), dict(output=(c for c in "ab")),
                                dict(output=np.array([1, 2])), dict(strategy=threading.Lock()),
                                dict(trace_cleaning=np.array([1, 2]), output="run.json")],
                         ids=["lock output", "generator output", "array output", "lock strategy",
                              "array trace_cleaning"])
def test_no_config_value_makes_run_pipeline_raise(kw, tmp_path, monkeypatch):
    # the config is read, not copied or tested for truth, before it is valid
    monkeypatch.chdir(tmp_path)
    rec = run_pipeline(RunConfig(n=80, k0=12, **kw))
    assert (rec["status"], rec["exit_code"]) == ("failed:setup", 2)
    assert rec["error"].startswith("ParameterError: ")
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == (["run.json"] if "trace_cleaning" in kw else [])


def test_refused_record_is_recorded_and_its_manifest_written(tmp_path, monkeypatch):
    # run_pipeline never raises: a record that the check refuses becomes
    # failed:record, and the manifest is still written
    monkeypatch.setattr(pipeline, "REQUIRED_KEYS", (*pipeline.REQUIRED_KEYS, "nonexistent"))
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
    ("build_schedule", "schedule"), ("spectral_rounds", "amp"), ("advance", "amp"),
    ("build_scores", "score"), ("solve_lap", "lap"), ("_dump", "dump"),
    ("seeded_refine", "refine"), ("selection_score", "select")])
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
    # corrupt perturbs A and B in place (2.0).  Cleaning packs A' >= 1
    # (B' >= 1) into bits, a sixty-fourth of a matrix, then re-injects and
    # cleans A' (B') in its own buffer, and AMP reads the pair arranged in
    # place.  The LAP's score and cost make about 2.25.  rank1-spike measures
    # 2.41 and zero-out 2.82 (2.63 and 3.04 with bool indicators): at this
    # size a noise row block is a sixth of the matrix, and zero-out ends
    # cleaning with the certificate, whose 256 x n block of M^T M is two
    # thirds of it.
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
        assert peak <= 2.9 * 8 * n * n, \
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
    # peak grows by 2.43-2.44 (rank1-spike) and 2.45-2.46 (zero-out) n x n
    # float64 matrices, under two BLAS threads (2.66 and 2.68-2.69 with
    # bool indicators).
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
        assert growth <= 2.55, f"{strategy}: peak RSS grew by {growth:.2f} n x n matrices"


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
        assert all(type(r["power_iterations"]) is int and r["power_iterations"] >= 1
                   for r in mine)
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
        cfg = replace(base, epsilon=eps, strategy="zero-out",
                      master_seed=child(base.master_seed, row_idx),
                      dump_dir=str(tmp_path / "own"))
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


def test_the_run_and_the_comparison_draw_each_rounds_beta_once(monkeypatch):
    # the rounds read no seed pair, so the oracle and the bad-seed candidate
    # (and the comparison's two cleaned pairs) share round 0's beta draws
    import wigmatch.amp as amp
    real, calls = amp.sample_beta, []

    def counted(*args, **kwargs):
        calls.append(kwargs["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(amp, "sample_beta", counted)
    rec = run_pipeline(small_cfg(min_rounds=1, bad_seed_candidates=1))
    assert rec["status"] == "ok" and len(rec["candidates"]) == 2
    assert rec["rounds"][0]["resamples"] is not None
    assert calls == [child(rec["stream_seeds"]["beta"], 0)]
    calls.clear()
    out = compare_clean_corrupted(small_cfg(min_rounds=1))
    assert out["rounds_clean"] == out["rounds_corrupted"] == 1
    assert len(calls) == 1


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
    cfg = replace(base, master_seed=child(base.master_seed, 0), output=None)
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
    # the run never reached cleaning: no count of zeroed rows, not 0
    assert setup == {"n": 10, **cell, "master_seed": child(7, 1), "status": "failed:setup",
                     "overlap_lap": None, "overlap_refine": None, "overlap_final": None,
                     "cleaning_iters": None, "resamples_mean": None}
    assert raised == {"n": 80, **cell, "master_seed": child(7, 0), "status": "failed:sweep",
                      "overlap_lap": None, "overlap_refine": None, "overlap_final": None,
                      "cleaning_iters": None, "resamples_mean": None,
                      "error": "run_pipeline raised"}


@pytest.mark.parametrize("lists", [dict(ns=[80, 80]), dict(rhos=[0.9, 0.9]),
                                   dict(epsilons=[0.01, 0.0, 0.01]),
                                   dict(strategies=["zero-out", "zero-out"])])
def test_sweep_refuses_a_repeated_value_before_the_first_row(lists, tmp_path, monkeypatch):
    # a repeated value would run one cell twice, both times as trial 0
    monkeypatch.setattr(pipeline, "run_pipeline", lambda cfg: pytest.fail("a row ran"))
    grid = {**dict(ns=[80], rhos=[0.9], epsilons=[0.0], strategies=["zero-out"]), **lists}
    name = next(iter(lists))
    with pytest.raises(ParameterError, match=f"^{name} repeats a value"):
        sweep(small_cfg(n=80), **grid, trials=1, csv_path=tmp_path / "rows.csv")
    assert not (tmp_path / "rows.csv").exists()
