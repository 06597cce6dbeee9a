"""End-to-end pipeline, run records, and experiment sweeps.

A run executes the stages schedule -> generate -> corrupt (A and B in
place) -> clean (re-inject noise and spectrally clean each matrix) -> AMP
for every seed pair -> per seed pair score -> LAP -> dump (with
--dump-dir) -> refine -> select, and emits a schema-versioned RunRecord.
One stage context names the stage that a failure records as
failed:<stage> and adds each stage's wall time to stages_s; schedule and
dump are not timed.
Each stage owns the matrices it replaces, no stage before the LAP copies
an n x n matrix, and each dies at its last use.  generate builds the
correlated matrix in Z's buffer and permutes it into B in place; corrupt
turns A and B into A' and B' in place; cleaning builds the bool
indicators (refine and selection read only those), then re-injects noise
over A' and B', each block of noise rows as it is drawn, and cleans them
in their own buffers; AMP multiplies by the cleaned pair where it lies,
for every seed pair; the cleaned pair dies after AMP and each score after
its assignment.
generate, corrupt and AMP hold 2 n x n float64 and cleaning about 2.25.
By ru_maxrss at n = 3000 the run peaks at about 2.45 n x n: in cleaning
(S4's blocks of P) when no spike is left, and otherwise in AMP, whose
first n x n by n x d product with d >= 2 touches OpenBLAS's threaded GEMM
buffer (+0.13 n x n with two threads).  Score, LAP and refine add nothing
above it.  run_pipeline is the one writer of the --trace-cleaning rows,
to <output>.cleaning.jsonl just before the record.
Sweeps run the cartesian product of small parameter grids with independent
derived seeds and write one CSV row per (cell, trial) plus a JSON summary.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import itertools
import json
import math
import numbers
import os
import sys
import time
import traceback
from collections.abc import Mapping, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .amp import bad_seed_pair, good_seed_pair, run_amp
from .assign import assemble_pi, build_scores, solve_lap
from .config import RunConfig
from .denoiser import build_schedule, make_denoiser
from .errors import ParameterError, RecordError, exit_code_for
from .model import _corrupt_in_place, generate, overlap
from .preprocess import _clean_owned
from .refine import RefineParams, seeded_refine, selection_score
from .rng import child, derive_streams

SCHEMA_VERSION = 1

RUN_RECORD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "config", "status", "stream_seeds",
                 "stages_s", "versions"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "status": {"type": "string"},
        "exit_code": {"type": "integer"},
        "error": {"type": ["string", "null"]},
        "config": {"type": "object"},
        "stream_seeds": {"type": "object"},
        "stages_s": {"type": "object",
                     "additionalProperties": {"type": "number"}},
        "cleaning": {
            "type": "object",
            "properties": {
                "zeroed_a": {"type": "array", "items": {"type": "integer"}},
                "zeroed_b": {"type": "array", "items": {"type": "integer"}},
                "iters_a": {"type": "integer"},
                "iters_b": {"type": "integer"},
            },
        },
        "schedule": {"type": "object"},
        "rounds": {"type": "array", "items": {"type": "object"}},
        "candidates": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "select_score"],
                "properties": {
                    "label": {"type": "string"},
                    "goodness": {"type": ["boolean", "null"]},
                    "overlap_lap": {"type": ["number", "null"]},
                    "overlap_refine": {"type": ["number", "null"]},
                    "swaps": {"type": "integer"},
                    "truncated": {"type": "boolean"},
                    "select_score": {"type": "integer"},
                    "stopped_reason": {"type": "string"},
                },
            },
        },
        "final": {"type": "object"},
        "assertions": {"type": "object",
                       "additionalProperties": {"type": ["boolean", "null"]}},
        "versions": {"type": "object"},
    },
}


# The keywords that RUN_RECORD_SCHEMA uses, the only ones _check implements;
# "$schema" names the draft (2020-12) and checks nothing.
_KEYWORDS = {"$schema", "type", "const", "required", "properties",
             "additionalProperties", "items"}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None)}


def _is_type(value, name: str) -> bool:
    """Draft 2020-12's type test: an integral float is an integer, and a
    bool is neither an integer nor a number."""
    if name == "integer":
        return ((isinstance(value, int) and not isinstance(value, bool))
                or (isinstance(value, float) and value.is_integer()))
    if name == "number":
        return isinstance(value, numbers.Number) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def _equal(a, b) -> bool:
    """JSON Schema's equality for const: 1 equals 1.0, True does not equal
    1, and sequences and mappings compare item by item."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, Sequence) and isinstance(b, Sequence):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    return a == b


def _check(value, schema: dict, path: str) -> None:
    """Raise RecordError at the first keyword of schema that value at path
    breaks, worded as the JSON Schema reference validator words it; refuse
    a keyword outside _KEYWORDS."""
    unknown = set(schema) - _KEYWORDS
    if unknown:
        raise ValueError(f"the record check implements no keyword {sorted(unknown)}")
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_is_type(value, t) for t in types):
            raise RecordError(f"{path}: {value!r} is not of type "
                              + ", ".join(map(repr, types)))
    if "const" in schema and not _equal(value, schema["const"]):
        raise RecordError(f"{path}: {schema['const']!r} was expected")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise RecordError(f"{path}: {key!r} is a required property")
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}")
        if "additionalProperties" in schema:
            for key, item in value.items():
                if key not in properties:
                    _check(item, schema["additionalProperties"], f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{path}[{i}]")


def validate_record(record: dict) -> None:
    """Raise RecordError where record breaks RUN_RECORD_SCHEMA, as a
    Draft 2020-12 validator would refuse it, naming the value's path."""
    _check(record, RUN_RECORD_SCHEMA, "$")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


class _Stages:
    """`with stage(name):` makes name the stage that a failure records as
    failed:<name> and, unless timed=False, adds the block's wall time to
    stages_s[name]."""

    def __init__(self, stages_s: dict):
        self.current = "setup"
        self.stages_s = stages_s

    @contextlib.contextmanager
    def __call__(self, name: str, timed: bool = True):
        self.current = name
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if timed:
                self.stages_s[name] = (self.stages_s.get(name, 0.0)
                                       + time.perf_counter() - t0)


def _dump(dump_dir: str, label: str, prob, sigma) -> None:
    """Write a candidate's score matrix and LAP assignment."""
    os.makedirs(dump_dir, exist_ok=True)
    np.save(os.path.join(dump_dir, f"score_{label}.npy"), prob.score)
    with open(os.path.join(dump_dir, f"assignment_{label}.csv"), "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_vertex", "col_vertex"])
        for i, s in enumerate(sigma):
            writer.writerow([int(prob.row_labels[i]), int(prob.col_labels[s])])


def _record_failure(record: dict, stage: str, exc: Exception) -> None:
    """Record exc, being handled, as the run's failure at stage."""
    record.update(status=f"failed:{stage}", exit_code=exit_code_for(exc),
                  error=f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())


def run_pipeline(cfg: RunConfig) -> dict:
    """Execute one full run and return its RunRecord (never raises; failures
    are recorded with the stage name and mapped exit code, and a record
    that RUN_RECORD_SCHEMA refuses as failed:record)."""
    record: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": _sanitize(cfg.as_dict()),
        "stream_seeds": {},
        "status": "ok",
        "exit_code": 0,
        "error": None,
        "stages_s": {},
        "versions": {"package": _pkg_version, "numpy": np.__version__},
    }
    stage = _Stages(record["stages_s"])
    clean_trace: list | None = [] if cfg.trace_cleaning and cfg.output else None
    try:
        cfg.validate()
        with stage("schedule", timed=False):
            dn = make_denoiser()
            sched = build_schedule(cfg.rho, cfg.n, cfg.k0, d=dn, min_rounds=cfg.min_rounds)
        streams = record["stream_seeds"] = derive_streams(cfg.master_seed)
        with stage("generate"):
            inst = generate(cfg.n, cfg.rho, "uniform-random", streams["instance"])

        with stage("corrupt"):
            plan = _corrupt_in_place(inst.a, inst.b, cfg.epsilon, cfg.strategy,
                                     streams["corruption"])
            observed, pi_star = [inst.a, inst.b], inst.pi_star
            del inst    # A' and B' are now held by observed alone

        with stage("clean"):
            cp, ind = _clean_owned(observed, streams["noise"], trace=clean_trace)
            record["cleaning"] = {"zeroed_a": cp.s.tolist(), "zeroed_b": cp.t.tolist(),
                                  "iters_a": len(cp.s), "iters_b": len(cp.t)}

        # after cleaning, so that the record keeps its key order
        record["schedule"] = {
            "ks": list(sched.ks), "epss": list(sched.epss),
            "t_star": sched.t_star, "eps0": sched.eps0,
            "gamma": sched.gamma, "c2": sched.c2,
            "lambda_cap": sched.lambda_cap,
            "signal_growth_factor": sched.signal_growth_factor,
            "signal_growth_condition_met": sched.signal_growth_factor > 1.0,
            "eq25_ratio": sched.eq25_ratio,
            "eq25_satisfied": sched.eq25_ratio < 1.01 and sched.eq25_ratio > 0}

        with stage("amp"):
            exclude_u = set(plan.q.tolist()) | set(cp.s.tolist())
            exclude_v = set(plan.r.tolist()) | set(cp.t.tolist())
            pairs = [("oracle", good_seed_pair(pi_star, cfg.k0, exclude_u, exclude_v))]
            for i in range(cfg.bad_seed_candidates):
                pairs.append((f"bad{i}", bad_seed_pair(pi_star, cfg.k0,
                                                       child(streams["corruption"], 100 + i))))
            amp_results = [run_amp(cp, seeds, sched, dn, min_rounds=cfg.min_rounds,
                                   beta_seed=streams["beta"]) for _, seeds in pairs]
        del cp      # the cleaned pair dies once every seed pair has run AMP

        # one record entry per candidate; its permutation is kept for selection
        candidates: list[dict] = []
        perms: list[np.ndarray] = []
        for (label, seeds), res in zip(pairs, amp_results):
            with stage("score"):
                prob = build_scores(res.iterate)
            with stage("lap"):
                sigma = solve_lap(prob)
                pi_lap = assemble_pi(seeds, prob, sigma)
            if cfg.dump_dir:
                with stage("dump", timed=False):
                    _dump(cfg.dump_dir, label, prob, sigma)
            del prob    # the n x n score dies before refine builds its table
            with stage("refine"):
                params = RefineParams.for_run(cfg.rho, cfg.n)
                trace: list | None = [] if cfg.verbose else None
                pi_ref, info = seeded_refine(ind, pi_lap, cfg.rho, params, trace=trace)
            candidates.append({
                "label": label,
                "goodness": seeds.goodness,
                "overlap_lap": overlap(pi_lap, pi_star),
                "overlap_refine": overlap(pi_ref, pi_star),
                "swaps": info["swaps"],
                "truncated": info["truncated"],
                "stopped_reason": res.stopped_reason,
                "select_score": info["select_score"],
            })
            if trace is not None:
                candidates[-1]["swap_trace"] = trace
            perms.append(pi_ref)
        with stage("select"):
            rng_rand = np.random.default_rng(child(streams["corruption"], 999))
            for i in range(cfg.random_candidates):
                pi_rand = rng_rand.permutation(cfg.n).astype(np.intp)
                candidates.append({"label": f"random{i}", "goodness": None,
                                   "overlap_lap": None,
                                   "overlap_refine": overlap(pi_rand, pi_star),
                                   "swaps": 0, "truncated": False,
                                   "stopped_reason": "n/a",
                                   "select_score": selection_score(ind, pi_rand)})
                perms.append(pi_rand)
            # the rule of final_select, on the scores already computed
            scores = [c["select_score"] for c in candidates]
            best = int(np.argmax(scores))   # argmax returns the first maximiser

        record["rounds"] = [dataclasses.asdict(r) for r in amp_results[0].rounds]
        record["candidates"] = candidates
        record["final"] = {
            "selected_label": candidates[best]["label"],
            "overlap_final": overlap(perms[best], pi_star),
            "select_scores": scores,
        }
        record["assertions"] = _runtime_assertions(record["rounds"], sched)
    except Exception as exc:  # recorded, not raised: callers read status
        _record_failure(record, stage.current, exc)
    # read, not imported, at the end: only a dense LAP loads SciPy
    record["versions"]["scipy"] = getattr(sys.modules.get("scipy"), "__version__", None)
    record = _sanitize(record)
    if record["status"] == "ok":
        try:
            validate_record(record)
        except RecordError as exc:
            _record_failure(record, "record", exc)
    if cfg.output:
        try:
            if clean_trace:
                with open(str(cfg.output) + ".cleaning.jsonl", "w") as fh:
                    fh.writelines(json.dumps(row) + "\n" for row in clean_trace)
            with open(cfg.output, "w") as fh:
                json.dump(record, fh, indent=2)
        except OSError as exc:  # an earlier failure keeps its own status
            if record["status"] == "ok":
                _record_failure(record, "output", exc)
    return record


def _runtime_assertions(rounds: list[dict], sched) -> dict:
    """Pass/fail of the per-round runtime checks, aggregated over the run."""
    out = {
        "xi_phi_orthonormal": None,
        "psi_diag_in_window": None,
        "spectral_window_all_rounds": None,
        "eps_lower_bound": None,
        "signal_growth_monotone": None,
    }
    if rounds:
        # every logged round built its frame, so it has these three values
        out["xi_phi_orthonormal"] = max(r["xi_ortho_err"] for r in rounds) <= 1e-8
        out["psi_diag_in_window"] = all(
            0.9 * r["eps_t"] < r["psi_diag_min"] and r["psi_diag_max"] < 1.1 * r["eps_t"]
            for r in rounds)
        accepted = [r["accepted"] for r in rounds if r.get("accepted") is not None]
        out["spectral_window_all_rounds"] = all(accepted) if accepted else None
        lb = [r["eps_lower_bound_ok"] for r in rounds if r.get("eps_lower_bound_ok") is not None]
        out["eps_lower_bound"] = all(lb) if lb else None
    if sched.signal_growth_factor > 1.0:
        signal = [k * e * e for k, e in zip(sched.ks, sched.epss)]
        out["signal_growth_monotone"] = all(b > a for a, b in zip(signal, signal[1:]))
    return out


def compare_clean_corrupted(cfg: RunConfig) -> dict:
    """Shared-randomness comparison: identical instance, noise and beta seeds,
    with and without corruption.  Returns the relative Frobenius gap of the
    final h along with both iterates' metadata.  Each step reads its own
    stream, so each matrix can die at its last use: the corrupted copies and
    then A and B die in cleaning."""
    cfg.validate()
    streams = derive_streams(cfg.master_seed)
    inst = generate(cfg.n, cfg.rho, "uniform-random", streams["instance"])
    dn = make_denoiser()
    sched = build_schedule(cfg.rho, cfg.n, cfg.k0, d=dn, min_rounds=cfg.min_rounds)

    corrupted = [inst.a.copy(), inst.b.copy()]
    plan = _corrupt_in_place(*corrupted, cfg.epsilon, cfg.strategy, streams["corruption"])
    cp_c = _clean_owned(corrupted, streams["noise"])[0]
    # at eps = 0, corrupt only copies A and B: hand them over as they are
    uncorrupted, pi_star = [inst.a, inst.b], inst.pi_star
    del inst
    cp_0 = _clean_owned(uncorrupted, streams["noise"])[0]
    zeroed_c, zeroed_0 = cp_c.s.tolist(), cp_0.s.tolist()
    exclude_u = set(plan.q.tolist()) | set(zeroed_c) | set(zeroed_0)
    exclude_v = set(plan.r.tolist()) | set(cp_c.t.tolist()) | set(cp_0.t.tolist())
    seeds = good_seed_pair(pi_star, cfg.k0, exclude_u, exclude_v)

    kw = dict(min_rounds=cfg.min_rounds, beta_seed=streams["beta"])
    res_c = run_amp(cp_c, seeds, sched, dn, **kw)
    del cp_c
    res_0 = run_amp(cp_0, seeds, sched, dn, **kw)
    del cp_0
    h_c, h_0 = res_c.iterate.h, res_0.iterate.h
    denom = float(np.linalg.norm(h_0))
    gap = float(np.linalg.norm(h_c - h_0)) / denom if denom > 0 else math.inf
    return {"gap": gap,
            "rounds_clean": res_0.iterate.t, "rounds_corrupted": res_c.iterate.t,
            "zeroed_corrupted": zeroed_c, "zeroed_clean": zeroed_0}


SWEEP_FIELDS = ["n", "rho", "epsilon", "strategy", "trial", "master_seed",
                "status", "overlap_lap", "overlap_refine", "overlap_final",
                "cleaning_iters", "resamples_mean", "wall_s", "error"]


def _sweep_row(args):
    base, n, rho, eps, strategy, trial, row_idx = args
    cfg = dataclasses.replace(base, n=n, rho=rho, epsilon=eps, strategy=strategy,
                              master_seed=child(base.master_seed, row_idx),
                              trials=1, output=None,
                              dump_dir=f"{base.dump_dir}.{row_idx}" if base.dump_dir else None)
    row = dict.fromkeys(SWEEP_FIELDS)
    row.update(n=n, rho=rho, epsilon=eps, strategy=strategy, trial=trial,
               master_seed=cfg.master_seed)
    t0 = time.perf_counter()
    try:
        rec = run_pipeline(cfg)
        cleaning = rec.get("cleaning", {})
        resamples = [r["resamples"] for r in rec.get("rounds", [])
                     if r["resamples"] is not None]
        row.update(status=rec["status"], error=rec["error"],
                   cleaning_iters=cleaning.get("iters_a", 0) + cleaning.get("iters_b", 0),
                   resamples_mean=float(np.mean(resamples)) if resamples else None)
        if rec["status"] == "ok":
            row.update(overlap_lap=rec["candidates"][0]["overlap_lap"],
                       overlap_refine=rec["candidates"][0]["overlap_refine"],
                       overlap_final=rec["final"]["overlap_final"])
    except Exception as exc:  # defensive: run_pipeline should not raise
        row.update(status="failed:sweep", error=str(exc))
    row["wall_s"] = time.perf_counter() - t0
    return row


def sweep(base: RunConfig, ns, rhos, epsilons, strategies, trials: int,
          csv_path=None, summary_path=None, workers: int = 1) -> list[dict]:
    """Cartesian-product experiment with independent derived seeds per row."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    cells = list(itertools.product(ns, rhos, epsilons, strategies))
    jobs = []
    row_idx = 0
    for (n, rho, eps, strategy) in cells:
        for trial in range(trials):
            jobs.append((base, n, rho, eps, strategy, trial, row_idx))
            row_idx += 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(j) for j in jobs]
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
    if summary_path:
        by_cell: dict[tuple, list[dict]] = {cell: [] for cell in cells}
        for r in rows:
            by_cell[r["n"], r["rho"], r["epsilon"], r["strategy"]].append(r)
        summary = {}
        for (n, rho, eps, strategy), cell_rows in by_cell.items():
            ok = [r for r in cell_rows if r["status"] == "ok"]
            key = f"n={n},rho={rho},eps={eps},strategy={strategy}"
            ovs = [r["overlap_final"] for r in ok if r["overlap_final"] is not None]
            res = [r["resamples_mean"] for r in ok if r["resamples_mean"] is not None]
            summary[key] = {
                "trials": len(cell_rows),
                "ok": len(ok),
                "overlap_final_mean": float(np.mean(ovs)) if ovs else None,
                "overlap_final_median": float(np.median(ovs)) if ovs else None,
                "cleaning_iters_mean": float(np.mean([r["cleaning_iters"] for r in ok]))
                if ok else None,
                "resamples_mean": float(np.mean(res)) if res else None,
            }
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2)
    return rows
