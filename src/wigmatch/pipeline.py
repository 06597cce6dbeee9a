"""End-to-end pipeline, run records, and experiment sweeps.

A run executes generate -> corrupt -> clean_pair -> AMP for every seed
pair -> (per seed pair) scores -> assignment -> refinement -> final
selection, and emits a schema-versioned RunRecord.  Each stage owns the
matrices it replaces, and each n x n matrix dies at its last use: Z as it
becomes the correlated matrix and that matrix once B is gathered from it;
A and B as corrupt turns them into A' and B' in place; each noise matrix
as it becomes its re-injected matrix; A' and B' in cleaning, each as soon
as its bool indicator is built (refine and selection read only the
indicators) and before its re-injected matrix is cleaned; each AMP
sub-matrix after its product; the cleaned pair after AMP and each score
after its assignment.  generate holds 3 n x n float64, corrupt 2 and
cleaning at most about 3.25, with the certificate's M^T M; the peak,
about 3.4 by ru_maxrss, is in AMP: the cleaned pair, the indicators and
one gathered sub-matrix.
Sweeps run the cartesian product of small parameter grids with independent
derived seeds and write one CSV row per (cell, trial) plus a JSON summary.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
import time
import traceback
from dataclasses import asdict

import numpy as np

from . import __version__ as _pkg_version
from .amp import bad_seed_pair, good_seed_pair, run_amp
from .assign import assemble_pi, build_scores, solve_lap
from .config import RunConfig
from .denoiser import build_schedule, make_denoiser
from .errors import exit_code_for
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


@functools.cache
def _record_validator():
    """A validator for RUN_RECORD_SCHEMA, whose own check runs once."""
    import jsonschema

    cls = jsonschema.validators.validator_for(RUN_RECORD_SCHEMA)
    cls.check_schema(RUN_RECORD_SCHEMA)
    return cls(RUN_RECORD_SCHEMA)


def validate_record(record: dict) -> None:
    """Raise the jsonschema.ValidationError that jsonschema.validate would."""
    import jsonschema

    error = jsonschema.exceptions.best_match(_record_validator().iter_errors(record))
    if error is not None:
        raise error


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


def _split(stages_s: dict, stage: str, t0: float) -> float:
    """Add the time since t0 to stages_s[stage]; return the current time."""
    now = time.perf_counter()
    stages_s[stage] += now - t0
    return now


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


def run_pipeline(cfg: RunConfig) -> dict:
    """Execute one full run and return its RunRecord (never raises; failures
    are recorded with the stage name and mapped exit code)."""
    record: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": _sanitize(cfg.as_dict()),
        "stream_seeds": {},
        "status": "ok",
        "exit_code": 0,
        "error": None,
        "stages_s": {},
        "versions": {"package": _pkg_version, "numpy": np.__version__,
                     "scipy": __import__("scipy").__version__},
    }
    stage = "setup"
    try:
        cfg.validate()
        streams = record["stream_seeds"] = derive_streams(cfg.master_seed)
        t0 = time.perf_counter()
        stage = "generate"
        inst = generate(cfg.n, cfg.rho, "uniform-random", streams["instance"])
        record["stages_s"]["generate"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        stage = "corrupt"
        plan = _corrupt_in_place(inst.a, inst.b, cfg.epsilon, cfg.strategy,
                                 streams["corruption"])
        observed, pi_star = [inst.a, inst.b], inst.pi_star
        del inst    # A' and B' are now held by observed alone
        record["stages_s"]["corrupt"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        stage = "clean"
        trace_path = None
        if cfg.trace_cleaning and cfg.output:
            trace_path = str(cfg.output) + ".cleaning.jsonl"
        cp, ind = _clean_owned(observed, streams["noise"], trace_path=trace_path)
        record["cleaning"] = {"zeroed_a": cp.s.tolist(), "zeroed_b": cp.t.tolist(),
                              "iters_a": cp.iters_a, "iters_b": cp.iters_b}
        record["stages_s"]["clean"] = time.perf_counter() - t0

        stage = "schedule"
        dn = make_denoiser()
        sched = build_schedule(cfg.rho, cfg.n, cfg.k0, d=dn, min_rounds=cfg.min_rounds)
        record["schedule"] = {"ks": list(sched.ks), "epss": list(sched.epss),
                              "t_star": sched.t_star, "eps0": sched.eps0,
                              "gamma": sched.gamma, "c2": sched.c2,
                              "lambda_cap": sched.lambda_cap,
                              "signal_growth_factor": sched.signal_growth_factor,
                              "signal_growth_condition_met": sched.signal_growth_factor > 1.0,
                              "eq25_ratio": sched.eq25_ratio,
                              "eq25_satisfied": sched.eq25_ratio < 1.01 and sched.eq25_ratio > 0}

        stage = "amp"
        stages_s = record["stages_s"]
        stages_s.update(amp=0.0, score=0.0, lap=0.0, refine=0.0, select=0.0)
        exclude_u = set(plan.q.tolist()) | set(cp.s.tolist())
        exclude_v = set(plan.r.tolist()) | set(cp.t.tolist())
        pairs = [("oracle", good_seed_pair(pi_star, cfg.k0, exclude_u, exclude_v))]
        for i in range(cfg.bad_seed_candidates):
            pairs.append((f"bad{i}", bad_seed_pair(pi_star, cfg.k0,
                                                   child(streams["corruption"], 100 + i))))
        t = time.perf_counter()
        amp_results = [run_amp(cp, seeds, sched, dn, min_rounds=cfg.min_rounds,
                               beta_seed=streams["beta"])
                       for _, seeds in pairs]
        _split(stages_s, "amp", t)
        del cp      # the cleaned pair dies once every seed pair has run AMP

        candidates: list[dict] = []
        for (label, seeds), res in zip(pairs, amp_results):
            t = time.perf_counter()
            stage = "score"
            prob = build_scores(res.iterate)
            t = _split(stages_s, "score", t)
            stage = "lap"
            sigma = solve_lap(prob)
            pi_lap = assemble_pi(seeds, prob, sigma)
            t = _split(stages_s, "lap", t)
            if cfg.dump_dir:
                _dump(cfg.dump_dir, label, prob, sigma)
                t = time.perf_counter()
            del prob    # the n x n score dies before refine builds its table
            stage = "refine"
            params = RefineParams.for_run(cfg.rho, cfg.n)
            trace: list | None = [] if cfg.verbose else None
            pi_ref, info = seeded_refine(ind, pi_lap, cfg.rho, params, trace=trace)
            _split(stages_s, "refine", t)
            cand = {
                "label": label,
                "goodness": seeds.goodness,
                "overlap_lap": overlap(pi_lap, pi_star),
                "overlap_refine": overlap(pi_ref, pi_star),
                "swaps": info["swaps"],
                "truncated": info["truncated"],
                "stopped_reason": res.stopped_reason,
                "rounds": [asdict(r) for r in res.rounds],
                "pi": pi_ref,
                "select_score": info["select_score"],
            }
            if trace is not None:
                cand["swap_trace"] = trace
            candidates.append(cand)
        t0 = time.perf_counter()
        stage = "select"
        rng_rand = np.random.default_rng(child(streams["corruption"], 999))
        for i in range(cfg.random_candidates):
            pi_rand = rng_rand.permutation(cfg.n).astype(np.intp)
            candidates.append({"label": f"random{i}", "goodness": None,
                               "overlap_lap": None,
                               "overlap_refine": overlap(pi_rand, pi_star),
                               "swaps": 0, "truncated": False,
                               "stopped_reason": "n/a", "rounds": [],
                               "pi": pi_rand,
                               "select_score": selection_score(ind, pi_rand)})
        # the rule of final_select, on the scores already computed
        scores = [c["select_score"] for c in candidates]
        best = int(np.argmax(scores))   # argmax returns the first maximiser
        pi_final = candidates[best]["pi"]
        _split(stages_s, "select", t0)

        amp_rounds = candidates[0].get("rounds", [])
        record["rounds"] = amp_rounds
        record["candidates"] = [
            {k: v for k, v in c.items() if k not in ("pi", "rounds")}
            for c in candidates
        ]
        record["final"] = {
            "selected_label": candidates[best]["label"],
            "overlap_final": overlap(pi_final, pi_star),
            "select_scores": scores,
        }
        record["assertions"] = _runtime_assertions(amp_rounds, sched)
    except Exception as exc:  # recorded, not raised: callers read status
        record["status"] = f"failed:{stage}"
        record["exit_code"] = exit_code_for(exc)
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exc()
    record = _sanitize(record)
    if record["status"] == "ok":
        validate_record(record)
    if cfg.output:
        try:
            with open(cfg.output, "w") as fh:
                json.dump(record, fh, indent=2)
        except OSError as exc:  # an earlier failure keeps its own status
            if record["status"] == "ok":
                record.update(status="failed:output", exit_code=exit_code_for(exc),
                              error=f"{type(exc).__name__}: {exc}")
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
        errs = [r["xi_ortho_err"] for r in rounds if r.get("xi_ortho_err") is not None]
        out["xi_phi_orthonormal"] = bool(errs and max(errs) <= 1e-8)
        diag_ok = []
        for r in rounds:
            if r.get("psi_diag_min") is None:
                continue
            lo, hi = 0.9 * r["eps_t"], 1.1 * r["eps_t"]
            diag_ok.append(lo < r["psi_diag_min"] and r["psi_diag_max"] < hi)
        out["psi_diag_in_window"] = bool(diag_ok) and all(diag_ok)
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


def _sweep_row(args):
    base, n, rho, eps, strategy, trial, row_idx = args
    cfg_kw = dict(base.as_dict())
    cfg_kw.update(n=n, rho=rho, epsilon=eps, strategy=strategy,
                  master_seed=child(base.master_seed, row_idx),
                  trials=1, output=None)
    cfg = RunConfig(**cfg_kw)
    t0 = time.perf_counter()
    try:
        rec = run_pipeline(cfg)
        cand0 = rec.get("candidates", [{}])[0] if rec["status"] == "ok" else {}
        resamples = [r["resamples"] for r in rec.get("rounds", [])
                     if r.get("resamples") is not None]
        return {
            "n": n, "rho": rho, "epsilon": eps, "strategy": strategy,
            "trial": trial, "master_seed": cfg.master_seed,
            "status": rec["status"],
            "overlap_lap": cand0.get("overlap_lap"),
            "overlap_refine": cand0.get("overlap_refine"),
            "overlap_final": rec.get("final", {}).get("overlap_final"),
            "cleaning_iters": (rec.get("cleaning", {}).get("iters_a", 0)
                               + rec.get("cleaning", {}).get("iters_b", 0)),
            "resamples_mean": float(np.mean(resamples)) if resamples else None,
            "wall_s": time.perf_counter() - t0,
            "error": rec.get("error"),
        }
    except Exception as exc:  # defensive: run_pipeline should not raise
        return {"n": n, "rho": rho, "epsilon": eps, "strategy": strategy,
                "trial": trial, "master_seed": cfg.master_seed,
                "status": "failed:sweep", "overlap_lap": None,
                "overlap_refine": None, "overlap_final": None,
                "cleaning_iters": None, "resamples_mean": None,
                "wall_s": time.perf_counter() - t0, "error": str(exc)}


SWEEP_FIELDS = ["n", "rho", "epsilon", "strategy", "trial", "master_seed",
                "status", "overlap_lap", "overlap_refine", "overlap_final",
                "cleaning_iters", "resamples_mean", "wall_s", "error"]


def sweep(base: RunConfig, ns, rhos, epsilons, strategies, trials: int,
          csv_path=None, summary_path=None, workers: int = 1) -> list[dict]:
    """Cartesian-product experiment with independent derived seeds per row."""
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
        summary = {}
        for (n, rho, eps, strategy) in cells:
            cell_rows = [r for r in rows if (r["n"], r["rho"], r["epsilon"],
                                             r["strategy"]) == (n, rho, eps, strategy)]
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
