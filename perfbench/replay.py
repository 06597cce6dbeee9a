"""Traced phase: replay and check the timed phase's runs.

`replay_run` makes the same public calls, with the same seeds, that
`wigmatch.pipeline.run_pipeline` makes, and records a span around each call
and a count after it.  It returns the outputs of every stage so the checks
can run after the run's root span has closed.
"""

from __future__ import annotations

import json
import statistics
import time
import traceback
from contextlib import contextmanager

import numpy as np

import checks

from wigmatch import (RefineParams, RunConfig, assemble_pi, bad_seed_pair,
                      build_schedule, build_scores, clean_pair, corrupt,
                      final_select, generate, good_seed_pair, make_denoiser,
                      overlap, run_amp, seeded_refine, selection_score,
                      solve_lap, validate_record)
from wigmatch.rng import child, derive_streams


class Tracer:
    """Spans (run, name, start, end, parent) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._run = None

    @contextmanager
    def span(self, name: str, run: str | None = None):
        if run is not None:
            self._run = run
        rec = {"run": self._run, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


def _candidate(tr: Tracer, label, seeds, cp, sched, dn, cfg, beta_seed, obs, inst):
    with tr.span("amp.run"):
        res = run_amp(cp, seeds, sched, dn, min_rounds=cfg.min_rounds,
                      beta_seed=beta_seed, xi_factor=cfg.xi_factor,
                      max_resamples=cfg.max_resamples, spectral_mode=cfg.spectral_mode)
    beta_rounds = [r for r in res.rounds if r.resamples is not None]
    tr.count("amp.rounds", len(res.rounds))
    tr.count("spectral.beta_draws", sum(r.resamples + bool(r.accepted) for r in beta_rounds))
    tr.count("spectral.beta_accepted", sum(bool(r.accepted) for r in beta_rounds))
    with tr.span("assign.score"):
        prob = build_scores(res.iterate)
    with tr.span("assign.lap"):
        sigma = solve_lap(prob)
    with tr.span("assign.assemble"):
        pi_lap = assemble_pi(seeds, prob, sigma)
    with tr.span("refine.params"):
        params = RefineParams.for_run(cfg.rho, cfg.n, cfg.max_swaps_value)
    with tr.span("refine.refine"):
        pi_ref, info = seeded_refine(obs, pi_lap, cfg.rho, params,
                                     selection=cfg.selection_rule)
    tr.count("refine.swaps", info["swaps"])
    with tr.span("refine.select"):
        score = selection_score(obs, pi_ref)
    return {"label": label, "seeds": seeds, "h": res.iterate.h, "l": res.iterate.l,
            "d": res.rounds[-1].d, "prob": prob, "sigma": sigma, "pi_lap": pi_lap,
            "params": params, "pi": pi_ref, "truncated": info["truncated"],
            "overlap_lap": overlap(pi_lap, inst.pi_star),
            "overlap_refine": overlap(pi_ref, inst.pi_star),
            "swaps": info["swaps"], "select_score": score}


def replay_run(record: dict, tr: Tracer, run: str) -> dict:
    """Replay the run that produced `record`, from the config it carries."""
    cfg = RunConfig(**record["config"])
    if cfg.mode != "oracle-seed" or cfg.verbose or cfg.dump_dir or cfg.trace_cleaning:
        raise ValueError("the replay covers oracle-seed runs without dumps or traces")
    streams = derive_streams(cfg.master_seed)
    with tr.span("pipeline.run", run=run):
        with tr.span("model.generate"):
            inst = generate(cfg.n, cfg.rho, "uniform-random", streams["instance"])
        with tr.span("model.corrupt"):
            obs, plan = corrupt(inst, cfg.epsilon, cfg.strategy, streams["corruption"],
                                clique_weight=cfg.clique_weight,
                                spike_scale=cfg.spike_scale)
        with tr.span("preprocess.clean"):
            cp = clean_pair(obs, streams["noise"], threshold_mult=cfg.threshold_mult)
        tr.count("preprocess.solves", cp.s.size + cp.t.size + 2)
        tr.count("preprocess.zeroed", cp.s.size + cp.t.size)
        tr.count("preprocess.zeroed_in_support",
                 np.intersect1d(cp.s, plan.q).size + np.intersect1d(cp.t, plan.r).size)
        with tr.span("denoiser.schedule"):
            dn = make_denoiser(cfg.denoiser_b)
            sched = build_schedule(cfg.rho, cfg.n, cfg.k0, "practical", dn,
                                   gamma=cfg.gamma, min_rounds=cfg.min_rounds)
        with tr.span("amp.seed_pairs"):
            exclude_u = set(plan.q.tolist()) | set(cp.s.tolist())
            exclude_v = set(plan.r.tolist()) | set(cp.t.tolist())
            pairs = [("oracle", good_seed_pair(inst.pi_star, cfg.k0, exclude_u, exclude_v))]
            for i in range(cfg.bad_seed_candidates):
                pairs.append((f"bad{i}", bad_seed_pair(inst.pi_star, cfg.k0,
                                                       child(streams["corruption"], 100 + i))))
        cands = [_candidate(tr, label, seeds, cp, sched, dn, cfg, streams["beta"], obs, inst)
                 for label, seeds in pairs]
        rng_rand = np.random.default_rng(child(streams["corruption"], 999))
        for i in range(cfg.random_candidates):
            pi_rand = rng_rand.permutation(cfg.n).astype(np.intp)
            with tr.span("refine.select"):
                score = selection_score(obs, pi_rand)
            cands.append({"label": f"random{i}", "pi": pi_rand,
                          "overlap_refine": overlap(pi_rand, inst.pi_star),
                          "swaps": 0, "select_score": score})
        with tr.span("refine.select"):
            pi_final, scores = final_select(obs, [c["pi"] for c in cands])
        with tr.span("pipeline.validate"):
            validate_record(record)
    oracle = cands[0]
    seeds_u = np.asarray(oracle["seeds"].u_seq)
    seeds_v = np.asarray(oracle["seeds"].v_seq)
    matched_lap = int(np.count_nonzero(oracle["pi_lap"] == inst.pi_star))
    tr.count("pipeline.matched_lap", matched_lap)
    tr.count("assign.matched_nonseed", matched_lap - cfg.k0)
    tr.count("refine.seeds_retained", int(np.count_nonzero(oracle["pi"][seeds_u] == seeds_v)))
    tr.count("pipeline.matched_final", int(np.count_nonzero(pi_final == inst.pi_star)))
    tr.counts["assign.rank"] = max(tr.counts.get("assign.rank", 0),
                                   *(c["d"] for c in cands if "d" in c))
    return {"cfg": cfg, "inst": inst, "obs": obs, "plan": plan, "cp": cp,
            "candidates": cands, "pi_final": pi_final, "scores": scores}


def check_run_outputs(record: dict, out: dict) -> None:
    """Every stage's property check on one replayed run."""
    cfg, inst, obs, plan, cp = out["cfg"], out["inst"], out["obs"], out["plan"], out["cp"]
    checks.check_generate(inst.a, inst.b, inst.pi_star)
    checks.check_corrupt(inst.a, inst.b, obs.a_prime, obs.b_prime, plan.q, plan.r,
                         cfg.epsilon)
    checks.check_clean(cp.a_clean, cp.b_clean, cp.s, cp.t, cfg.threshold_mult)
    for c in out["candidates"]:
        if "prob" not in c:        # a random candidate is only scored
            continue
        checks.check_amp(c["h"], c["l"], cfg.n, cfg.k0, c["d"])
        checks.check_lap(c["prob"].score, c["sigma"], c["h"], c["l"])
        checks.check_assemble(c["pi_lap"], c["seeds"].u_seq, c["seeds"].v_seq)
        checks.check_refine(obs.a_prime, obs.b_prime, c["pi"], c["params"].alpha,
                            c["params"].delta, c["truncated"])
    checks.check_select(obs.a_prime, obs.b_prime, [c["pi"] for c in out["candidates"]],
                        out["scores"], out["pi_final"])
    checks.check_replay(record, out["candidates"], out["scores"])


LAYER_SPANS = ("model.generate", "model.corrupt", "preprocess.clean", "amp.run",
               "assign.score", "assign.lap", "refine.params", "refine.refine",
               "refine.select", "pipeline.validate")
LAYER_COUNTS = {"preprocess.solves": "count", "preprocess.zeroed": "count",
                "preprocess.zeroed_in_support": "count", "amp.rounds": "count",
                "spectral.beta_draws": "count", "spectral.beta_accepted": "count",
                "assign.rank": "count", "assign.matched_nonseed": "vertices",
                "refine.swaps": "count", "refine.seeds_retained": "vertices",
                "pipeline.matched_final": "vertices"}


def traced_phase(timed: dict, trace_path: str | None) -> dict:
    """Check every timed call's record, replay and check each distinct run
    (the first round), and derive the per-layer metrics from the spans."""
    calls = timed["calls"]
    per_round = len(calls) // len(timed["rounds_s"])
    failures: list[str] = []
    failed_runs: list[str] = []
    for i, call in enumerate(calls):
        try:
            checks.check_record(call["record"])
        except checks.CheckError as exc:
            failed_runs.append(f"run {i}: {exc}")
            continue
        first = calls[i % per_round]["record"]
        if any(call["record"].get(k) != first.get(k) for k in ("candidates", "final", "cleaning")):
            failures.append(f"run {i}: record differs from the same run in the first round")

    tr = Tracer()
    for i, call in enumerate(calls[:per_round]):
        if call["record"].get("status") != "ok":
            continue
        try:
            out = replay_run(call["record"], tr, f"run{i}")
            check_run_outputs(call["record"], out)
        except checks.CheckError as exc:
            failures.append(f"run {i}: {exc}")
        except Exception:  # a crash in the replay is a failed check, not a lost result
            failures.append(f"run {i}: replay raised\n{traceback.format_exc()}")
        out = None         # free the run's n x n arrays before the next replay

    run_s = statistics.median(c["wall_s"] for c in calls)
    layers = {f"{name}_s": (tr.total(name), "s") for name in LAYER_SPANS}
    layers.update({name: (tr.counts.get(name, 0), unit) for name, unit in LAYER_COUNTS.items()})
    layers["preprocess.ms_per_solve"] = (
        1000.0 * tr.total("preprocess.clean") / max(1, tr.counts.get("preprocess.solves", 0)), "ms")
    layers["refine.ms_per_swap"] = (
        1000.0 * tr.total("refine.refine") / max(1, tr.counts.get("refine.swaps", 0)), "ms")
    runs = tr.durations("pipeline.run")
    layers["bench.trace_overhead_s"] = ((statistics.median(runs) if runs else 0.0) - run_s, "s")
    if trace_path:
        with open(trace_path, "w") as fh:
            json.dump({"spans": tr.spans, "counts": tr.counts}, fh, indent=1)
    return {"failed_runs": failed_runs, "failures": failures,
            "matched_lap": tr.counts.get("pipeline.matched_lap", 0),
            "run_s": run_s, "layers": layers}
