"""End-to-end pipeline, run records, and experiment sweeps.

A run executes the stages schedule -> generate -> corrupt (A and B in
place) -> clean (re-inject noise and spectrally clean each matrix) -> AMP
(the run's spectral rounds, made once, then every seed pair advanced
through them) -> per seed pair score -> LAP -> dump (with --dump-dir) ->
refine -> select, and emits a schema-versioned RunRecord: the run's rounds,
shared by every seed pair, its RunConfig and its Schedule but rho and k0,
each whole.  validate_record checks it by RECORD_TYPES and by the
annotations of RunConfig, Cleaning, Schedule, RoundLog, Candidate and
Final, whose fields are their sections' keys in order.
One stage context names the stage that a failure records as
failed:<stage> and adds each stage's wall time to stages_s; schedule and
dump are not timed.
Each stage owns the matrices it replaces, no stage before the LAP copies
an n x n matrix, and each dies at its last use.  generate builds the
correlated matrix in Z's buffer and permutes it into B in place; corrupt
turns A and B into A' and B' in place; the run packs the indicators
A' >= 1 and B' >= 1 into bits (refine and selection read only those), and
cleaning then re-injects noise over A' and B', each block of noise rows
as it is drawn, and cleans them in their own buffers; AMP multiplies by
the cleaned pair where it lies, for every seed pair; the cleaned pair
dies after AMP and each score after its assignment.
generate, corrupt and AMP hold 2 n x n float64, and cleaning and AMP the
bits beside them, 1/32 n x n.  By ru_maxrss at n = 3000 the run peaks at
about 192 MB, 2.32 to 2.34 n x n above a freshly imported process (2.20
to 2.22 after a small run): a spiked run in AMP, whose first n x n by
n x d product with d >= 2 touches OpenBLAS's threaded GEMM buffer (+0.12
to +0.15 n x n with two threads), and an un-spiked one within 0.02 of
that in cleaning (S4's blocks of P).
Score, LAP and refine add nothing above it.  run_pipeline is the one
writer of the --trace-cleaning rows, cleaning's log of its solves, to
<output>.cleaning.jsonl just before the record.
Sweeps run the cartesian product of small parameter grids with independent
derived seeds and write one CSV row per (cell, trial) plus a JSON summary.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import math
import numbers
import os
import sys
import time
import traceback
import types
import typing

import numpy as np

from . import __version__ as _pkg_version
from .amp import RoundLog, advance, bad_seed_pair, good_seed_pair, spectral_rounds
from .assign import assemble_pi, build_scores, solve_lap
from .config import RunConfig
from .denoiser import Schedule, build_schedule, make_denoiser
from .errors import ParameterError, RecordError, exit_code_for
from .model import ObservedPair, _corrupt_in_place, generate, indicator_bits, overlap
from .preprocess import _clean_owned
from .refine import RefineParams, seeded_refine, selection_score
from .rng import child, derive_streams

SCHEMA_VERSION = 3


@dataclasses.dataclass
class Cleaning:
    """The rows that cleaning zeroed in A' and in B'."""
    zeroed_a: tuple[int, ...]
    zeroed_b: tuple[int, ...]


@dataclasses.dataclass
class Candidate:
    """A seed pair's refined LAP matching, or a random permutation."""
    label: str
    goodness: bool | None
    overlap_lap: float | None
    overlap_refine: float | None
    swaps: int
    truncated: bool
    select_score: int


@dataclasses.dataclass
class Final:
    """The selected candidate, and every candidate's selection score."""
    selected_label: str
    overlap_final: float
    select_scores: tuple[int, ...]


# The type of each top-level key of a run record, in the record's order;
# validate_record tests the rest: the schema version, stopped_reason's value
# and each candidate's label and select_score
RECORD_TYPES = {
    "schema_version": int,
    "status": str,
    "exit_code": int,
    "error": str | None,
    "traceback": str,
    "config": RunConfig,
    "stream_seeds": dict,
    "stages_s": dict[str, float],
    "cleaning": Cleaning,
    "schedule": Schedule,
    "rounds": tuple[RoundLog, ...],
    "stopped_reason": str,
    "candidates": tuple[Candidate, ...],
    "final": Final,
    "versions": dict,
}
REQUIRED_KEYS = ("schema_version", "config", "status", "stream_seeds", "stages_s", "versions")
STOPPED_REASONS = ("t_star", "min_rounds", "spectral")
_LEFT_OUT = {Schedule: ("rho", "k0")}     # the config's, not the section's

# Each annotated type as JSON writes it: Draft 2020-12's name for it, and
# its test, in which an integral float is an integer, a bool is neither an
# integer nor a number, and a tuple is an array
_JSON = {
    int: ("integer", lambda v: (isinstance(v, int) and not isinstance(v, bool))
          or (isinstance(v, float) and v.is_integer())),
    float: ("number", lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool)),
    bool: ("boolean", lambda v: isinstance(v, bool)),
    str: ("string", lambda v: isinstance(v, str)),
    tuple: ("array", lambda v: isinstance(v, list)),
    dict: ("object", lambda v: isinstance(v, dict)),
    type(None): ("null", lambda v: v is None),
}


@functools.cache
def _plan(hint) -> tuple[tuple, object]:
    """The (name, test) of each JSON type that a value annotated hint may
    take, and what to check inside it: a dataclass's {field: hint} but
    those _LEFT_OUT, the X of each item of a tuple[X, ...] or of each value
    of a dict[str, X], or None."""
    if dataclasses.is_dataclass(hint):
        return (_JSON[dict],), {name: h for name, h in typing.get_type_hints(hint).items()
                                if name not in _LEFT_OUT.get(hint, ())}
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):     # X | None
        kinds, inner = _plan(next(a for a in args if a is not type(None)))
        return (*kinds, _JSON[type(None)]), inner
    origin = typing.get_origin(hint) or hint
    if origin is tuple:     # tuple[X, ...]
        return (_JSON[tuple],), args[0]
    return (_JSON[origin],), args[1] if args else None     # dict[str, X], or a bare type


def _check_fields(value: dict, fields: dict, path: str) -> None:
    for key, hint in fields.items():
        if key in value:
            _check(value[key], hint, f"{path}.{key}")


def _check(value, hint, path: str) -> None:
    """Raise RecordError where value at path is not of the type hint, worded
    as the JSON Schema reference validator words it."""
    kinds, inner = _plan(hint)
    if not any(test(value) for _, test in kinds):
        raise RecordError(f"{path}: {value!r} is not of type "
                          + ", ".join(repr(name) for name, _ in kinds))
    if value is None or inner is None:
        return
    if isinstance(inner, dict):
        _check_fields(value, inner, path)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check(item, inner, f"{path}[{i}]")
    else:
        for key, item in value.items():
            _check(item, inner, f"{path}.{key}")


def validate_record(record: dict) -> None:
    """Raise RecordError where record breaks RECORD_TYPES or the tests
    beside it, as a Draft 2020-12 validator would refuse the same record,
    naming the value's path."""
    _check(record, dict, "$")
    for key in REQUIRED_KEYS:
        if key not in record:
            raise RecordError(f"$: {key!r} is a required property")
    # by equality only: 3.0 is the version, and True is not
    if record["schema_version"] != SCHEMA_VERSION:
        raise RecordError(f"$.schema_version: {SCHEMA_VERSION!r} was expected")
    _check_fields(record, RECORD_TYPES, "$")
    if "stopped_reason" in record and record["stopped_reason"] not in STOPPED_REASONS:
        raise RecordError(f"$.stopped_reason: {record['stopped_reason']!r} is not one of "
                          f"{list(STOPPED_REASONS)!r}")
    for i, candidate in enumerate(record.get("candidates", ())):
        for key in ("label", "select_score"):
            if key not in candidate:
                raise RecordError(f"$.candidates[{i}]: {key!r} is a required property")


def _sanitize(obj):
    if isinstance(obj, os.PathLike):
        return _sanitize(os.fspath(obj))
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
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    return repr(obj)    # a config value of a refused type, so the record encodes


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
    that validate_record refuses as failed:record)."""
    record: dict = {
        "schema_version": SCHEMA_VERSION,
        # each field as given, not copied: a value that cannot be copied or
        # encoded is recorded as its repr
        "config": _sanitize({f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}),
        "stream_seeds": {},
        "status": "ok",
        "exit_code": 0,
        "error": None,
        "stages_s": {},
        "versions": {"package": _pkg_version, "numpy": np.__version__},
    }
    stage = _Stages(record["stages_s"])
    clean_log: list = []
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
            ind = indicator_bits(ObservedPair(*observed))
            cp, clean_log = _clean_owned(observed, streams["noise"])
            cleaning = Cleaning(tuple(cp.s.tolist()), tuple(cp.t.tolist()))
            record["cleaning"] = dataclasses.asdict(cleaning)

        # after cleaning, to keep the record's key order; rho and k0 are the config's
        record["schedule"] = dataclasses.asdict(sched)
        del record["schedule"]["rho"], record["schedule"]["k0"]

        with stage("amp"):
            exclude_u = set(plan.q.tolist()) | set(cleaning.zeroed_a)
            exclude_v = set(plan.r.tolist()) | set(cleaning.zeroed_b)
            pairs = [("oracle", good_seed_pair(pi_star, cfg.k0, exclude_u, exclude_v))]
            for i in range(cfg.bad_seed_candidates):
                pairs.append((f"bad{i}", bad_seed_pair(pi_star, cfg.k0,
                                                       child(streams["corruption"], 100 + i))))
            rounds = spectral_rounds(sched, dn, cfg.min_rounds, streams["beta"])
            iterates = [advance(cp, seeds, rounds, dn) for _, seeds in pairs]
        del cp      # the cleaned pair dies once every seed pair has run AMP

        # one record entry per candidate
        candidates: list[dict] = []
        for (label, seeds), it in zip(pairs, iterates):
            with stage("score"):
                prob = build_scores(it)
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
            candidates.append(dataclasses.asdict(Candidate(
                label, seeds.goodness, overlap(pi_lap, pi_star), overlap(pi_ref, pi_star),
                **info)))
            if trace is not None:
                candidates[-1]["swap_trace"] = trace
        with stage("select"):
            rng_rand = np.random.default_rng(child(streams["corruption"], 999))
            for i in range(cfg.random_candidates):
                pi_rand = rng_rand.permutation(cfg.n).astype(np.intp)
                candidates.append(dataclasses.asdict(Candidate(
                    f"random{i}", None, None, overlap(pi_rand, pi_star), 0, False,
                    selection_score(ind, pi_rand))))
            # the rule of final_select, on the scores already computed
            scores = tuple(c["select_score"] for c in candidates)
            best = int(np.argmax(scores))   # argmax returns the first maximiser

        record["rounds"] = [dataclasses.asdict(r) for r in rounds.logs]
        record["stopped_reason"] = rounds.stopped_reason
        record["candidates"] = candidates
        record["final"] = dataclasses.asdict(Final(
            candidates[best]["label"], candidates[best]["overlap_refine"], scores))
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
    # only a path: open() would take an int output, refused above, as a
    # file descriptor, and an array has no truth value
    if isinstance(cfg.output, (str, os.PathLike)) and cfg.output:
        try:
            if clean_log and cfg.trace_cleaning:    # a log only once cfg is valid
                with open(os.fspath(cfg.output) + ".cleaning.jsonl", "w") as fh:
                    fh.writelines(json.dumps(row) + "\n" for row in clean_log)
            manifest = json.dumps(record, indent=2)   # a failure here leaves no partial file
            with open(cfg.output, "w") as fh:
                fh.write(manifest)
        except OSError as exc:  # an earlier failure keeps its own status
            if record["status"] == "ok":
                _record_failure(record, "output", exc)
    return record


def compare_clean_corrupted(cfg: RunConfig) -> dict:
    """Shared-randomness comparison: identical instance, noise and AMP
    rounds, with and without corruption.  Returns the relative Frobenius gap
    of the final h along with both iterates' metadata.  Each step reads its own
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

    rounds = spectral_rounds(sched, dn, cfg.min_rounds, streams["beta"])
    it_c = advance(cp_c, seeds, rounds, dn)
    del cp_c
    it_0 = advance(cp_0, seeds, rounds, dn)
    del cp_0
    denom = float(np.linalg.norm(it_0.h))
    gap = float(np.linalg.norm(it_c.h - it_0.h)) / denom if denom > 0 else math.inf
    return {"gap": gap, "rounds_clean": it_0.t, "rounds_corrupted": it_c.t,
            "zeroed_corrupted": zeroed_c, "zeroed_clean": zeroed_0}


SWEEP_FIELDS = ["n", "rho", "epsilon", "strategy", "trial", "master_seed",
                "status", "overlap_lap", "overlap_refine", "overlap_final",
                "cleaning_iters", "resamples_mean", "wall_s", "error"]


def trial_config(base: RunConfig, i: int, **changes) -> RunConfig:
    """base's i-th single trial: master seed child(base.master_seed, i), and
    its own dump directory <base.dump_dir>.i; changes replace further fields."""
    return dataclasses.replace(base, master_seed=child(base.master_seed, i), trials=1,
                               dump_dir=f"{base.dump_dir}.{i}" if base.dump_dir else None,
                               **changes)


def _sweep_row(args):
    base, n, rho, eps, strategy, trial, row_idx = args
    cfg = trial_config(base, row_idx, n=n, rho=rho, epsilon=eps, strategy=strategy,
                       output=None)
    row = dict.fromkeys(SWEEP_FIELDS)
    row.update(n=n, rho=rho, epsilon=eps, strategy=strategy, trial=trial,
               master_seed=cfg.master_seed)
    t0 = time.perf_counter()
    try:
        rec = run_pipeline(cfg)
        # each cleaning iteration zeroes one row: cleaning_iters is |S| + |T|,
        # and None for a run that never reached cleaning
        zeroed = rec.get("cleaning")
        resamples = [r["resamples"] for r in rec.get("rounds", [])
                     if r["resamples"] is not None]
        row.update(status=rec["status"], error=rec["error"],
                   cleaning_iters=None if zeroed is None
                   else len(zeroed["zeroed_a"]) + len(zeroed["zeroed_b"]),
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
    """Cartesian-product experiment with independent derived seeds per row;
    an empty list, which would run no row, and a list that repeats a value,
    which would run a cell twice, are refused."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    for name, values in dict(ns=ns, rhos=rhos, epsilons=epsilons, strategies=strategies).items():
        if not len(values):
            raise ParameterError(f"{name} is empty")
        if len(set(values)) < len(values):
            raise ParameterError(f"{name} repeats a value: {list(values)}")
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
