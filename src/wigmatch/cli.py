"""Command-line interface: run, sweep, constants."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys

from .config import CHOICES, FIELD_TYPES, RunConfig, make_config
from .errors import EXIT_CONFIG, ParameterError, exit_code_for


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field: --field-name, typed from the field."""
    p.add_argument("--config", help="flat KEY=VALUE config file")
    for name, (base, _) in FIELD_TYPES.items():
        flag = "--" + name.replace("_", "-")
        if base is bool:
            p.add_argument(flag, dest=name, action="store_true", default=None)
        else:
            p.add_argument(flag, dest=name, type=None if base is str else base,
                           choices=CHOICES.get(name))


def _config_from_args(args) -> RunConfig:
    overrides = {k: getattr(args, k) for k in FIELD_TYPES}
    return make_config(args.config, overrides)


def _cmd_run(args) -> int:
    from .pipeline import run_pipeline, trial_config

    cfg = _config_from_args(args)
    worst = 0
    for trial in range(cfg.trials):
        trial_cfg = cfg
        if cfg.trials > 1:
            trial_cfg = trial_config(
                cfg, trial, output=f"{cfg.output}.{trial}" if cfg.output else None).validate()
        record = run_pipeline(trial_cfg)
        line = {"trial": trial, "status": record["status"]}
        if record["status"] == "ok":
            oracle = record["candidates"][0]
            line.update(overlap_final=record["final"]["overlap_final"],
                        selected=record["final"]["selected_label"],
                        overlap_lap=oracle["overlap_lap"],
                        overlap_refine=oracle["overlap_refine"])
        else:
            line["error"] = record["error"]
        print(json.dumps(line))
        worst = max(worst, record["exit_code"])
    return worst


def _parse_list(text, cast):
    try:
        return [cast(x.strip()) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"malformed list {text!r}: {exc}") from None


def _cmd_sweep(args) -> int:
    from .pipeline import sweep

    cfg = _config_from_args(args)
    ns = _parse_list(args.ns, int) if args.ns else [cfg.n]
    rhos = _parse_list(args.rhos, float) if args.rhos else [cfg.rho]
    epsilons = _parse_list(args.epsilons, float) if args.epsilons else [cfg.epsilon]
    strategies = _parse_list(args.strategies, str) if args.strategies else [cfg.strategy]
    # an invalid list value is a config error, as the same value as a flag is
    for n, rho, eps, strategy in itertools.product(ns, rhos, epsilons, strategies):
        dataclasses.replace(cfg, n=n, rho=rho, epsilon=eps, strategy=strategy).validate()
    rows = sweep(cfg, ns, rhos, epsilons, strategies, trials=cfg.trials,
                 csv_path=args.csv, summary_path=args.summary,
                 workers=args.workers)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"sweep: {len(rows)} rows, {len(failed)} failed")
    return 0 if not failed else 1


def _cmd_constants(args) -> int:
    from .denoiser import (build_schedule, make_denoiser, reference_k0_bound,
                           phi_second_deriv_at_zero)
    from .refine import RefineParams

    cfg = _config_from_args(args)
    d = make_denoiser()
    sched = build_schedule(cfg.rho, cfg.n, cfg.k0, d=d, min_rounds=cfg.min_rounds)
    rp = RefineParams.for_run(cfg.rho, cfg.n)
    out = {
        "denoiser_b": d.b,
        "a1": d.a1,
        "phi_second_deriv_at_zero": phi_second_deriv_at_zero(d),
        "c2": sched.c2,
        "lambda_cap": sched.lambda_cap,
        "eps0": sched.eps0,
        "reference_k0_bound": reference_k0_bound(cfg.rho, d),
        "eq25_ratio_at_k0": sched.eq25_ratio,
        "alpha": rp.alpha,
        "psi_rho": rp.psi_rho,
        "delta": rp.delta,
        "t_star": sched.t_star,
    }
    print(json.dumps(out, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wigmatch",
        description="Robust matching of correlated Gaussian Wigner matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one pipeline run (or --trials repeats)")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid experiment over rho/epsilon/n/strategy")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--ns", help="comma-separated n values")
    p_sweep.add_argument("--rhos", help="comma-separated rho values")
    p_sweep.add_argument("--epsilons", help="comma-separated epsilon values")
    p_sweep.add_argument("--strategies", help="comma-separated strategy names")
    p_sweep.add_argument("--csv", help="per-row CSV output path")
    p_sweep.add_argument("--summary", help="JSON summary output path")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (default 1)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_const = sub.add_parser("constants", help="print derived constants incl. the "
                                               "reference seed-size bound")
    _add_config_flags(p_const)
    p_const.set_defaults(func=_cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # map numerical failures to exit codes
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
