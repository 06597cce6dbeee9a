"""Command-line interface: run, sweep, selftest, constants."""

from __future__ import annotations

import argparse
import itertools
import json
import math
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
    from .pipeline import run_pipeline
    from .rng import child

    cfg = _config_from_args(args)
    worst = 0
    for trial in range(cfg.trials):
        trial_cfg = cfg
        if cfg.trials > 1:
            kw = cfg.as_dict()
            kw.update(master_seed=child(cfg.master_seed, trial), trials=1,
                      output=(f"{cfg.output}.{trial}" if cfg.output else None))
            trial_cfg = RunConfig(**kw).validate()
        record = run_pipeline(trial_cfg)
        line = {"trial": trial, "status": record["status"]}
        if record["status"] == "ok":
            line.update(overlap_final=record["final"]["overlap_final"],
                        selected=record["final"]["selected_label"])
            for cand in record["candidates"]:
                if cand["label"] == "oracle":
                    line.update(overlap_lap=cand["overlap_lap"],
                                overlap_refine=cand["overlap_refine"])
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
        RunConfig(**{**cfg.as_dict(), "n": n, "rho": rho, "epsilon": eps,
                     "strategy": strategy}).validate()
    rows = sweep(cfg, ns, rhos, epsilons, strategies, trials=cfg.trials,
                 csv_path=args.csv, summary_path=args.summary,
                 workers=args.workers)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"sweep: {len(rows)} rows, {len(failed)} failed")
    return 0 if not failed else 1


def _cmd_constants(args) -> int:
    from .denoiser import (build_schedule, growth_ratio_condition, lambda_bound,
                           make_denoiser, reference_k0_bound, phi_map,
                           phi_second_deriv_at_zero)
    from .refine import RefineParams

    cfg = _config_from_args(args)
    d = make_denoiser(cfg.denoiser_b)
    rp = RefineParams.for_run(cfg.rho, cfg.n)
    out = {
        "denoiser_b": cfg.denoiser_b,
        "a1": d.a1,
        "phi_second_deriv_at_zero": phi_second_deriv_at_zero(d),
        "c2": phi_second_deriv_at_zero(d) / 2.0,
        "lambda_cap": lambda_bound(d),
        "eps0": phi_map(d, cfg.rho / 2.0),
        "reference_k0_bound": reference_k0_bound(cfg.rho, d),
        "eq25_ratio_at_k0": growth_ratio_condition(cfg.rho, d, cfg.k0),
        "alpha": rp.alpha,
        "psi_rho": rp.psi_rho,
        "delta": rp.delta,
        "t_star": build_schedule(cfg.rho, cfg.n, cfg.k0, "practical", d,
                                 gamma=cfg.gamma, min_rounds=cfg.min_rounds).t_star,
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_selftest(args) -> int:
    """Fast property checks runnable without pytest."""
    from types import SimpleNamespace

    import numpy as np
    from scipy.optimize import linear_sum_assignment

    from .assign import AssignmentProblem, build_scores, solve_lap
    from .denoiser import make_denoiser, phi_map, phi_second_deriv_at_zero
    from .model import ObservedPair, generate, overlap
    from .preprocess import (certifies, leading_singular_triple, schatten8_bound,
                             spectral_clean)
    from .refine import BATCH_SWAPS, RefineParams, compute_alpha, compute_psi, seeded_refine

    checks = []

    d = make_denoiser()
    nodes, weights = np.polynomial.hermite.hermgauss(200)
    x = math.sqrt(2.0) * nodes
    w = weights / math.sqrt(math.pi)
    checks.append(("denoiser mean zero", abs(float(w @ d(x))) < 1e-10))
    checks.append(("denoiser unit variance", abs(float(w @ (d(x) ** 2)) - 1.0) < 1e-10))
    checks.append(("phi(1) = 1", abs(phi_map(d, 1.0) - 1.0) < 1e-10))
    checks.append(("phi''(0) > 0", phi_second_deriv_at_zero(d) > 0))

    rng = np.random.default_rng(0)
    m = rng.standard_normal((40, 40))
    sig, _, _, _ = leading_singular_triple(m, method="power")
    sig_ref = float(np.linalg.svd(m, compute_uv=False)[0])
    checks.append(("power iteration vs dense SVD", abs(sig - sig_ref) / sig_ref < 1e-8))

    goe = np.triu(np.random.default_rng(1).standard_normal((300, 300)), 1)
    goe += goe.T
    bound = schatten8_bound(goe)
    checks.append(("Schatten-8 bound above sigma_1 and certifies a 300x300 GOE",
                   bound >= float(np.linalg.svd(goe, compute_uv=False)[0])
                   and certifies(bound, 10.0 * math.sqrt(300))))

    inst = generate(200, 0.9, "uniform-random", 7)
    checks.append(("instance symmetric", bool(np.allclose(inst.a, inst.a.T))))
    checks.append(("zero diagonal", float(np.abs(np.diag(inst.a)).max()) == 0.0))
    checks.append(("overlap of truth", overlap(inst.pi_star, inst.pi_star) == 1.0))

    cleaned, zeroed = spectral_clean(np.array([[0.0, 20 * math.sqrt(2)],
                                               [20 * math.sqrt(2), 0.0]]), seed=3)
    checks.append(("cleaning 2x2 example", len(zeroed) == 1
                   and float(np.abs(cleaned).max()) == 0.0))

    import itertools
    score = rng.standard_normal((6, 6))
    sigma = solve_lap(AssignmentProblem(score, np.arange(6), np.arange(6)))
    best = max(sum(score[i, p[i]] for i in range(6))
               for p in itertools.permutations(range(6)))
    checks.append(("LAP matches brute force", abs(score[np.arange(6), sigma].sum() - best) < 1e-9))

    for d, name in ((2, "rank-2 LAP equals raw solver"),
                    (1, "rank-1 sort equals raw solver total")):
        h = rng.standard_normal((200, d)) + 0.5
        h[17] = 0.0
        prob = build_scores(SimpleNamespace(h=h, l=0.3 * rng.standard_normal((200, d)),
                                            rows_i=np.arange(200), rows_j=np.arange(200)))
        sigma = solve_lap(prob)
        rows, cols = linear_sum_assignment(-prob.score)
        gap = prob.score[np.arange(200), sigma].sum() - prob.score[rows, cols].sum()
        checks.append((name, abs(gap) <= 1e-9 * float(np.abs(prob.score).max())))

    a = compute_alpha()
    checks.append(("alpha value", abs(a - 0.15865525393145707) < 1e-12))
    checks.append(("psi(0) = alpha^2", abs(compute_psi(0.0) - a * a) < 1e-10))
    checks.append(("psi(1) = alpha", abs(compute_psi(1.0) - a) < 1e-12))

    # the scan-order swap rule with N recomputed from scratch before every swap
    n = 200
    inst = generate(n, 0.9, "identity", 205)
    pi0 = np.arange(n)
    wrong = np.random.default_rng(3).permutation(n)[n // 8:]
    pi0[wrong] = wrong[np.random.default_rng(4).permutation(wrong.size)]
    params = RefineParams.for_run(0.9, n)
    pi_ref, info = seeded_refine(ObservedPair(inst.a, inst.b), pi0, 0.9, params)
    ind_a, ind_b = (inst.a >= 1.0).astype(float), (inst.b >= 1.0).astype(float)
    s = ind_a.sum(axis=1)[:, None] + ind_b.sum(axis=1)[None, :]
    pi, swaps = pi0.copy(), 0
    while swaps < params.max_swaps:
        stat = ind_a @ ind_b[:, pi].T - a * s + n * a * a
        inv = np.argsort(pi)
        bad = stat[np.arange(n), pi] < params.delta / 10.0
        qual = (stat >= params.delta) & bad[:, None] & bad[inv][None, :]
        if not qual.any():
            break
        u, v = divmod(int(np.argmax(qual)), n)
        pi[u], pi[inv[v]] = v, pi[u]
        swaps += 1
    checks.append(("refine equals dense recompute", info["swaps"] == swaps > BATCH_SWAPS
                   and np.array_equal(pi_ref, pi)))

    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    return 0 if failed == 0 else 1


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

    p_self = sub.add_parser("selftest", help="fast built-in property checks")
    _add_config_flags(p_self)
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # map numeric/spectral failures to exit codes
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
