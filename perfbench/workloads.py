"""Workload definitions of the benchmark.

Every input derives from the benchmark seed s: a run's master seed is
100 s + i.  All workloads use rho = 0.9 and the oracle-seed mode.
"""

from __future__ import annotations

STRATEGIES = ["planted-clique-weight", "rank1-spike", "zero-out", "adaptive-sign-flip"]

# The ROADMAP reference configuration: refine dominates, cleaning is cheap.
DESK = dict(n=1000, rho=0.9, epsilon=0.01, strategy="rank1-spike", k0=24)


def spec(workload: str, seed: int) -> dict:
    """What the timed phase calls, as plain JSON data.

    {"runs": [config, ...]} is one run_pipeline call per config and round;
    {"sweep": {...}} is one sweep(workers=1) call per round.  A repeat of
    a run in the same process times within a few per cent of the first, so
    a round holds distinct runs rather than repeats.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    base = 100 * seed
    if workload == "desk-n1000":
        return {"runs": [dict(DESK, master_seed=base + i) for i in (1, 2, 3, 4)]}
    if workload == "scale-n3000":
        return {"runs": [dict(DESK, n=3000, master_seed=base + 1)]}
    if workload == "sweep-n500":
        return {"sweep": {
            "base": dict(n=500, rho=0.9, k0=12, bad_seed_candidates=1,
                         random_candidates=2, master_seed=base + 1),
            "ns": [500], "rhos": [0.9], "epsilons": [0.01, 0.02, 0.03, 0.05],
            "strategies": STRATEGIES, "trials": 1}}
    raise ValueError(f"unknown workload {workload!r}")


# Small enough to cost little, large enough to load BLAS, the LAP solver,
# the orthant quadrature and the record validator's lazy jsonschema import.
WARM_UP = dict(n=120, rho=0.9, epsilon=0.05, strategy="rank1-spike", k0=12,
               bad_seed_candidates=1, random_candidates=1, master_seed=0)
