"""The benchmark's output checks accept the program's real outputs and reject
deliberately broken ones.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

from checks import (CheckError, check_clean, check_lap, check_refine, check_select,
                    qualifying_pairs)
from wigmatch import (AssignmentProblem, ObservedPair, RefineParams, clean_pair,
                      corrupt, final_select, generate, seeded_refine, solve_lap)


@pytest.mark.parametrize("d", [1, 2])
def test_lap_check_rejects_two_exchanged_columns(d):
    rng = np.random.default_rng(7)
    h, l = rng.standard_normal((40, d)), rng.standard_normal((40, d))
    score = h @ l.T
    sigma = solve_lap(AssignmentProblem(score, np.arange(40), np.arange(40)))
    check_lap(score, sigma, h, l)
    broken = sigma.copy()
    broken[[3, 17]] = broken[[17, 3]]
    with pytest.raises(CheckError, match="solve_lap"):
        check_lap(score, broken, h, l)


def test_refine_check_rejects_a_remaining_qualifying_pair():
    n, rho = 300, 0.9
    inst = generate(n, rho, "identity", seed=11)
    obs = ObservedPair(inst.a, inst.b)
    params = RefineParams.for_run(rho, n)
    pi = np.arange(n)
    pi[:30] = np.roll(pi[:30], 1)          # 30 wrongly matched vertices
    assert qualifying_pairs(obs.a_prime, obs.b_prime, pi, params.alpha, params.delta) > 0
    with pytest.raises(CheckError, match="still qualify"):
        check_refine(obs.a_prime, obs.b_prime, pi, params.alpha, params.delta,
                     truncated=False)
    refined, info = seeded_refine(obs, pi, rho, params)
    assert info["swaps"] > 0 and not info["truncated"]
    check_refine(obs.a_prime, obs.b_prime, refined, params.alpha, params.delta,
                 truncated=False)


def test_select_check_rejects_a_score_off_by_one():
    inst = generate(200, 0.9, "uniform-random", seed=5)
    obs = ObservedPair(inst.a, inst.b)
    cands = [np.random.default_rng(1).permutation(200), inst.pi_star]
    pi_final, scores = final_select(obs, cands)
    check_select(obs.a_prime, obs.b_prime, cands, scores, pi_final)
    broken = list(scores)
    broken[0] += 1
    with pytest.raises(CheckError, match="exact counts"):
        check_select(obs.a_prime, obs.b_prime, cands, broken, pi_final)


def test_clean_check_rejects_a_nonzero_entry_in_a_zeroed_row():
    inst = generate(300, 0.9, "uniform-random", seed=3)
    obs, _ = corrupt(inst, 0.05, "rank1-spike", seed=4)
    cp = clean_pair(obs, seed=9)
    assert cp.s.size > 0
    check_clean(cp.a_clean, cp.b_clean, cp.s, cp.t, 10.0)
    broken = cp.a_clean.copy()
    broken[cp.s[0], (cp.s[0] + 1) % 300] = 0.5
    with pytest.raises(CheckError, match="zeroed row"):
        check_clean(broken, cp.b_clean, cp.s, cp.t, 10.0)
