"""Assignment stage tests, with a factorial brute-force oracle."""

import itertools
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from wigmatch import assign
from wigmatch.amp import SeedPair
from wigmatch.assign import AssignmentProblem, assemble_pi, build_scores, solve_lap
from wigmatch.errors import ParameterError

_PERMS8 = np.array(list(itertools.permutations(range(8))))


def brute_force_max(score):
    """Exact maximum assignment value by enumerating all m! permutations."""
    m = score.shape[0]
    perms = _PERMS8 if m == 8 else np.array(list(itertools.permutations(range(m))))
    vals = score[np.arange(m)[None, :], perms].sum(axis=1)
    return float(vals.max())


def problem(score):
    m = score.shape[0]
    return AssignmentProblem(score=score, row_labels=np.arange(m),
                             col_labels=np.arange(m))


def test_identity_score():
    sigma = solve_lap(problem(np.eye(3)))
    assert np.array_equal(sigma, [0, 1, 2])


def test_swap_score():
    sigma = solve_lap(problem(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.array_equal(sigma, [1, 0])


def test_matches_brute_force_on_random_instances(rng):
    for _ in range(100):
        score = rng.standard_normal((8, 8))
        sigma = solve_lap(problem(score))
        achieved = float(score[np.arange(8), sigma].sum())
        assert achieved == pytest.approx(brute_force_max(score), abs=1e-9)


def test_row_constant_shift_invariance(rng):
    score = rng.standard_normal((7, 7))
    sigma = solve_lap(problem(score))
    shifted = score.copy()
    shifted[3, :] += 17.5
    assert np.array_equal(solve_lap(problem(shifted)), sigma)


def test_non_square_rejected():
    with pytest.raises(ParameterError):
        solve_lap(AssignmentProblem(np.zeros((3, 4)), np.arange(3), np.arange(4)))


def test_build_scores_is_h_l_transpose():
    class FakeIt:
        h = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        l = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        rows_i = np.arange(3)
        rows_j = np.arange(3)

    p = build_scores(FakeIt())
    assert np.allclose(p.score, FakeIt.h @ FakeIt.l.T)
    # zero h row gives a zero score row
    FakeIt.h = FakeIt.h.copy()
    FakeIt.h[2, :] = 0.0
    assert np.abs(build_scores(FakeIt()).score[2]).max() == 0.0


def test_dense_cost_is_half_squared_distance(rng, monkeypatch):
    # the potentials come from the factors: with them the solver sees
    # 1/2 |h_i - l_j|^2, and a hand-built problem sees the plain -score
    seen = []

    def capture(cost):
        seen.append(cost.copy())
        return linear_sum_assignment(cost)

    monkeypatch.setattr(assign, "linear_sum_assignment", capture)
    h = rng.standard_normal((5, 3))
    l = rng.standard_normal((5, 3))
    p = build_scores(SimpleNamespace(h=h, l=l, rows_i=np.arange(5), rows_j=np.arange(5)))
    solve_lap(p)
    solve_lap(AssignmentProblem(p.score, p.row_labels, p.col_labels))
    dist = 0.5 * ((h[:, None, :] - l[None, :, :]) ** 2).sum(axis=2)
    assert len(seen) == 2
    assert np.allclose(seen[0], dist)
    assert np.array_equal(seen[1], -p.score)


def low_rank_iterate(rng, m, d):
    """AMP-like iterate: unequal scales, non-zero means, exact-zero rows of
    h and duplicate rows of l, the degenerate cases of a rank-d score."""
    h = 3.0 * rng.standard_normal((m, d)) + 0.7
    l = 0.2 * rng.standard_normal((m, d)) - 1.5
    h[rng.choice(m, size=6, replace=False)] = 0.0
    l[rng.choice(m, size=5, replace=False)] = l[0]
    return SimpleNamespace(h=h, l=l, rows_i=np.arange(m), rows_j=np.arange(m))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_low_rank_score_reaches_raw_solver_total(rng, d):
    it = low_rank_iterate(rng, 301, d)
    p = build_scores(it)
    sigma = solve_lap(p)
    assert np.array_equal(np.sort(sigma), np.arange(301))
    total = float(p.score[np.arange(301), sigma].sum())
    rows, cols = linear_sum_assignment(-p.score)
    best = float(p.score[rows, cols].sum())
    tol = 1e-9 * float(np.abs(p.score).max())
    assert abs(total - best) <= tol
    if d == 1:
        # rearrangement inequality: sorted against sorted is optimal
        assert abs(total - float(np.sort(it.h[:, 0]) @ np.sort(it.l[:, 0]))) <= tol


def raw_sigma(p):
    """linear_sum_assignment on -score, with no tie rule."""
    rows, cols = linear_sum_assignment(-p.score)
    sigma = np.empty(len(rows), dtype=np.intp)
    sigma[rows] = cols
    return sigma


def tie_rule(p, sigma):
    """The zero-vertex rule of solve_lap, written out pair by pair."""
    m = len(sigma)
    zero_row = [not p.score[i].any() for i in range(m)]
    zero_col = [not p.score[:, j].any() for j in range(m)]
    by_row = sorted(range(m), key=lambda i: p.row_labels[i])
    by_col = sorted(range(m), key=lambda j: p.col_labels[j])
    out = [int(sigma[i]) if not zero_row[i] and not zero_col[sigma[i]] else None
           for i in range(m)]
    zero_cols = [j for j in by_col if zero_col[j]]
    for i in by_row:
        if not zero_row[i] and out[i] is None:
            out[i] = zero_cols.pop(0)
    free = [j for j in by_col if j not in out]
    for i in by_row:
        if zero_row[i]:
            out[i] = free.pop(0)
    return np.array(out)


def iterate_with_zeros(rng, m, d):
    """Continuous h and l with exact-zero rows in both."""
    h = rng.standard_normal((m, d))
    l = rng.standard_normal((m, d))
    h[rng.choice(m, size=6, replace=False)] = 0.0
    l[rng.choice(m, size=5, replace=False)] = 0.0
    return SimpleNamespace(h=h, l=l, rows_i=np.arange(m), rows_j=np.arange(m))


@pytest.mark.parametrize("d", [1, 2])
def test_solution_is_the_raw_solver_optimum_through_the_tie_rule(rng, d):
    # d = 1 sorts and d = 2 runs the squared-distance solve; both must land
    # on the raw solver's optimum with tied zero vertices in label order
    for _ in range(30):
        p = build_scores(iterate_with_zeros(rng, 40, d))
        assert np.array_equal(solve_lap(p), tie_rule(p, raw_sigma(p)))


@pytest.mark.parametrize("d", [1, 2])
def test_pairs_do_not_depend_on_input_order(rng, d):
    m = 60
    it = iterate_with_zeros(rng, m, d)
    if d == 1:
        # many equal non-zero values: ties among them go by label
        it.h = rng.choice([-2.0, -1.0, 0.0, 1.0, 3.0], size=(m, 1))
        it.l = rng.choice([-1.5, 0.0, 0.5, 2.0], size=(m, 1))
    it.rows_i = np.sort(rng.choice(3 * m, size=m, replace=False))
    it.rows_j = np.sort(rng.choice(3 * m, size=m, replace=False))
    p = build_scores(it)
    pairs = set(zip(p.row_labels.tolist(), p.col_labels[solve_lap(p)].tolist()))
    for _ in range(5):
        pr, pc = rng.permutation(m), rng.permutation(m)
        q = build_scores(SimpleNamespace(h=it.h[pr], l=it.l[pc],
                                         rows_i=it.rows_i[pr], rows_j=it.rows_j[pc]))
        assert set(zip(q.row_labels.tolist(),
                       q.col_labels[solve_lap(q)].tolist())) == pairs


def test_rank1_problem_does_not_call_the_dense_solver(rng, monkeypatch):
    def refuse(cost):
        raise AssertionError("dense solver called on a rank-1 problem")

    monkeypatch.setattr("wigmatch.assign.linear_sum_assignment", refuse)
    it = low_rank_iterate(rng, 301, 1)
    p = build_scores(it)
    sigma = solve_lap(p)
    assert np.array_equal(np.sort(sigma), np.arange(301))
    total = float(p.score[np.arange(301), sigma].sum())
    best = float(np.sort(it.h[:, 0]) @ np.sort(it.l[:, 0]))
    assert abs(total - best) <= 1e-9 * float(np.abs(p.score).max())


_KERNEL_ORDER = """if True:
    import json, sys
    from types import SimpleNamespace
    import numpy as np
    from wigmatch import assign

    def solve():
        rng = np.random.default_rng(7)
        h, l = rng.standard_normal((200, 2)), rng.standard_normal((200, 2))
        return assign.solve_lap(assign.build_scores(SimpleNamespace(
            h=h, l=l, rows_i=np.arange(200), rows_j=np.arange(200)))).tolist()

    if sys.argv[1] == "kernel-first":
        sigma = solve()
        import scipy.optimize
    else:
        import scipy.optimize
        sigma = solve()
    print(json.dumps({"same": scipy.optimize.linear_sum_assignment
                              is assign._kernel().linear_sum_assignment,
                      "sigma": sigma}))
    """


def test_kernel_and_package_share_one_solver(subprocess_env):
    # the kernel loaded alone is the module that scipy.optimize imports,
    # whichever of the two comes first
    out = [json.loads(subprocess.run(
        [sys.executable, "-c", _KERNEL_ORDER, order], env=subprocess_env,
        capture_output=True, text=True, timeout=120, check=True).stdout)
        for order in ("kernel-first", "package-first")]
    assert [o["same"] for o in out] == [True, True]
    assert out[0]["sigma"] == out[1]["sigma"]
    assert sorted(out[0]["sigma"]) == list(range(200))


def test_missing_kernel_fails_the_lap_stage(subprocess_env, tmp_path):
    # a scipy package whose optimize/ directory is empty: a dense run
    # records the failed load at the LAP and does not raise
    (tmp_path / "scipy" / "optimize").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "0"\n')
    env = dict(subprocess_env,
               PYTHONPATH=os.pathsep.join([str(tmp_path), subprocess_env["PYTHONPATH"]]))
    code = ("import json; from wigmatch import RunConfig, run_pipeline; "
            "rec = run_pipeline(RunConfig(n=120, rho=0.9, epsilon=0.05, "
            "strategy='rank1-spike', k0=24, master_seed=0)); "
            "print(json.dumps([rec['status'], rec['exit_code'], rec['error']]))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    status, exit_code, error = json.loads(proc.stdout)
    assert (status, exit_code) == ("failed:lap", 1)
    assert "scipy.optimize._lsap" in error


def test_assemble_pi_explicit_tables():
    # n = 5, two seeds 0 -> 3 and 2 -> 0; complement rows (1, 3, 4) map onto
    # columns (1, 2, 4) by sigma
    seeds = SeedPair(u_seq=np.array([0, 2]), v_seq=np.array([3, 0]))
    p = AssignmentProblem(score=np.zeros((3, 3)),
                          row_labels=np.array([1, 3, 4]),
                          col_labels=np.array([1, 2, 4]))
    sigma = np.array([2, 0, 1])
    pi = assemble_pi(seeds, p, sigma)
    assert pi.tolist() == [3, 4, 0, 1, 2]
    assert sorted(pi.tolist()) == list(range(5))


def test_assemble_pi_detects_bookkeeping_bugs():
    seeds = SeedPair(u_seq=np.array([0]), v_seq=np.array([1]))
    p = AssignmentProblem(score=np.zeros((2, 2)),
                          row_labels=np.array([1, 2]),
                          col_labels=np.array([1, 2]))   # column 1 collides with seed image
    with pytest.raises(RuntimeError):
        assemble_pi(seeds, p, np.array([0, 1]))
