"""Instance generation, corruption and overlap tests."""

import math

import numpy as np
import pytest

from wigmatch.errors import ParameterError
from wigmatch.model import (_corrupt_in_place, _permute_in_place, _symmetric_standard_normal,
                            corrupt, generate, overlap)
from wigmatch.rng import generator


def off_diag(m):
    iu = np.triu_indices(m.shape[0], 1)
    return m[iu]


# ------------------------------------------------------------- generate


def test_symmetry_and_zero_diagonal():
    inst = generate(60, 0.7, "uniform-random", 5)
    for m in (inst.a, inst.b):
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)


def test_rho_one_identity_gives_equal_matrices():
    inst = generate(3, 1.0, "identity", 7)
    assert np.allclose(inst.b, inst.a, atol=1e-15)


def test_rho_zero_independence():
    inst = generate(2000, 0.0, "identity", 7)
    r = np.corrcoef(off_diag(inst.a), off_diag(inst.b))[0, 1]
    assert abs(r) < 0.05


def test_pair_correlation_under_permutation():
    inst = generate(2000, 0.5, "uniform-random", 1)
    pi = inst.pi_star
    b_back = inst.b[np.ix_(pi, pi)]   # b_back[i, j] = B[pi(i), pi(j)]
    r = np.corrcoef(off_diag(inst.a), off_diag(b_back))[0, 1]
    assert abs(r - 0.5) < 0.05


def test_distributional_checks():
    n = 1000
    inst = generate(n, 0.8, "uniform-random", 42)
    for m in (inst.a, inst.b):
        vals = off_diag(m)
        assert abs(vals.mean()) < 5.0 / n
        assert abs(vals.var() - 1.0) < 0.05
    pi = inst.pi_star
    r = np.corrcoef(off_diag(inst.a), off_diag(inst.b[np.ix_(pi, pi)]))[0, 1]
    assert abs(r - 0.8) < 0.05


def test_determinism():
    a = generate(80, 0.6, "uniform-random", 123)
    b = generate(80, 0.6, "uniform-random", 123)
    assert np.array_equal(a.a, b.a)
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.pi_star, b.pi_star)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 129, 301, 600])
def test_symmetric_standard_normal_is_byte_stable(n):
    # benchmark instances depend on this fill order: draws go to the upper
    # triangle in row-major order and are mirrored below the diagonal; 129
    # and 600 span several row blocks and end in a partial one
    for seed in (0, 11, 101):
        ref = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        rng = generator(seed)
        vals = rng.standard_normal(iu[0].size)
        ref[iu] = vals
        ref.T[iu] = vals
        tail = rng.standard_normal(3)
        rng = generator(seed)
        got = _symmetric_standard_normal(n, rng)
        assert got.tobytes() == ref.tobytes()
        assert np.array_equal(rng.standard_normal(3), tail)


def scatter_generate(n, rho, pi_mode, seed):
    """generate's earlier formula: rho * a + s * z as a new matrix, scattered
    into zeros at (pi, pi)."""
    rng = generator(seed)
    a = _symmetric_standard_normal(n, rng)
    z = _symmetric_standard_normal(n, rng)
    pi = np.arange(n) if pi_mode == "identity" else rng.permutation(n)
    b = np.zeros((n, n))
    b[np.ix_(pi, pi)] = rho * a + math.sqrt(max(0.0, 1.0 - rho * rho)) * z
    np.fill_diagonal(b, 0.0)
    return a, b, pi.astype(np.intp)


@pytest.mark.parametrize("n", [150, 200])
@pytest.mark.parametrize("pi_mode", ["identity", "uniform-random"])
@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 1.0])
def test_generate_matches_scatter_formula(n, pi_mode, rho):
    # benchmark records depend on these bytes; 150 and 200 end in a partial
    # row block
    inst = generate(n, rho, pi_mode, 31)
    for got, want in zip((inst.a, inst.b, inst.pi_star), scatter_generate(n, rho, pi_mode, 31)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, kind", [(1, "random"), (64, "random"), (200, "random"),
                                     (200, "identity"), (129, "one-cycle"),
                                     (130, "fixed-points")])
def test_permute_in_place_equals_the_gather(n, kind):
    # rows move along cycles, columns by NOISE_ROWS blocks; 129, 130 and 200
    # end in a partial block, and the one long cycle moves every row once
    rng = np.random.default_rng(n)
    idx = np.arange(n)
    if kind == "random":
        order = rng.permutation(n)
    elif kind == "identity":
        order = idx
    elif kind == "one-cycle":
        order = np.roll(idx, 1)
    else:                           # every third vertex stays, the rest are shuffled
        order = idx.copy()
        order[idx % 3 != 0] = rng.permutation(idx[idx % 3 != 0])
    m = rng.standard_normal((n, n))
    want = m[np.ix_(order, order)]
    _permute_in_place(m, order)
    assert m.tobytes() == want.tobytes()


def test_generate_validation():
    with pytest.raises(ParameterError):
        generate(1, 0.5, "identity", 0)
    with pytest.raises(ParameterError):
        generate(10, 1.5, "identity", 0)
    with pytest.raises(ParameterError):
        generate(10, 0.5, "shuffled", 0)


# -------------------------------------------------------------- corrupt


def test_empty_corruption():
    inst = generate(50, 0.9, "identity", 3)
    obs, plan = corrupt(inst, 0.0, "zero-out", 9)
    assert plan.q.size == 0 and plan.r.size == 0
    assert np.array_equal(obs.a_prime, inst.a)
    assert np.array_equal(obs.b_prime, inst.b)


def test_zero_out_strategy():
    inst = generate(100, 0.9, "identity", 3)
    obs, plan = corrupt(inst, 0.1, "zero-out", 9)
    assert plan.q.size == 10
    assert np.all(obs.a_prime[np.ix_(plan.q, plan.q)] == 0.0)


def test_support_confinement_exact():
    inst = generate(120, 0.9, "identity", 3)
    for strategy in ("planted-clique-weight", "rank1-spike", "zero-out",
                     "adaptive-sign-flip"):
        obs, plan = corrupt(inst, 0.05, strategy, 17)
        diff = obs.a_prime - inst.a
        mask = np.zeros_like(diff, dtype=bool)
        mask[np.ix_(plan.q, plan.q)] = True
        assert np.abs(diff[~mask]).max() == 0.0
        assert np.array_equal(diff, diff.T)
        diff_b = obs.b_prime - inst.b
        assert np.array_equal(diff_b, diff_b.T)
        assert plan.q.size <= math.ceil(0.05 * 120)


def dense_corrupt(inst, epsilon, strategy, seed, clique_weight=5.0):
    """corrupt's earlier formula: dense n x n perturbations E and F added to
    A and B, with A's block drawn before B's."""
    n = inst.n
    k = math.ceil(epsilon * n)
    rng = generator(seed)
    q = r = np.empty(0, dtype=np.intp)
    if k:
        q = np.sort(rng.choice(n, size=k, replace=False)).astype(np.intp)
        r = np.sort(rng.choice(n, size=k, replace=False)).astype(np.intp)

    def perturbation(m, idx):
        e = np.zeros((n, n))
        if idx.size == 0:
            return e
        m_sub = m[np.ix_(idx, idx)]
        if strategy == "planted-clique-weight":
            block = clique_weight * (np.ones((k, k)) - np.eye(k))
        elif strategy == "rank1-spike":
            v = rng.standard_normal(k)
            v /= np.linalg.norm(v)
            block = 20.0 * math.sqrt(n) * np.outer(v, v)
            np.fill_diagonal(block, 0.0)
        elif strategy == "zero-out":
            block = -m_sub
        else:
            block = -2.0 * m_sub
        e[np.ix_(idx, idx)] = block
        return e

    e = perturbation(inst.a, q)
    f = perturbation(inst.b, r)
    return inst.a + e, inst.b + f, q, r


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("strategy", ["planted-clique-weight", "rank1-spike", "zero-out",
                                      "adaptive-sign-flip"])
def test_corrupt_is_byte_stable(strategy, epsilon):
    # benchmark records depend on corrupt's values and on its draw order
    inst = generate(120, 0.9, "uniform-random", 3)
    a, b = inst.a.copy(), inst.b.copy()
    obs, plan = corrupt(inst, epsilon, strategy, 17)
    ref = dense_corrupt(inst, epsilon, strategy, 17)
    got = (obs.a_prime, obs.b_prime, plan.q, plan.r)
    for x, y in zip(got, ref):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert inst.a.tobytes() == a.tobytes() and inst.b.tobytes() == b.tobytes()
    # the in-place core perturbs its own matrices to the same bytes
    core_plan = _corrupt_in_place(a, b, epsilon, strategy, 17)
    for x, y in zip((a, b, core_plan.q, core_plan.r), got):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_adaptive_sign_flip_definition():
    inst = generate(60, 0.9, "identity", 3)
    obs, plan = corrupt(inst, 0.1, "adaptive-sign-flip", 4)
    q = plan.q
    block = obs.a_prime[np.ix_(q, q)]
    assert np.allclose(block, -inst.a[np.ix_(q, q)], atol=1e-15)


def test_rank1_spike_operator_norm():
    n = 400
    inst = generate(n, 0.9, "identity", 3)
    obs, _ = corrupt(inst, 0.05, "rank1-spike", 11)
    top = np.linalg.norm(obs.a_prime, 2)
    assert top >= 15.0 * math.sqrt(n)


def test_unknown_strategy():
    inst = generate(20, 0.9, "identity", 3)
    with pytest.raises(ParameterError):
        corrupt(inst, 0.1, "clique", 4)


def test_corrupt_accepts_only_the_clique_weight():
    inst = generate(20, 0.9, "identity", 3)
    with pytest.raises(ParameterError, match="clique_weight must be 5.0"):
        corrupt(inst, 0.1, "planted-clique-weight", 4, clique_weight=4.0)
    same = corrupt(inst, 0.1, "planted-clique-weight", 4, clique_weight=5.0)[0]
    assert np.array_equal(same.a_prime, corrupt(inst, 0.1, "planted-clique-weight", 4)[0].a_prime)


def test_corruption_determinism():
    inst = generate(80, 0.9, "identity", 3)
    o1, p1 = corrupt(inst, 0.1, "rank1-spike", 21)
    o2, p2 = corrupt(inst, 0.1, "rank1-spike", 21)
    assert np.array_equal(o1.a_prime, o2.a_prime)
    assert np.array_equal(p1.q, p2.q)


# -------------------------------------------------------------- overlap


def test_overlap_trivial():
    pi = np.random.default_rng(0).permutation(30)
    assert overlap(pi, pi) == 1.0


def test_overlap_one_transposition():
    pi = np.arange(10)
    pi2 = pi.copy()
    pi2[[3, 7]] = pi2[[7, 3]]
    assert overlap(pi2, pi) == 0.8


def test_overlap_random_permutation_mean():
    # a uniform permutation has one fixed point in expectation
    rng = np.random.default_rng(7)
    n, trials = 1000, 200
    total = sum(overlap(rng.permutation(n), np.arange(n)) for _ in range(trials))
    assert abs(total / trials - 1.0 / n) < 3e-4


def test_overlap_size_mismatch():
    with pytest.raises(ParameterError):
        overlap(np.arange(5), np.arange(6))
