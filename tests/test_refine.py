"""Seeded refinement and final-selection tests.

The orthant probability is checked against a Monte-Carlo oracle and against
the quadrature its closed form replaced; the swap loop is checked against a
literal re-implementation of the rule driven by neighborhood_stat alone.
"""

import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wigmatch import refine
from wigmatch.errors import ParameterError
from wigmatch.model import (IndicatorBits, ObservedPair, corrupt, generate, indicator_bits,
                            overlap)
from wigmatch.refine import (CoNeighbourTable, RefineParams, compute_alpha,
                             compute_psi, final_select, neighborhood_stat,
                             seeded_refine, selection_score)


def clean_obs(n, rho, seed):
    inst = generate(n, rho, "identity", seed)
    return inst, ObservedPair(inst.a, inst.b)


# ------------------------------------------------------------- constants


def test_alpha_against_erfc_value():
    a = compute_alpha()
    assert a == pytest.approx(0.15865525393145707, abs=1e-14)
    assert 0.158 < a < 0.159


def test_alpha_symmetry_and_monotonicity():
    from scipy import stats

    a = compute_alpha()
    assert stats.norm.cdf(-1.0) == pytest.approx(a, abs=1e-12)
    assert stats.norm.sf(2.0) < a


def test_psi_endpoints():
    a = compute_alpha()
    assert compute_psi(0.0) == pytest.approx(a * a, abs=1e-12)
    assert compute_psi(1.0) == pytest.approx(a, abs=1e-14)


def test_psi_half_against_monte_carlo():
    # 1e8 paired samples in chunks; the closed form must sit within 3 standard errors
    rng = np.random.default_rng(123)
    rho = 0.5
    hits = 0
    total = 10 ** 8
    chunk = 10 ** 7
    s = math.sqrt(1 - rho * rho)
    for _ in range(total // chunk):
        x = rng.standard_normal(chunk)
        y = rho * x + s * rng.standard_normal(chunk)
        hits += int(np.count_nonzero((x >= 1.0) & (y >= 1.0)))
    p_mc = hits / total
    se = math.sqrt(p_mc * (1 - p_mc) / total)
    assert abs(compute_psi(rho) - p_mc) <= 3 * se


def test_psi_matches_quadrature_reference():
    # the one-dimensional quadrature of the conditional tail that Owen's
    # closed form replaced: given X = x, Y ~ N(rho x, 1 - rho^2)
    from scipy import integrate, stats

    for rho in (0.05, 0.1, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
        s = math.sqrt(1.0 - rho * rho)

        def integrand(x):
            return stats.norm.pdf(x) * stats.norm.sf((1.0 - rho * x) / s)

        val, err = integrate.quad(integrand, 1.0, np.inf, epsabs=1e-10, limit=200)
        assert err <= 1e-8
        assert compute_psi(rho) == pytest.approx(val, rel=0, abs=1e-15), rho


def test_psi_matches_owens_t():
    # the Gauss-Legendre integral against SciPy's Owen's T, which it replaced
    from scipy.special import owens_t

    a = compute_alpha()
    for i in range(101):
        rho = i / 100
        ref = float(a - 2.0 * owens_t(1.0, math.sqrt((1.0 - rho) / (1.0 + rho))))
        assert abs(compute_psi(rho) - ref) <= 1e-16, rho
        if rho == 0.9:      # the benchmark's rho: bit-equal
            assert compute_psi(rho) == ref


def test_import_leaves_out_scipy_stats_and_integrate(subprocess_env):
    code = ("import sys, wigmatch; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'])))")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_rank1_run_loads_no_scipy_submodule(subprocess_env):
    # a frame of one column (k0 = 12) is solved by sorting and loads no
    # scipy* module at all, so its record's SciPy version is None; only a
    # dense LAP (k0 = 24, two columns) needs SciPy, it loads the LAP kernel
    # alone of the solver packages, and its record and later ones read the
    # version that it loaded
    code = """if True:
        import sys
        from wigmatch import RunConfig, run_pipeline

        def run(**kw):
            rec = run_pipeline(RunConfig(**dict(cfg, **kw)))
            loaded = [m for m in sys.modules if m.startswith('scipy')]
            print(rec['status'], rec['versions']['scipy'], len(loaded) > 0,
                  sorted(m for m in loaded if m.split('.')[:2] in (
                      ['scipy', 'optimize'], ['scipy', 'linalg'], ['scipy', 'special'],
                      ['scipy', 'sparse'])))

        cfg = dict(n=120, rho=0.9, epsilon=0.05, strategy='rank1-spike', k0=12,
                   bad_seed_candidates=1, random_candidates=1, master_seed=0)
        run()
        run(k0=24)
        run()
        import scipy
        print(scipy.__version__)
        """
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                          capture_output=True, text=True, timeout=120, check=True)
    *lines, version = proc.stdout.splitlines()
    assert lines == ["ok None False []"] + [f"ok {version} True ['scipy.optimize._lsap']"] * 2


def test_psi_monotone_and_bracketed():
    a = compute_alpha()
    grid = np.linspace(0.0, 1.0, 21)
    vals = [compute_psi(float(r)) for r in grid]
    assert all(b >= a2 - 1e-8 for a2, b in zip(vals, vals[1:]))
    for v in vals:
        assert a * a - 1e-8 <= v <= a + 1e-8


def test_psi_domain():
    with pytest.raises(ParameterError):
        compute_psi(-0.1)


def test_refine_params():
    p = RefineParams.for_run(0.8, 1000)
    assert p.delta == pytest.approx(compute_psi(0.8) * 100.0, rel=1e-12)
    assert p.max_swaps == 10 * 1000
    assert p.alpha ** 2 <= p.psi_rho <= p.alpha


@pytest.mark.parametrize("n", [100, 500, 1000, 2000, 3000])
def test_integer_cuts_are_the_exact_ceilings(n):
    # the float cuts equal the ceilings of the exact values, in rational
    # arithmetic of the same float delta and alpha, at every degree sum
    for rho in (0.5, 0.8, 0.9, 0.95):
        params = RefineParams.for_run(rho, n)
        t_hi, t_lo = refine._integer_cuts(params, n)
        alpha, delta = Fraction(params.alpha), Fraction(params.delta)
        for got, x in ((t_hi, delta), (t_lo, delta / 10)):
            base = x - n * alpha * alpha
            assert got.tolist() == [math.ceil(base + alpha * s) for s in range(2 * n + 1)]


def test_a_cut_within_float_error_of_an_integer_is_decided_exactly():
    # Delta puts the cut at degree sum 0 a few 1e-15 above the integer 20,
    # where the float sum rounds to 20 exactly: only the rational ceiling
    # gives 21
    n, alpha = 100, compute_alpha()
    a = Fraction(alpha)
    delta = float(20 + n * a * a)
    exact = Fraction(delta) - n * a * a
    assert 0 < exact - 20 < Fraction(1, 10 ** 12)
    assert math.ceil(delta + (alpha * 0 - n * alpha * alpha)) == 20
    params = RefineParams(alpha=alpha, psi_rho=alpha, delta=delta, max_swaps=1)
    t_hi, t_lo = refine._integer_cuts(params, n)
    assert t_hi[0] == 21
    base = Fraction(delta) / 10 - n * a * a
    assert t_lo.tolist() == [math.ceil(base + a * s) for s in range(2 * n + 1)]


# ----------------------------------------------------- neighborhood stat


def test_neighborhood_stat_formula_collapse():
    # A' row u entirely below 1 collapses N to -alpha * sum(indicator - alpha)
    inst, obs = clean_obs(40, 0.8, 3)
    a = obs.a_prime.copy()
    a[7, :] = -5.0
    a[:, 7] = -5.0
    obs2 = ObservedPair(a, obs.b_prime)
    alpha = compute_alpha()
    pi = np.arange(40)
    for v in (0, 11):
        b_row = (obs2.b_prime[v, pi] >= 1.0).astype(float) - alpha
        assert neighborhood_stat(obs2, pi, 7, v) == pytest.approx(
            -alpha * b_row.sum(), abs=1e-12)


def test_neighborhood_stat_matches_direct_loop(rng):
    inst, obs = clean_obs(25, 0.7, 4)
    pi = rng.permutation(25)
    alpha = compute_alpha()
    for _ in range(5):
        u, v = rng.integers(25, size=2)
        direct = sum(
            ((obs.a_prime[u, w] >= 1.0) - alpha) * ((obs.b_prime[v, pi[w]] >= 1.0) - alpha)
            for w in range(25))
        assert neighborhood_stat(obs, pi, int(u), int(v)) == pytest.approx(direct, abs=1e-10)


def test_neighborhood_stat_packs_only_the_two_rows_it_reads(monkeypatch):
    # a stat of the observed pair costs O(n), not a packing of both matrices
    inst, obs = clean_obs(40, 0.8, 3)
    pi = np.random.default_rng(2).permutation(40)
    packed = []
    pack = refine._pack_indicator
    monkeypatch.setattr(refine, "_pack_indicator", lambda m: packed.append(m.shape) or pack(m))
    got = neighborhood_stat(obs, pi, 5, 9)
    assert packed == [(1, 40), (1, 40)]
    monkeypatch.undo()
    assert got == neighborhood_stat(indicator_bits(obs), pi, 5, 9)


# ---------------------------------------------------------------- refine


def manual_refine(obs, pi0, rho, max_swaps):
    """Literal transcription of the swap rule, recomputing every statistic
    from scratch each scan; the production code must match it exactly."""
    n = obs.n
    params = RefineParams.for_run(rho, n)
    delta = params.delta
    pi = np.array(pi0, copy=True)
    swaps = []
    while len(swaps) < max_swaps:
        inv = np.empty(n, dtype=int)
        inv[pi] = np.arange(n)
        found = None
        for u in range(n):
            if found:
                break
            n_u_cur = neighborhood_stat(obs, pi, u, int(pi[u]), params.alpha)
            if n_u_cur >= delta / 10.0:
                continue
            for v in range(n):
                n_uv = neighborhood_stat(obs, pi, u, v, params.alpha)
                if n_uv < delta:
                    continue
                n_v_cur = neighborhood_stat(obs, pi, int(inv[v]), v, params.alpha)
                if n_v_cur < delta / 10.0:
                    found = (u, v)
                    break
        if not found:
            break
        u, v = found
        p, wu = int(inv[v]), int(pi[u])
        pi[u] = v
        pi[p] = wu
        swaps.append((u, v))
    return pi, swaps


def test_refine_matches_manual_rule_transcription():
    inst, obs = clean_obs(16, 0.9, 8)
    rng = np.random.default_rng(5)
    pi0 = rng.permutation(16)
    trace = []
    out, info = seeded_refine(obs, pi0, 0.9, trace=trace)
    expected, swaps = manual_refine(obs, pi0, 0.9, max_swaps=160)
    assert np.array_equal(out, expected)
    assert [(t["u"], t["v"]) for t in trace] == swaps
    assert info["swaps"] == len(swaps)


def test_refine_zero_swaps_on_truth():
    for s in range(3):
        inst, obs = clean_obs(500, 0.8, 50 + s)
        out, info = seeded_refine(obs, np.arange(500), 0.8)
        assert info["swaps"] == 0
        assert np.array_equal(out, np.arange(500))


def test_refine_preserves_permutation_validity():
    inst, obs = clean_obs(200, 0.9, 60)
    rng = np.random.default_rng(6)
    pi0 = rng.permutation(200)
    out, _ = seeded_refine(obs, pi0, 0.9)
    assert sorted(out.tolist()) == list(range(200))


def test_refine_idempotent_on_own_output():
    inst, obs = clean_obs(300, 0.9, 61)
    pi0 = np.arange(300)
    wrong = np.arange(60, 300)
    pi0[wrong] = wrong[np.random.default_rng(7).permutation(240)]
    out, _ = seeded_refine(obs, pi0, 0.9)
    again, info = seeded_refine(obs, out, 0.9)
    assert info["swaps"] == 0
    assert np.array_equal(again, out)


def test_refine_improves_partial_matching():
    # oracle-frozen behaviour: from 25% agreement at n = 1200 the swap loop
    # makes clear net progress; full percolation needs the Delta/10 gate
    # above the statistic noise, which requires much larger n
    n, rho = 1200, 0.9
    inst, obs = clean_obs(n, rho, 77)
    pi0 = np.arange(n)
    rng = np.random.default_rng(77)
    wrong = rng.permutation(n)[300:]
    pi0[wrong] = wrong[rng.permutation(wrong.size)]
    start = overlap(pi0, np.arange(n))
    out, info = seeded_refine(obs, pi0, rho)
    assert start < 0.3
    assert overlap(out, np.arange(n)) >= start + 0.08
    assert not info["truncated"]


def test_refine_max_swaps_truncation():
    inst, obs = clean_obs(400, 0.9, 78)
    pi0 = np.arange(400)
    wrong = np.arange(100, 400)
    pi0[wrong] = wrong[np.random.default_rng(8).permutation(300)]
    params = RefineParams.for_run(0.9, 400, max_swaps=3)
    out, info = seeded_refine(obs, pi0, 0.9, params)
    assert info["swaps"] == 3
    assert info["truncated"]


def test_refine_scan_order_terminates_and_other_rules_are_refused():
    inst, obs = clean_obs(300, 0.9, 79)
    pi0 = np.arange(300)
    wrong = np.arange(75, 300)
    pi0[wrong] = wrong[np.random.default_rng(9).permutation(225)]
    out_scan, _ = seeded_refine(obs, pi0, 0.9, selection="scan-order")
    assert overlap(out_scan, np.arange(300)) >= overlap(pi0, np.arange(300))
    with pytest.raises(ParameterError, match="selection rule"):
        seeded_refine(obs, pi0, 0.9, selection="max-stat")


def test_refine_rejects_non_permutation():
    inst, obs = clean_obs(10, 0.9, 80)
    with pytest.raises(ParameterError):
        seeded_refine(obs, np.zeros(10, dtype=int), 0.9)


def test_count_table_exact_after_many_swaps():
    n = 200
    inst, obs = clean_obs(n, 0.9, 82)
    rng = np.random.default_rng(12)
    table = CoNeighbourTable(obs, rng.permutation(n))
    swaps = 0
    while swaps < 300:
        u, v = (int(x) for x in rng.integers(n, size=2))
        if table.pi[u] != v:
            table.swap(u, v, table.at(u, v))
            swaps += 1
    assert sorted(table.pi.tolist()) == list(range(n))
    assert np.array_equal(table.inv[table.pi], np.arange(n))
    ind_a = (obs.a_prime >= 1.0).astype(np.int64)
    ind_b = (obs.b_prime >= 1.0).astype(np.int64)
    # the scan's read of C, pending swaps included
    assert np.array_equal(table.rows(np.arange(n)), ind_a @ ind_b[:, table.pi].T)


def dense_refine(obs, pi0, params):
    """The swap rule on a dense N table recomputed from scratch before every
    swap, with no table kept between swaps, no bad-row or bad-column
    filtering ahead of the threshold test and no row blocks; the first
    qualifying pair in row-major order swaps.

    Also returns, per swap, N at the chosen pair and at both current pairs
    it replaces, (u, pi(u)) and (pi^-1(v), v), and the number of bad rows
    above its row, and the number of swaps at which some pair passed the
    Delta threshold in a good row or column.
    """
    n = obs.n
    alpha, delta = params.alpha, params.delta
    ind_a = (obs.a_prime >= 1.0).astype(np.int64)
    ind_b = (obs.b_prime >= 1.0).astype(np.int64)
    s = ind_a.sum(axis=1)[:, None] + ind_b.sum(axis=1)[None, :]
    idx = np.arange(n)
    pi = np.array(pi0, copy=True)
    swaps, stats, ranks, filtered = [], [], [], 0
    while len(swaps) < params.max_swaps:
        stat = ind_a @ ind_b[:, pi].T - alpha * s + n * alpha * alpha
        inv = np.argsort(pi)
        bad_u = stat[idx, pi] < delta / 10.0
        bad_v = stat[inv, idx] < delta / 10.0
        above = stat >= delta
        qual = above & bad_u[:, None] & bad_v[None, :]
        if not qual.any():
            break
        filtered += bool(np.any(above & ~qual))
        u, v = divmod(int(np.argmax(qual)), n)
        swaps.append((u, v))
        stats.append((stat[u, v], stat[u, pi[u]], stat[inv[v], v]))
        ranks.append(int(np.count_nonzero(bad_u[:u])))
        p, wu = inv[v], pi[u]
        pi[u], pi[p] = v, wu
    return pi, swaps, stats, ranks, filtered


def check_against_dense(obs, pi0, params, min_swaps):
    """seeded_refine and dense_refine give the same swaps, N values and result;
    returns dense_refine's per-swap ranks and filter count."""
    trace = []
    out, info = seeded_refine(obs, pi0, 0.9, params, trace=trace)
    expected, swaps, stats, ranks, filtered = dense_refine(obs, pi0, params)
    assert len(swaps) >= min_swaps
    assert [(t["u"], t["v"]) for t in trace] == swaps
    assert np.array_equal(out, expected)
    assert info == {"swaps": len(swaps), "truncated": len(swaps) == params.max_swaps,
                    "select_score": selection_score(obs, expected)}
    got = [(t["n_uv"], t["n_u_cur"], t["n_v_cur"]) for t in trace]
    assert np.allclose(got, stats, rtol=0, atol=1e-9)
    return ranks, filtered


def shuffled_identity(n, seed):
    rng = np.random.default_rng(seed)
    pi0 = np.arange(n)
    wrong = rng.permutation(n)[n // 4:]
    pi0[wrong] = wrong[rng.permutation(wrong.size)]
    return pi0


@pytest.mark.parametrize("block_rows", [1, 3, refine.SCAN_ROWS])
def test_refine_matches_dense_recompute(monkeypatch, block_rows):
    n, rho = 150, 0.9
    inst, obs = clean_obs(n, rho, 203)
    monkeypatch.setattr(refine, "SCAN_ROWS", block_rows)
    ranks, filtered = check_against_dense(obs, shuffled_identity(n, 3),
                                          RefineParams.for_run(rho, n), 20)
    # the case exercises the filter, a first qualifying pair at the first
    # bad row, read as a block of its own, and one past it, and, below the
    # default block size, one past the first block of block_rows rows,
    # which covers ranks 1 .. block_rows
    assert filtered == len(ranks)
    assert 0 in ranks and max(ranks) > 0
    if block_rows < refine.SCAN_ROWS:
        assert max(ranks) > block_rows


@pytest.mark.parametrize("batch", [1, 3, refine.BATCH_SWAPS])
def test_refine_matches_dense_recompute_per_batch(monkeypatch, batch):
    # 31 or more swaps: every batch size below the default folds many times
    n, rho = 150, 0.9
    inst, obs = clean_obs(n, rho, 203)
    monkeypatch.setattr(refine, "BATCH_SWAPS", batch)
    check_against_dense(obs, shuffled_identity(n, 3), RefineParams.for_run(rho, n), 31)


def test_refine_truncated_within_a_batch_matches_dense_recompute():
    # unlimited, the rule makes more than 50 swaps on this case
    n, rho = 200, 0.9
    inst, obs = clean_obs(n, rho, 205)
    params = RefineParams.for_run(rho, n, max_swaps=refine.BATCH_SWAPS + 13)
    assert params.max_swaps % refine.BATCH_SWAPS != 0
    check_against_dense(obs, shuffled_identity(n, 3), params, params.max_swaps)


def test_refine_memory_stays_at_the_table_build():
    # The peak is the float32 product that builds C: both float32 operands
    # and the result next to the packed indicators and the operands' row
    # degrees, 12.36 bytes per table entry (13.03 if the swap factors were
    # allocated before the operands die).  The scan
    # then holds the packed indicators and C (4.25 bytes an entry) plus
    # 256 bytes of swap factors per vertex; float32 copies of both
    # indicators and a dense threshold table kept beside C would reach 16.
    n = 400
    inst = generate(n, 0.9, "uniform-random", 101)
    obs, _ = corrupt(inst, 0.01, "rank1-spike", 102)
    ind = ObservedPair(obs.a_prime >= 1.0, obs.b_prime >= 1.0)
    del obs
    rng = np.random.default_rng(7)
    pi = inst.pi_star.copy()
    for _ in range(n // 2):
        u, v = rng.integers(n, size=2)
        pi[u], pi[v] = pi[v], pi[u]
    seeded_refine(ind, pi, 0.9)     # warm-up: imports and caches
    tracemalloc.start()
    try:
        _, info = seeded_refine(ind, pi, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info["swaps"] > refine.BATCH_SWAPS
    assert peak <= 12.4 * n * n, f"peak {peak / (n * n):.3f} bytes per entry"


# ---------------------------------------------------------- final select


def test_final_select_single_candidate():
    inst, obs = clean_obs(50, 0.8, 90)
    pi, scores = final_select(obs, [np.arange(50)])
    assert np.array_equal(pi, np.arange(50))
    assert len(scores) == 1


def test_final_select_truth_beats_random():
    inst, obs = clean_obs(500, 0.8, 91)
    rng = np.random.default_rng(10)
    cands = [np.arange(500)] + [rng.permutation(500) for _ in range(5)]
    pi, scores = final_select(obs, cands)
    assert np.array_equal(pi, np.arange(500))
    assert scores[0] == max(scores)
    assert scores[0] > max(scores[1:])


def test_final_select_score_is_maximal_by_construction():
    inst, obs = clean_obs(100, 0.7, 92)
    rng = np.random.default_rng(11)
    cands = [rng.permutation(100) for _ in range(4)]
    pi, scores = final_select(obs, cands)
    assert selection_score(obs, pi) == max(scores)


def test_final_select_tie_first_occurrence():
    inst, obs = clean_obs(30, 0.8, 93)
    pi0 = np.arange(30)
    pi, scores = final_select(obs, [pi0, pi0.copy()])
    assert scores[0] == scores[1]
    assert pi is not None
    assert np.array_equal(pi, pi0)


def test_final_select_empty_raises():
    inst, obs = clean_obs(10, 0.8, 94)
    with pytest.raises(ParameterError):
        final_select(obs, [])


def test_selection_score_counts_unordered_pairs():
    a = np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 1.5], [0.5, 1.5, 0.0]])
    b = np.array([[0.0, 1.2, 2.0], [1.2, 0.0, 0.0], [2.0, 0.0, 0.0]])
    obs = ObservedPair(a, b)
    # identity: pairs (0,1): A=2>=1, B=1.2>=1 -> hit; (0,2): A=0.5 no; (1,2): A=1.5, B=0 no
    assert selection_score(obs, np.arange(3)) == 1


def reference_selection_score(obs, pi):
    """The count over the gathered n x n upper triangle."""
    both = (obs.a_prime >= 1.0) & (obs.b_prime[np.ix_(pi, pi)] >= 1.0)
    return int(np.count_nonzero(np.triu(both, 1)))


def test_selection_score_matches_dense_count():
    rng = np.random.default_rng(14)
    for n in (1, 2, 9, 200):
        # not symmetric: only pairs u < v count
        obs = ObservedPair(rng.normal(0.5, 1.0, (n, n)), rng.normal(0.5, 1.0, (n, n)))
        for _ in range(3):
            pi = rng.permutation(n)
            assert selection_score(obs, pi) == reference_selection_score(obs, pi)


@pytest.mark.parametrize("n", [150, 500])
def test_refine_select_score_equals_selection_score(n):
    inst = generate(n, 0.9, "uniform-random", 95)
    obs, _ = corrupt(inst, 0.05, "rank1-spike", 96)
    rng = np.random.default_rng(n)
    pi = inst.pi_star.copy()
    for _ in range(n // 2):
        u, v = rng.integers(n, size=2)
        pi[u], pi[v] = pi[v], pi[u]
    out, info = seeded_refine(obs, pi, 0.9)
    assert info["swaps"] > 0
    assert info["select_score"] == selection_score(obs, out)
    # and straight from a table after random swaps
    table = CoNeighbourTable(obs, pi)
    for _ in range(50):
        u, v = (int(x) for x in rng.integers(n, size=2))
        if table.pi[u] != v:
            table.swap(u, v, table.at(u, v))
    diag = int(table.rows(np.arange(n))[np.arange(n), table.pi].sum())
    assert diag % 2 == 0
    assert diag // 2 == selection_score(obs, table.pi)


# ------------------------------------------------------- indicator pair


def test_refine_and_selection_same_on_indicator_pair():
    n = 300
    inst = generate(n, 0.9, "uniform-random", 33)
    obs, _ = corrupt(inst, 0.05, "rank1-spike", 34)
    ind = ObservedPair(obs.a_prime >= 1.0, obs.b_prime >= 1.0)
    rng = np.random.default_rng(35)
    pi = inst.pi_star.copy()
    for _ in range(n // 3):
        u, v = rng.integers(n, size=2)
        pi[u], pi[v] = pi[v], pi[u]
    trace_obs, trace_ind = [], []
    out_obs, info_obs = seeded_refine(obs, pi, 0.9, trace=trace_obs)
    out_ind, info_ind = seeded_refine(ind, pi, 0.9, trace=trace_ind)
    assert info_obs["swaps"] > 0
    assert np.array_equal(out_obs, out_ind)
    assert info_obs == info_ind
    assert trace_obs == trace_ind
    for p in (pi, out_obs, rng.permutation(n)):
        assert selection_score(obs, p) == selection_score(ind, p)
        assert np.array_equal(CoNeighbourTable(obs, p).rows(np.arange(n)),
                              CoNeighbourTable(ind, p).rows(np.arange(n)))


@pytest.mark.parametrize("n", [2, 7, 8, 9, 63, 64, 65, 150])
def test_refine_and_selection_same_on_indicator_bits(n):
    # the bits that the run packs and the float observed pair give the
    # same refinement, swap trace and scores; n below 8 and n not a
    # multiple of 8 leave pad bits in each row's last byte
    inst = generate(n, 0.9, "uniform-random", 36 + n)
    obs, _ = corrupt(inst, 0.05, "rank1-spike", 37)
    bits = indicator_bits(obs)
    assert isinstance(bits, IndicatorBits)
    rng = np.random.default_rng(n)
    pi = inst.pi_star.copy()
    for _ in range(n // 3):
        u, v = rng.integers(n, size=2)
        pi[u], pi[v] = pi[v], pi[u]
    table = CoNeighbourTable(bits, pi)
    assert np.array_equal(table.deg_a, (obs.a_prime >= 1.0).sum(axis=1))
    assert np.array_equal(table.deg_b, (obs.b_prime >= 1.0).sum(axis=1))
    got = []
    for pair in (obs, bits):
        trace = []
        out, info = seeded_refine(pair, pi, 0.9, trace=trace)
        got.append((out.tolist(), info, trace))
    assert got[0] == got[1]
    if n >= 63:
        assert got[0][1]["swaps"] > 0
    cands = [pi, np.array(got[0][0]), rng.permutation(n), inst.pi_star]
    for p in cands:
        assert selection_score(bits, p) == selection_score(obs, p)
        assert selection_score(bits, p) == reference_selection_score(obs, p)
    pi_obs, scores_obs = final_select(obs, cands)
    pi_bits, scores_bits = final_select(bits, cands)
    assert np.array_equal(pi_obs, pi_bits) and scores_obs == scores_bits
    for u, v in rng.integers(n, size=(5, 2)):
        assert neighborhood_stat(bits, pi, int(u), int(v)) == neighborhood_stat(obs, pi, int(u), int(v))
