"""Vector-AMP iteration tests: initialization, rounds, concentration."""

import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from wigmatch.amp import (AmpIterate, RoundLog, SeedPair, amp_round, bad_seed_pair,
                          good_seed_pair, init_iterate, linear_step, run_amp)
from wigmatch.denoiser import build_schedule, make_denoiser, phi_second_deriv_at_zero
from wigmatch.errors import ParameterError, SpectralDeficiencyError
from wigmatch.model import corrupt, generate
from wigmatch.preprocess import clean_pair
from wigmatch.rng import child
from wigmatch.spectral import XI_FACTOR, build_xi, initial_round, sample_beta

D = make_denoiser(1.0)


def clean_setup(n, rho, seed, k0=24):
    inst = generate(n, rho, "uniform-random", seed)
    obs, _ = corrupt(inst, 0.0, "zero-out", seed + 1)
    cp = clean_pair(obs, seed=seed + 2)
    seeds = good_seed_pair(inst.pi_star, k0)
    return inst, cp, seeds


def align_rows(it, pi_star):
    """Row index map so g rows line up with their matched f rows."""
    pos_j = {v: idx for idx, v in enumerate(it.rows_j)}
    return np.array([pos_j[pi_star[v]] for v in it.rows_i])


# ----------------------------------------------------------------- seeds


def test_seed_pair_validation():
    with pytest.raises(ParameterError):
        SeedPair(u_seq=np.array([1, 1]), v_seq=np.array([2, 3]))
    with pytest.raises(ParameterError):
        SeedPair(u_seq=np.array([1, 2]), v_seq=np.array([3]))


def test_good_seed_pair_avoids_excluded():
    pi = np.random.default_rng(0).permutation(50)
    sp = good_seed_pair(pi, 12, exclude_u=[0, 1], exclude_v=[pi[2]])
    assert 0 not in sp.u_seq and 1 not in sp.u_seq and 2 not in sp.u_seq
    assert np.array_equal(sp.v_seq, pi[sp.u_seq])
    assert sp.goodness is True


def test_bad_seed_pair_is_fully_mismatched():
    pi = np.random.default_rng(1).permutation(50)
    sp = bad_seed_pair(pi, 12, seed=5)
    assert not np.any(sp.v_seq == pi[sp.u_seq])
    assert sp.goodness is False


def test_good_seed_pair_refuses_k0_below_one():
    # k0 = 0 used to return every clean vertex
    with pytest.raises(ParameterError, match="k0=0"):
        good_seed_pair(np.random.default_rng(2).permutation(7), 0)


@pytest.mark.parametrize("k0", [0, 1])
def test_bad_seed_pair_refuses_k0_below_two(k0):
    # one seed has no derangement (the draw loop never ended), and k0 = 0
    # failed in SeedPair with a message that did not name k0
    with pytest.raises(ParameterError, match=f"k0={k0}"):
        bad_seed_pair(np.random.default_rng(2).permutation(7), k0, seed=3)


# ------------------------------------------------------------------ init


def test_init_zero_column_gives_constant():
    inst, cp, seeds = clean_setup(60, 0.9, 10, k0=12)
    cp.a_clean[:, seeds.u_seq[3]] = 0.0
    it = init_iterate(cp, seeds, D)
    assert np.allclose(it.f[:, 3], D(0.0), atol=1e-15)


def test_init_rows_exclude_seeds():
    inst, cp, seeds = clean_setup(60, 0.9, 11, k0=12)
    it = init_iterate(cp, seeds, D)
    assert it.f.shape == (48, 12)
    assert not set(seeds.u_seq.tolist()) & set(it.rows_i.tolist())
    assert not set(seeds.v_seq.tolist()) & set(it.rows_j.tolist())


def test_init_out_of_range_seed():
    inst, cp, _ = clean_setup(30, 0.9, 12, k0=12)
    bad = SeedPair(u_seq=np.array([1, 99]), v_seq=np.array([2, 3]))
    with pytest.raises(ParameterError):
        init_iterate(cp, bad, D)


def test_entries_bounded_by_sup():
    inst, cp, seeds = clean_setup(80, 0.9, 13, k0=12)
    it = init_iterate(cp, seeds, D)
    assert np.abs(it.f).max() <= D.sup_bound()
    assert np.abs(it.g).max() <= D.sup_bound()


# ---------------------------------------------------------------- rounds


def test_round_shapes_and_zero_propagation():
    inst, cp, seeds = clean_setup(100, 0.9, 14)
    it = init_iterate(cp, seeds, D)
    rm = initial_round(24, 0.3)
    xi = build_xi(rm)
    step = sample_beta(rm, xi, 96, D, rho=0.9, seed=1, mode="record", max_resamples=2)
    nxt = amp_round(it, cp, step, D)
    assert it.f.shape[1] == 24
    assert nxt.h.shape == (76, 2)      # K/12 columns
    assert nxt.f.shape == (76, 96)     # K_next columns
    # zero f gives h = 0 and constant f'
    it.f = np.zeros_like(it.f)
    h, _ = linear_step(it, cp, xi)
    assert np.abs(h).max() == 0.0


def test_rows_zeroed_by_cleaning_give_zero_h_rows():
    inst, cp, seeds = clean_setup(100, 0.9, 15)
    it = init_iterate(cp, seeds, D)
    victim = int(it.rows_i[7])
    cp.a_clean[victim, :] = 0.0
    cp.a_clean[:, victim] = 0.0
    it = init_iterate(cp, seeds, D)
    rm = initial_round(24, 0.3)
    xi = build_xi(rm)
    h, _ = linear_step(it, cp, xi)
    row = int(np.flatnonzero(it.rows_i == victim)[0])
    assert np.abs(h[row]).max() == 0.0


def test_run_amp_graceful_spectral_stop():
    inst, cp, seeds = clean_setup(120, 0.9, 16)
    sched = build_schedule(0.9, 120, 24, min_rounds=2)
    res = run_amp(cp, seeds, sched, D, min_rounds=2, beta_seed=3, spectral_mode="record")
    assert res.stopped_reason == "spectral"
    assert res.iterate.h is not None
    assert res.rounds[0].xi_ortho_err <= 1e-8
    assert res.rounds[0].accepted is False      # window unattainable at K0=24
    assert res.rounds[0].eps_lower_bound_ok is True


def test_run_amp_strict_raises():
    # spectral_mode accepts only "record", and xi_factor only XI_FACTOR
    inst, cp, seeds = clean_setup(120, 0.9, 17)
    sched = build_schedule(0.9, 120, 24, min_rounds=2)
    with pytest.raises(ParameterError, match="spectral mode"):
        run_amp(cp, seeds, sched, D, min_rounds=2, beta_seed=3,
                spectral_mode="strict", max_resamples=4)
    for xi_factor in (6, 4):
        with pytest.raises(ParameterError, match="xi_factor must be 12"):
            run_amp(cp, seeds, sched, D, min_rounds=2, beta_seed=3, xi_factor=xi_factor)


def test_run_amp_min_rounds_zero_stops_at_t_star():
    inst, cp, seeds = clean_setup(120, 0.9, 18)
    sched = build_schedule(0.9, 120, 24, min_rounds=0)
    assert sched.t_star == 0
    res = run_amp(cp, seeds, sched, D, min_rounds=0, beta_seed=3)
    assert res.iterate.t == 0
    assert res.stopped_reason == "t_star"
    assert res.iterate.h.shape[1] == 2
    assert res.rounds[0].resamples is None      # no beta needed at the last round


def _run_amp_inline_rounds(cp, seeds, sched, d, min_rounds, beta_seed, max_resamples):
    """run_amp's loop as it was with amp_round's body written out inline;
    returns (iterate, rounds, stopped_reason)."""
    t_target = max(sched.t_star, min_rounds)
    rm = initial_round(sched.k0, sched.eps0)
    it = init_iterate(cp, seeds, d)
    logs = []
    pp_rho = sched.rho ** 2 * phi_second_deriv_at_zero(d) / 16.0
    stopped = "t_star" if t_target == sched.t_star else "min_rounds"
    for t in range(t_target + 1):
        log = RoundLog(t=t, k_t=rm.k_t, d=max(1, rm.k_t // XI_FACTOR), eps_t=rm.eps_t)
        try:
            xi = build_xi(rm)
        except SpectralDeficiencyError:
            stopped = "spectral"
            break
        log.xi_ortho_err = float(np.linalg.norm(xi.T @ rm.phi @ xi - np.eye(xi.shape[1])))
        pd = np.diag(xi.T @ rm.psi @ xi)
        log.psi_diag_min, log.psi_diag_max = float(pd.min()), float(pd.max())
        h, l = linear_step(it, cp, xi)
        it.h, it.l = h, l
        if t == t_target:
            logs.append(log)
            break
        step = sample_beta(rm, xi, sched.ks[t + 1], d, sched.rho, seed=child(beta_seed, t),
                           max_resamples=max_resamples)
        log.eps_lower_bound_ok = bool(step.eps_next >= pp_rho * rm.eps_t ** 2 - 1e-12)
        log.resamples = step.resamples
        log.accepted = step.accepted
        log.clamp_count = step.clamp_count
        log.window_phi, log.window_psi = step.next_rm.window_counts()
        it = AmpIterate(f=d(h @ step.beta), g=d(l @ step.beta), h=h, l=l, t=t + 1,
                        rows_i=it.rows_i, rows_j=it.rows_j)
        rm = step.next_rm
        logs.append(log)
    return it, logs, stopped


@pytest.mark.parametrize("min_rounds", [0, 2])
def test_run_amp_matches_inline_rounds(min_rounds):
    inst, cp, seeds = clean_setup(120, 0.9, 16)
    sched = build_schedule(0.9, 120, 24, min_rounds=min_rounds)
    kw = dict(min_rounds=min_rounds, beta_seed=3, max_resamples=4)

    def untimed(rounds):
        return [{k: v for k, v in asdict(r).items() if k != "wall_s"} for r in rounds]

    def current():
        res = run_amp(cp, seeds, sched, D, **kw)
        return res.iterate, untimed(res.rounds), res.stopped_reason

    def inline():
        it, logs, stopped = _run_amp_inline_rounds(cp, seeds, sched, D, **kw)
        return it, untimed(logs), stopped

    got, want = current(), inline()
    assert got[1] == want[1]
    assert got[2] == want[2]
    for name in ("f", "g", "h", "l", "rows_i", "rows_j"):
        assert np.array_equal(getattr(got[0], name), getattr(want[0], name)), name
    assert got[0].t == want[0].t
    if min_rounds == 2:
        assert got[0].t == 1 and got[2] == "spectral"   # amp_round ran once


def test_linear_step_is_the_padded_product_and_the_sub_matrix_product():
    # linear_step reads A_sub x as the non-seed rows of A x~, with x~ zero
    # at the seeds: h and l are that product's bytes, and they agree with
    # the product of the gathered sub-matrix up to the order in which BLAS
    # sums (n terms, not n - k0); on round 0's iterate and on round 1's
    # (whose frame cannot be built at this size, so a fixed one stands in)
    n = 120
    inst, cp, seeds = clean_setup(n, 0.9, 16)
    sched = build_schedule(0.9, n, 24, min_rounds=2)
    it = init_iterate(cp, seeds, D)
    a_sub = cp.a_clean[np.ix_(it.rows_i, it.rows_i)]
    b_sub = cp.b_clean[np.ix_(it.rows_j, it.rows_j)]
    rm = initial_round(sched.k0, sched.eps0)
    xi = build_xi(rm)
    step = sample_beta(rm, xi, sched.ks[1], D, sched.rho, seed=child(3, 0),
                       max_resamples=4, mode="record")
    nxt = amp_round(it, cp, step, D)
    assert nxt.t == 1
    xi1 = np.linalg.qr(np.random.default_rng(0).standard_normal((sched.ks[1], 8)))[0]

    def padded(mat, rows, x):
        x_pad = np.zeros((n, x.shape[1]))
        x_pad[rows] = x
        return (mat @ x_pad)[rows] / math.sqrt(n)

    for cur, frame, (h, l) in ((it, xi, (nxt.h, nxt.l)), (it, xi, linear_step(it, cp, xi)),
                               (nxt, xi1, linear_step(nxt, cp, xi1))):
        for got, mat, sub, rows, x in ((h, cp.a_clean, a_sub, cur.rows_i, cur.f @ frame),
                                       (l, cp.b_clean, b_sub, cur.rows_j, cur.g @ frame)):
            assert got.tobytes() == padded(mat, rows, x).tobytes()
            want = sub @ x / math.sqrt(n)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("k0", [12, 24])
def test_run_amp_on_two_seed_pairs_in_turn_leaves_the_cleaned_pair_unchanged(k0):
    # the run calls run_amp on one cleaned pair for each seed pair in turn:
    # each result is that of the inline rounds, and the pair keeps its bytes
    n = 150
    inst, cp, _ = clean_setup(n, 0.9, 21, k0=k0)
    oracle = good_seed_pair(inst.pi_star, k0, exclude_u=[0, 2, 5], exclude_v=[inst.pi_star[7]])
    pairs = [oracle, bad_seed_pair(inst.pi_star, k0, seed=4)]
    assert not np.array_equal(pairs[0].u_seq, pairs[1].u_seq)
    assert not np.array_equal(np.sort(pairs[0].v_seq), np.sort(pairs[1].v_seq))
    kw = dict(min_rounds=2, beta_seed=3, max_resamples=4)
    sched = build_schedule(0.9, n, k0, min_rounds=2)
    a, b = cp.a_clean.tobytes(), cp.b_clean.tobytes()
    for seeds in pairs:
        got = run_amp(cp, seeds, sched, D, **kw).iterate
        want, _, _ = _run_amp_inline_rounds(cp, seeds, sched, D, **kw)
        for name in ("f", "g", "h", "l", "rows_i", "rows_j"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert cp.a_clean.tobytes() == a and cp.b_clean.tobytes() == b


@pytest.mark.parametrize("n,min_rounds,bound", [(600, 2, 1.0), (1500, 0, 0.25)])
def test_run_amp_on_a_cleaned_pair_copies_no_sub_matrix(n, min_rounds, bound):
    # run_amp neither copies nor gathers a sub-matrix of the cleaned pair:
    # each product reads the whole matrix against a zero-padded operand,
    # and cp is left unchanged.  A gathered (n - 24)^2 sub-matrix alone is
    # 0.92 n x n at n = 600 and 0.97 at n = 1500; at n = 600 round 1's
    # frames and beta draws take most of the bound
    inst, cp, seeds = clean_setup(n, 0.9, 23)
    a, b = cp.a_clean.copy(), cp.b_clean.copy()
    sched = build_schedule(0.9, n, 24, min_rounds=min_rounds)
    kw = dict(min_rounds=min_rounds, beta_seed=3, max_resamples=4)
    run_amp(cp, seeds, sched, D, **kw)                 # warm-up: imports and caches
    tracemalloc.start()
    try:
        run_amp(cp, seeds, sched, D, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n * n, f"peak {peak / (8 * n * n):.2f} n x n matrices"
    assert np.array_equal(cp.a_clean, a) and np.array_equal(cp.b_clean, b)


def test_run_amp_refuses_seeds_whose_k0_differs_from_the_schedules():
    # a seed pair of another k0 than the schedule's is a config error
    # (exit 2), not a shape error inside numpy's matmul (exit 1)
    inst, cp, _ = clean_setup(200, 0.9, 24)
    seeds = good_seed_pair(inst.pi_star, 12)
    sched = build_schedule(0.9, 200, 24)
    with pytest.raises(ParameterError, match="k0=12.*k0=24"):
        run_amp(cp, seeds, sched, D, min_rounds=0, beta_seed=3)


def test_run_amp_deterministic():
    inst, cp, seeds = clean_setup(100, 0.9, 19)
    sched = build_schedule(0.9, 100, 24, min_rounds=1)
    r1 = run_amp(cp, seeds, sched, D, min_rounds=1, beta_seed=7)
    r2 = run_amp(cp, seeds, sched, D, min_rounds=1, beta_seed=7)
    assert np.array_equal(r1.iterate.h, r2.iterate.h)
    assert np.array_equal(r1.iterate.f, r2.iterate.f)


# ----------------------------------------------------------- statistics


def test_initial_gram_concentration():
    n, rho, k0 = 2000, 0.8, 24
    inst, cp, seeds = clean_setup(n, rho, 20, k0=k0)
    sched = build_schedule(rho, n, k0)
    it = init_iterate(cp, seeds, D)
    al = align_rows(it, inst.pi_star)
    ff = it.f.T @ it.f / n
    fg = it.f.T @ it.g[al] / n
    # oracle-calibrated per-seed bounds: diagonal noise is var(phi^2)/n
    assert np.abs(ff - np.eye(k0)).max() <= 0.2
    assert np.abs(np.diag(fg) - sched.eps0).max() <= 0.12
    assert np.abs(fg - sched.eps0 * np.eye(k0)).max() <= 0.12
    assert np.abs(np.diag(fg) - sched.eps0).mean() <= 0.05
    assert np.abs(it.f.sum(axis=0) / n).max() <= 0.1


def test_round_one_gram_tracks_predicted_matrices():
    n, rho, k0 = 2000, 0.8, 24
    inst, cp, seeds = clean_setup(n, rho, 21, k0=k0)
    sched = build_schedule(rho, n, k0, min_rounds=1)
    it = init_iterate(cp, seeds, D)
    al = align_rows(it, inst.pi_star)
    rm = initial_round(k0, sched.eps0)
    xi = build_xi(rm)
    step = sample_beta(rm, xi, sched.ks[1], D, rho, seed=9, mode="record",
                       max_resamples=4)
    nxt = amp_round(it, cp, step, D)
    ff1 = nxt.f.T @ nxt.f / n
    fg1 = nxt.f.T @ nxt.g[al] / n
    assert np.abs(ff1 - step.next_rm.phi).max() <= 0.15
    assert np.abs(fg1 - step.next_rm.psi).max() <= 0.15


def test_good_seeds_carry_signal_bad_seeds_do_not():
    n, rho, k0 = 1000, 0.9, 24
    inst = generate(n, rho, "uniform-random", 22)
    obs, _ = corrupt(inst, 0.0, "zero-out", 23)
    cp = clean_pair(obs, seed=24)
    sched = build_schedule(rho, n, k0, min_rounds=0)
    d_cols = 2

    def diag_stat(seeds):
        res = run_amp(cp, seeds, sched, D, min_rounds=0, beta_seed=25)
        it = res.iterate
        pos_j = {v: idx for idx, v in enumerate(it.rows_j)}
        vals = []
        for r, vtx in enumerate(it.rows_i):
            img = inst.pi_star[vtx]
            if img in pos_j:
                vals.append(float(it.h[r] @ it.l[pos_j[img]]))
        return np.mean(vals)

    good = diag_stat(good_seed_pair(inst.pi_star, k0))
    bad = diag_stat(bad_seed_pair(inst.pi_star, k0, seed=26))
    # matched-row inner products average (rho/2) * d * eps0 for good seeds;
    # the statistic's own noise is ~ sqrt(d / n) ~ 0.045 per aggregate
    expected = rho / 2.0 * d_cols * sched.eps0
    assert good == pytest.approx(expected, abs=0.1)
    assert abs(bad) <= 0.12
    assert good > bad + 0.05
