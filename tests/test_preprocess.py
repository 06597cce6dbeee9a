"""Noise re-injection, power iteration, and spectral-cleaning tests."""

import math

import numpy as np
import pytest

from wigmatch import preprocess
from wigmatch.errors import NumericalError, ParameterError
from wigmatch.model import (STRATEGIES, ObservedPair, _noise_blocks, _symmetric_standard_normal,
                            corrupt, generate, indicator_bits)
from wigmatch.preprocess import (_clean_owned, _reinject_in_place, _singular_triple,
                                 certificate, clean_pair, reinject_noise, spectral_clean)
from wigmatch.rng import child, generator


def goe(n, seed):
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    vals = rng.standard_normal(iu[0].size)
    m[iu] = vals
    m.T[iu] = vals
    return m


# ------------------------------------------------------ noise re-injection


def test_zero_noise_hook():
    inst = generate(30, 0.9, "identity", 1)
    obs = ObservedPair(inst.a, inst.b)
    z = np.zeros((30, 30))
    hat_a, hat_b, g, h = reinject_noise(obs, seed=2, g=z, h=z)
    off = ~np.eye(30, dtype=bool)
    assert np.allclose(hat_a[off], inst.a[off] / math.sqrt(2), atol=1e-15)
    assert np.allclose(hat_b[off], inst.b[off] / math.sqrt(2), atol=1e-15)


def test_output_not_symmetric_and_zero_diagonal():
    inst = generate(40, 0.9, "identity", 1)
    hat_a, hat_b, g, h = reinject_noise(ObservedPair(inst.a, inst.b), seed=2)
    assert not np.allclose(hat_a, hat_a.T)
    assert np.all(np.diag(hat_a) == 0.0)
    assert np.array_equal(g, g.T)
    # sign flip across the diagonal: hat[i,j] + hat[j,i] = 2 A[i,j] / sqrt(2)
    rec = hat_a + hat_a.T
    off = ~np.eye(40, dtype=bool)
    assert np.allclose(rec[off], 2.0 * inst.a[off] / math.sqrt(2), atol=1e-12)


def test_reinjected_variance_unit():
    inst = generate(2000, 0.8, "identity", 6)
    hat_a, _, _, _ = reinject_noise(ObservedPair(inst.a, inst.b), seed=3)
    off = ~np.eye(2000, dtype=bool)
    assert abs(hat_a[off].var() - 1.0) < 0.05


def test_reinjected_covariance_halved():
    # Cov(hatA[i,j], hatB[pi(i),pi(j)]) = rho / 2 for the matched pair
    rho = 0.8
    inst = generate(2000, rho, "uniform-random", 8)
    hat_a, hat_b, _, _ = reinject_noise(ObservedPair(inst.a, inst.b), seed=5)
    pi = inst.pi_star
    hb = hat_b[np.ix_(pi, pi)]
    iu = np.triu_indices(2000, 1)
    cov = np.mean(hat_a[iu] * hb[iu])
    assert abs(cov - rho / 2.0) < 0.05
    # below the diagonal the shared noise flips sign jointly; same covariance
    il = np.tril_indices(2000, -1)
    cov_lo = np.mean(hat_a[il] * hb[il])
    assert abs(cov_lo - rho / 2.0) < 0.05


def sign_formula(m, noise):
    """Re-injection by its formula: an int64 sign matrix (+1 below the
    diagonal, -1 above) times the noise, added to A' and divided by
    sqrt(2), with a zero diagonal."""
    idx = np.arange(m.shape[0])
    ref = (m + np.sign(idx[:, None] - idx[None, :]) * noise) / math.sqrt(2.0)
    np.fill_diagonal(ref, 0.0)
    return ref


@pytest.mark.parametrize("n", [1, 2, 7, 129, 500, 600])
def test_reinjection_is_byte_stable(n):
    # 129, 500 and 600 span several row blocks and end in a partial one
    a = goe(n, 40 + n) if n > 1 else np.zeros((1, 1))
    b = goe(n, 50 + n) if n > 1 else np.zeros((1, 1))
    hat_a, hat_b, g, h = reinject_noise(ObservedPair(a, b), seed=n)
    for hat, m, noise in ((hat_a, a, g), (hat_b, b, h)):
        assert hat.tobytes() == sign_formula(m, noise).tobytes()


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 300])
def test_reinjection_in_place_equals_drawn_noise(n):
    # cleaning re-injects over A' block by block; the bytes and the noise
    # stream's position afterwards are those of drawing G whole
    m = goe(n, 60 + n) if n > 1 else np.zeros((1, 1))
    m[::7] += 2.5                   # the rows are not symmetric to the columns
    rng = generator(n)
    want = sign_formula(m, _symmetric_standard_normal(n, rng))
    tail = rng.standard_normal(3)
    rng = generator(n)
    _reinject_in_place(m, _noise_blocks(n, rng))
    assert m.tobytes() == want.tobytes()
    assert np.array_equal(rng.standard_normal(3), tail)


def test_explicit_noise_is_read_above_the_diagonal_only():
    # an explicit g stands for the symmetric matrix of its upper triangle
    n = 129
    a, b = goe(n, 70), goe(n, 71)
    g = np.random.default_rng(72).standard_normal((n, n))     # not symmetric
    upper = np.triu(g, 1)
    before = g.copy()
    hat_a, _, got_g, _ = reinject_noise(ObservedPair(a, b), seed=3, g=g, h=g)
    assert got_g is g and np.array_equal(g, before)
    assert hat_a.tobytes() == sign_formula(a, upper + upper.T).tobytes()


# ------------------------------------------------------- singular triple


@pytest.mark.parametrize("n", [20, 60, 100])
def test_power_iteration_matches_dense_svd(n, rng):
    for k in range(3):
        m = rng.standard_normal((n, n))
        sigma, u, v, iters = _singular_triple(m, seed=k)[:4]
        ref = float(np.linalg.svd(m, compute_uv=False)[0])
        assert abs(sigma - ref) / ref < 1e-8
        # returned vectors reproduce the singular value
        assert abs(u @ m @ v - sigma) / ref < 1e-6


def test_power_iteration_on_symmetric_goe():
    m = goe(300, 4)
    sigma, _, _, _ = _singular_triple(m, seed=1)[:4]
    ref = float(np.linalg.svd(m, compute_uv=False)[0])
    assert abs(sigma - ref) / ref < 1e-6


def test_power_iteration_zero_matrix():
    sigma, _, _, _ = _singular_triple(np.zeros((8, 8)))[:4]
    assert sigma == 0.0


def test_power_iteration_nonconvergence_raises():
    m = goe(60, 2)
    with pytest.raises(NumericalError, match="did not converge"):
        _singular_triple(m, max_iter=2)[:4]


# ------------------------------------------------------- spectral_clean


def test_clean_below_threshold_untouched():
    n = 100
    m = goe(n, 3)
    m *= 5.0 * math.sqrt(n) / np.linalg.norm(m, 2)
    cleaned, zeroed = spectral_clean(m, seed=1)
    assert zeroed.size == 0
    assert np.array_equal(cleaned, m)


def test_clean_2x2_single_step():
    c = 20.0 * math.sqrt(2.0)
    m = np.array([[0.0, c], [c, 0.0]])
    cleaned, zeroed = spectral_clean(m, seed=5)
    assert zeroed.size == 1
    assert np.abs(cleaned).max() == 0.0


def test_clean_guard_and_zeroed_rows_exact():
    n = 300
    m = goe(n, 7)
    q = np.arange(6)
    v = np.zeros(n)
    v[q] = 1.0 / math.sqrt(6)
    m = m + 30.0 * math.sqrt(n) * np.outer(v, v)
    np.fill_diagonal(m, 0.0)
    cleaned, zeroed = spectral_clean(m, seed=2)
    assert np.linalg.norm(cleaned, 2) < 10.0 * math.sqrt(n)
    for i in zeroed:
        assert np.all(cleaned[i, :] == 0.0)
        assert np.all(cleaned[:, i] == 0.0)


def test_clean_spike_removal_bounded():
    # GOE + antisymmetrised rank-1 spike: removal count well under 4 eps n
    n, trials = 500, 10
    bad = 0
    for s in range(trials):
        inst = generate(n, 0.9, "identity", 100 + s)
        obs, _ = corrupt(inst, 0.02, "rank1-spike", 200 + s,
                         spike_scale=30.0 * math.sqrt(n))
        hat_a, _, _, _ = reinject_noise(obs, seed=300 + s)
        _, zeroed = spectral_clean(hat_a, seed=400 + s)
        if zeroed.size > 40:
            bad += 1
    assert bad == 0


def test_clean_uncorrupted_goe_mean_removals():
    # pure noise sits near 2 sqrt(n), far under the threshold
    n = 500
    sizes = []
    for s in range(50):
        hat_a, _, _, _ = reinject_noise(
            ObservedPair(goe(n, 1000 + s), goe(n, 2000 + s)), seed=s)
        _, zeroed = spectral_clean(hat_a, seed=3000 + s)
        sizes.append(zeroed.size)
    assert np.mean(sizes) <= 1.0


# ------------------------------------------------------------ clean_pair


def test_clean_pair_composition():
    inst = generate(150, 0.9, "identity", 9)
    obs, plan = corrupt(inst, 0.04, "rank1-spike", 10,
                        spike_scale=40.0 * math.sqrt(150))
    rows = []
    cp = _clean_owned([obs.a_prime, obs.b_prime], seed=11, trace=rows)[0]
    n = 150
    assert np.linalg.norm(cp.a_clean, 2) < 10.0 * math.sqrt(n)
    assert np.linalg.norm(cp.b_clean, 2) < 10.0 * math.sqrt(n)
    for i in cp.s:
        assert np.all(cp.a_clean[i, :] == 0.0)
    assert len(rows) >= 2  # at least the final below-threshold check per matrix
    # a spike-free final step is certified by the bound
    threshold = 10.0 * math.sqrt(n)
    for side, cleaned in (("a", cp.a_clean), ("b", cp.b_clean)):
        *steps, last = [r for r in rows if r["matrix"] == side]
        assert all(not r["certified"] and r["removed_index"] is not None for r in steps)
        assert last["removed_index"] is None
        if last["certified"]:
            assert last["norm"] in ("S4", "S8")
            sigma = float(np.linalg.norm(cleaned, 2))
            # the row reports power iteration's estimate, at most sigma_1, and
            # the bound, above it
            assert last["top_singular_value"] <= sigma * (1 + 1e-12)
            assert sigma < last["bound"] <= threshold * (1 - 1e-9)
        else:
            assert last["top_singular_value"] < threshold
    # both final solves contract too slowly to converge before an S4 pays;
    # a's residual spike leaves S4 above the threshold, and its tail is then
    # shorter than an S8 costs, so it converges
    assert [(r["matrix"], r["norm"]) for r in rows if r["certified"]] == [("b", "S4")]
    assert [(r["norm"], r["certified"]) for r in rows if r["matrix"] == "a"][-1] == ("S4", False)


def test_clean_pair_clean_input_no_removals():
    inst = generate(400, 0.9, "identity", 12)
    obs, _ = corrupt(inst, 0.0, "zero-out", 13)
    cp = clean_pair(obs, seed=14)
    assert cp.s.size == 0
    assert cp.t.size == 0


def test_clean_pair_accepts_only_the_threshold():
    inst = generate(40, 0.9, "identity", 12)
    obs, _ = corrupt(inst, 0.0, "zero-out", 13)
    with pytest.raises(ParameterError, match="threshold_mult must be 10.0"):
        clean_pair(obs, seed=14, threshold_mult=9.0)
    assert clean_pair(obs, seed=14, threshold_mult=10.0).a_clean.tobytes() == \
        clean_pair(obs, seed=14).a_clean.tobytes()



@pytest.mark.parametrize("n", [129, 150, 300, 600])
def test_clean_pair_equals_spectral_clean_of_reinjected_pair(n):
    inst = generate(n, 0.9, "uniform-random", 41)
    obs, _ = corrupt(inst, 0.04, "rank1-spike", 42, spike_scale=40.0 * math.sqrt(n))
    cp = clean_pair(obs, seed=43)
    hat_a, hat_b, _, _ = reinject_noise(obs, seed=child(43, 0))
    a_clean, s = spectral_clean(hat_a, seed=child(43, 1))
    b_clean, t = spectral_clean(hat_b, seed=child(43, 2))
    assert s.size > 0 and t.size > 0
    assert np.array_equal(cp.s, s) and np.array_equal(cp.t, t)
    assert cp.a_clean.tobytes() == a_clean.tobytes()
    assert cp.b_clean.tobytes() == b_clean.tobytes()
    # the observed pair is read, never written
    again, _ = corrupt(inst, 0.04, "rank1-spike", 42, spike_scale=40.0 * math.sqrt(n))
    assert np.array_equal(obs.a_prime, again.a_prime)
    assert np.array_equal(obs.b_prime, again.b_prime)
    # the owning core run takes the matrices from its list, cleans them as
    # clean_pair does and returns the indicator pair (A' >= 1, B' >= 1) in bits
    observed = [again.a_prime, again.b_prime]
    owned, bits = _clean_owned(observed, 43)
    assert observed == []
    assert np.array_equal(owned.s, cp.s) and np.array_equal(owned.t, cp.t)
    assert owned.a_clean.tobytes() == cp.a_clean.tobytes()
    assert owned.b_clean.tobytes() == cp.b_clean.tobytes()
    assert_packed_indicators(bits, obs)


def assert_packed_indicators(bits, obs):
    """bits holds np.packbits(x >= 1, axis=1) of each observed matrix, with
    zero pad bits."""
    n = obs.n
    for got, m in ((bits.a, obs.a_prime), (bits.b, obs.b_prime)):
        assert got.dtype == np.uint8 and got.shape == (n, (n + 7) // 8)
        assert np.array_equal(got, np.packbits(m >= 1.0, axis=1))
        assert not np.any(np.unpackbits(got, axis=1)[:, n:])
    assert bits.n == n


@pytest.mark.parametrize("n", [2, 7, 8, 9, 63, 64, 65, 150])
def test_clean_owned_packs_the_indicators(n):
    # n below 8 and not a multiple of 8 leave pad bits in each row's last
    # byte; n = 65 and 150 pass a block of NOISE_ROWS rows
    inst = generate(n, 0.9, "uniform-random", 60 + n)
    obs, _ = corrupt(inst, 0.05, "planted-clique-weight", 61)
    _, bits = _clean_owned([obs.a_prime.copy(), obs.b_prime.copy()], 62)
    assert_packed_indicators(bits, obs)
    assert_packed_indicators(indicator_bits(obs), obs)
    assert indicator_bits(bits) is bits


def test_spectral_clean_leaves_input_unchanged():
    inst = generate(120, 0.9, "identity", 44)
    obs, _ = corrupt(inst, 0.05, "rank1-spike", 45, spike_scale=40.0 * math.sqrt(120))
    hat_a, _, _, _ = reinject_noise(obs, seed=46)
    before = hat_a.copy()
    cleaned, zeroed = spectral_clean(hat_a, seed=47)
    assert zeroed.size > 0
    assert np.array_equal(hat_a, before)
    assert not np.shares_memory(cleaned, hat_a)


# ------------------------------------------------------- certified stop


def power_clean_reference(m, threshold_mult=10.0, seed=0):
    """spectral_clean as it was before the certified stop: every step runs
    power iteration to convergence."""

    def triple(m, seed, v0, tol=1e-10, max_iter=10000):
        n = m.shape[0]
        v = v0.astype(float, copy=True) if v0 is not None else generator(seed).standard_normal(n)
        v /= np.linalg.norm(v)
        sigma_prev = -1.0
        for _ in range(max_iter):
            w = m @ v
            u = w / np.linalg.norm(w)
            z = m.T @ u
            sigma = np.linalg.norm(z)
            v = z / sigma
            if abs(sigma - sigma_prev) <= tol * max(sigma, 1.0):
                return float(sigma), u, v
            sigma_prev = sigma
        raise AssertionError("reference power iteration did not converge")

    n = m.shape[0]
    cleaned = np.array(m, dtype=float, copy=True)
    threshold = threshold_mult * math.sqrt(n)
    rng = generator(seed)
    zeroed = []
    warm = None
    for step in range(n + 1):
        sigma, u, v = triple(cleaned, child(seed, step), warm)
        if sigma < threshold:
            return cleaned, np.array(sorted(zeroed), dtype=np.intp)
        p = np.maximum(0.5 * (v * v + u * u), 0.0)
        i = int(rng.choice(n, p=p / p.sum()))
        cleaned[i, :] = 0.0
        cleaned[:, i] = 0.0
        zeroed.append(i)
        warm = v
    raise AssertionError("reference cleaning did not stop")


def test_certified_stop_zeroes_the_same_sets():
    n = 500
    certified = {}
    for strategy in STRATEGIES:
        for epsilon in (0.01, 0.03, 0.05):
            for s in range(3):
                inst = generate(n, 0.9, "uniform-random", 500 + s)
                obs, _ = corrupt(inst, epsilon, strategy, 600 + s)
                hat_a, hat_b, _, _ = reinject_noise(obs, seed=700 + s)
                for k, hat in enumerate((hat_a, hat_b)):
                    trace = []
                    cleaned, zeroed = spectral_clean(hat, seed=800 + 2 * s + k, trace=trace)
                    ref_cleaned, ref_zeroed = power_clean_reference(hat, seed=800 + 2 * s + k)
                    assert np.array_equal(zeroed, ref_zeroed)
                    assert cleaned.tobytes() == ref_cleaned.tobytes()
                    certified[strategy] = certified.get(strategy, 0) + trace[-1]["certified"]
    # the grid exercises the certified stop (42 of 72 final steps); a
    # residual spike after rank1-spike cleaning lets power iteration converge
    # first
    assert certified["zero-out"] == certified["adaptive-sign-flip"] == 18
    assert sum(certified.values()) >= 36


def scaled(m, sigma):
    return m * (sigma / float(np.linalg.norm(m, 2)))


def s8(m):
    """The Schatten-8 bound, which certificate returns when S4 cannot certify."""
    norm, bound = certificate(m, -math.inf)
    assert norm == "S8"
    return bound


def spiked(n, seed):
    m = goe(n, seed)
    v = np.random.default_rng(seed).standard_normal(n)
    v /= np.linalg.norm(v)
    return m + 30.0 * math.sqrt(n) * np.outer(v, v)


@pytest.mark.parametrize("kind", ["goe", "spiked"])
@pytest.mark.parametrize("rel", [None, 1 - 1e-6, 1 + 1e-6])
def test_bound_is_above_sigma_and_never_certifies_at_threshold(kind, rel):
    n = 300
    threshold = 10.0 * math.sqrt(n)
    for seed in range(3):
        m = goe(n, 900 + seed) if kind == "goe" else spiked(n, 900 + seed)
        if rel is not None:
            m = scaled(m, threshold * rel)
        sv = np.linalg.svd(m, compute_uv=False)
        sigma = float(sv[0])
        bound = s8(m)
        norm, s4 = certificate(m, below=math.inf)
        assert norm == "S4" and s4 == pytest.approx(float(np.sum(sv ** 4)) ** 0.25, rel=1e-12)
        assert s4 >= bound >= sigma
        if sigma >= threshold:
            # neither rung certifies at or above the threshold
            assert not preprocess.certifies(s4, threshold)
            assert not preprocess.certifies(bound, threshold)
            assert certificate(m, threshold) == ("S8", bound)
        est, _, _, _, tried = _singular_triple(m, seed=seed, below=threshold)
        assert est <= sigma * (1 + 1e-12)
        if sigma >= threshold:
            assert tried is None or not preprocess.certifies(tried[1], threshold)
            trace = []
            _, zeroed = spectral_clean(m, seed=seed, trace=trace)
            assert zeroed.size >= 1 and not trace[0]["certified"]


def test_bound_certifies_only_outside_the_margin():
    # rank one: the bound equals sigma_1 up to rounding, so only the margin
    # keeps a matrix just under the threshold from being certified
    n = 16
    threshold = 10.0 * math.sqrt(n)
    x = np.random.default_rng(5).standard_normal(n)
    y = np.random.default_rng(6).standard_normal(n)
    rank1 = np.outer(x / np.linalg.norm(x), y / np.linalg.norm(y))
    for rel, expected in ((1.0, False), (1 - 1e-10, False), (1 - 1e-8, True)):
        m = threshold * rel * rank1
        bound = s8(m)
        assert bound == pytest.approx(threshold * rel, rel=1e-13)
        assert preprocess.certifies(bound, threshold) is expected


@pytest.mark.parametrize("block_rows", [1, 7, 256])
def test_schatten8_bound_value(monkeypatch, block_rows):
    # M = Q1 diag(s) Q2^T has the bound (sum s^8)^(1/8), across block edges
    n = 30
    rng = np.random.default_rng(8)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.linspace(0.5, 3.0, n)
    monkeypatch.setattr(preprocess, "BOUND_ROWS", block_rows)
    m = q1 @ np.diag(s) @ q2.T
    assert s8(m) == pytest.approx(float(np.sum(s ** 8) ** 0.125), rel=1e-12)
    assert s8(np.zeros((5, 5))) == 0.0


@pytest.mark.parametrize("block_rows", [1, 7, 256])
@pytest.mark.parametrize("n", [5, 300])
def test_s8_equals_the_full_product_of_p(monkeypatch, block_rows, n):
    # S8 is S4 of the symmetric P = M^T M, summed by its blocks on and above
    # the diagonal; the reference forms P P whole
    monkeypatch.setattr(preprocess, "BOUND_ROWS", block_rows)
    m = np.random.default_rng(n + 1).standard_normal((n, n)) + 0.5
    p = m.T @ m
    pp = p @ p
    assert s8(m) == pytest.approx(float(np.vdot(pp, pp)) ** 0.125, rel=1e-12)


@pytest.mark.parametrize("block_rows", [1, 7, 256])
@pytest.mark.parametrize("n", [5, 300])
def test_blocked_schatten4_equals_the_full_product(monkeypatch, block_rows, n):
    # S4 sums the blocks of P = M^T M on and above the diagonal, those above
    # it twice; M is not symmetric, so P is not M M^T
    monkeypatch.setattr(preprocess, "BOUND_ROWS", block_rows)
    m = np.random.default_rng(n).standard_normal((n, n)) + 0.5
    p = m.T @ m
    want = float(np.vdot(p, p)) ** 0.25
    assert preprocess._schatten4(m) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("below, expected", [(300.0, ("S4", 240.0)), (160.0, ("S8", 120.0)),
                                             (100.0, ("S8", 120.0))])
def test_certificate_ladder(below, expected):
    # all 256 singular values equal 60: S4 = 60 * 256^(1/4) = 240 and
    # S8 = 60 * 256^(1/8) = 120; S8 is formed only when S4 does not certify,
    # and is returned when neither does
    n = 256
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))
    norm, bound = certificate(60.0 * q, below)
    assert norm == expected[0] and bound == pytest.approx(expected[1], rel=1e-12)
    assert preprocess.certifies(bound, below) is (bound < below)


def power_steps(m, seed, steps):
    """Power iteration's (sigma, u, v) after `steps` steps from seed's start."""
    v = generator(seed).standard_normal(m.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(steps):
        u = m @ v
        u /= np.linalg.norm(u)
        z = m.T @ u
        sigma = np.linalg.norm(z)
        v = z / sigma
    return sigma, u, v


def test_slow_spike_free_solve_is_certified_before_convergence():
    n = 300
    m = goe(n, 4)
    threshold = 10.0 * math.sqrt(n)
    _, _, _, full_iters = _singular_triple(m, seed=3)[:4]
    sigma, u, v, iters, (norm, bound) = _singular_triple(m, seed=3, below=threshold)
    # no gap: the changes of sigma barely contract, so the rate calls for
    # the certificate within a few iterations
    assert 3 <= iters < full_iters / 10
    # a spike-free matrix at n = 300 has S4 / threshold near 0.49
    assert norm == "S4" and bound == certificate(m, threshold)[1]
    assert preprocess.certifies(bound, threshold)
    # the returned triple is power iteration's after iters steps
    ref_sigma, ref_u, ref_v = power_steps(m, 3, iters)
    assert sigma == ref_sigma
    assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)
    # spectral_clean stops at that step with nothing zeroed
    trace = []
    cleaned, zeroed = spectral_clean(m, seed=3, trace=trace)
    assert zeroed.size == 0 and trace[0]["certified"] is True
    assert trace[0]["power_iterations"] == iters


def test_spiked_solve_below_the_threshold_converges_untried(monkeypatch):
    # a rank-one spike well above the bulk but below the threshold: the
    # changes of sigma contract fast, so converging is cheaper than an S4
    n = 300
    threshold = 10.0 * math.sqrt(n)
    x = np.random.default_rng(7).standard_normal(n)
    m = goe(n, 5) + 6.0 * math.sqrt(n) * np.outer(x, x) / float(x @ x)
    tried = []
    monkeypatch.setattr(preprocess, "certificate",
                        lambda *a: tried.append(a) or certificate(*a))
    full = _singular_triple(m, seed=2)
    sigma, u, v, iters, cert = _singular_triple(m, seed=2, below=threshold)
    assert sigma < threshold and cert is None and not tried
    assert iters == full[3] < preprocess._certificate_cost(n)
    assert sigma == full[0] and np.array_equal(u, full[1]) and np.array_equal(v, full[2])


def test_solve_never_tries_an_s4_dearer_than_every_prediction(monkeypatch):
    # the rate is the one rule: priced above every prediction, the slow
    # solve never tries and converges as power iteration alone does
    monkeypatch.setattr(preprocess, "_certificate_cost", lambda n: math.inf)
    tried = []
    monkeypatch.setattr(preprocess, "certificate",
                        lambda m, below, *rungs: tried.append(below) or certificate(m, below, *rungs))
    n = 300
    m = goe(n, 4)
    full = _singular_triple(m, seed=3)
    sigma, u, v, iters, cert = _singular_triple(m, seed=3, below=10.0 * math.sqrt(n))
    assert cert is None and not tried
    assert (sigma, iters) == (full[0], full[3])
    assert np.array_equal(u, full[1]) and np.array_equal(v, full[2])


def test_solve_tries_where_the_prediction_first_exceeds_the_price(monkeypatch):
    # price an S4 at the largest prediction of iterations 3-40: the solve
    # tries at the first later iteration whose prediction exceeds it,
    # however late that is
    n = 300
    m = goe(n, 8)
    threshold = 10.0 * math.sqrt(n)
    predictions = []
    left = preprocess._iterations_left
    monkeypatch.setattr(preprocess, "_iterations_left",
                        lambda *a: predictions.append(left(*a)) or predictions[-1])
    monkeypatch.setattr(preprocess, "_certificate_cost", lambda n: math.inf)
    _singular_triple(m, seed=3, below=threshold)
    # one prediction per iteration from the third on
    price = max(predictions[:38])
    first = next(it for it, p in enumerate(predictions, start=3) if p > price)
    assert first > 40
    monkeypatch.setattr(preprocess, "_certificate_cost", lambda n: price)
    tried = []
    monkeypatch.setattr(preprocess, "certificate",
                        lambda m, below, *rungs: tried.append(below) or certificate(m, below, *rungs))
    sigma, u, v, iters, (norm, bound) = _singular_triple(m, seed=3, below=threshold)
    assert iters == first and tried == [threshold]
    assert norm == "S4" and preprocess.certifies(bound, threshold)
    ref_sigma, ref_u, ref_v = power_steps(m, 3, first)
    assert sigma == ref_sigma
    assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)


def test_a_failed_try_is_not_repeated(monkeypatch):
    # below sits just above sigma_1, so the rate calls for tries that no
    # rung can certify; each rung is tried once, S4 before S8, and the
    # solve then runs on to convergence untried
    tried = []
    monkeypatch.setattr(preprocess, "certificate",
                        lambda m, below, rungs: tried.extend(rungs) or certificate(m, below, rungs))
    m = goe(300, 4)
    top = float(np.linalg.norm(m, 2))
    full = _singular_triple(m, seed=3)
    sigma, _, _, iters, (norm, bound) = _singular_triple(m, seed=3, below=top * 1.01)
    assert tried == ["S4", "S8"] and norm == "S8" and bound > top * 1.01
    assert (sigma, iters) == (full[0], full[3])


def test_a_failed_s4_with_a_short_tail_converges_without_forming_p(monkeypatch):
    # two spikes below the threshold, at 0.99 and 0.7 of it: S4 sums both
    # and fails, and the changes of sigma contract by about (0.7 / 0.99)^2
    # a step, so at the S4 try the predicted tail is shorter than an S8
    # costs; the solve converges and never forms P = M^T M
    n = 300
    threshold = 10.0 * math.sqrt(n)
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((n, 2)))
    m = goe(n, 5) + threshold * (0.99 * np.outer(q[:, 0], q[:, 0])
                                 + 0.7 * np.outer(q[:, 1], q[:, 1]))
    of_m = []
    schatten4 = preprocess._schatten4
    monkeypatch.setattr(preprocess, "_schatten4", lambda x: of_m.append(x is m) or schatten4(x))
    full = _singular_triple(m, seed=2)
    sigma, u, v, iters, (norm, bound) = _singular_triple(m, seed=2, below=threshold)
    assert norm == "S4" and not preprocess.certifies(bound, threshold)
    assert of_m == [True]   # the S4 of M itself, and no S4 of P
    assert (sigma, iters) == (full[0], full[3]) and sigma < threshold
    assert np.array_equal(u, full[1]) and np.array_equal(v, full[2])


def test_a_rising_estimate_tries_s4_but_never_forms_p(monkeypatch):
    # a spike just above `below` and a start vector nearly orthogonal to it:
    # the changes of sigma grow while the estimate climbs through `below`,
    # so the solve predicts no tail; it tries S4, which fails, and never
    # forms P = M^T M for S8
    n = 300
    q = np.random.default_rng(7).standard_normal(n)
    q /= np.linalg.norm(q)
    m = goe(n, 5) + 55.0 * np.outer(q, q)
    below = 0.99 * float(np.linalg.norm(m, 2))
    v0 = np.random.default_rng(8).standard_normal(n)
    v0 -= (v0 @ q) * q
    v0 = v0 / np.linalg.norm(v0) + 0.01 * q
    of_m, left = [], []
    schatten4, iterations_left = preprocess._schatten4, preprocess._iterations_left
    monkeypatch.setattr(preprocess, "_schatten4", lambda x: of_m.append(x is m) or schatten4(x))
    monkeypatch.setattr(preprocess, "_iterations_left",
                        lambda *a: left.append(iterations_left(*a)) or left[-1])
    full = _singular_triple(m, v0=v0)
    sigma, u, v, iters, (norm, bound) = _singular_triple(m, v0=v0, below=below)
    assert left[0] == math.inf     # the try, at the third iteration
    assert norm == "S4" and not preprocess.certifies(bound, below)
    assert of_m == [True]   # the S4 of M itself, and no S4 of P
    assert (sigma, iters) == (full[0], full[3]) and sigma > below
    assert np.array_equal(u, full[1]) and np.array_equal(v, full[2])
