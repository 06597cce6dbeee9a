"""Spectral subroutine tests: frame construction, sign sampling, round updates."""

import math

import numpy as np
import pytest

from wigmatch import spectral
from wigmatch.denoiser import make_denoiser, phi_map, phi_second_deriv_at_zero
from wigmatch.errors import ParameterError, SpectralDeficiencyError
from wigmatch.rng import child
from wigmatch.spectral import (RoundMatrices, SpectralStep, build_xi, generalized_eigh,
                               initial_round, sample_beta, sample_sign_matrix,
                               update_round)

D = make_denoiser(1.0)


# ------------------------------------------------------------- build_xi


def test_initial_round_satisfies_assumption():
    rm = initial_round(24, 0.3)
    n_phi, n_psi = rm.window_counts()
    assert n_phi == 24 and n_psi == 24
    assert rm.assumption_holds()


def test_xi_isotropic_case():
    rm = initial_round(24, 0.3)
    xi = build_xi(rm)
    assert xi.shape == (24, 2)
    assert np.linalg.norm(xi.T @ rm.phi @ xi - np.eye(2)) <= 1e-8
    proj = xi.T @ rm.psi @ xi
    off = proj - np.diag(np.diag(proj))
    assert np.abs(off).max() <= 1e-8
    assert np.all((np.diag(proj) > 0.27) & (np.diag(proj) < 0.33))


@pytest.mark.parametrize("k", [1, 3, 8, 20, 50])
def test_generalized_eigh_matches_scipy(k):
    from scipy import linalg as sla

    rng = np.random.default_rng(k)
    for _ in range(10):
        a = rng.standard_normal((k, k))
        a = (a + a.T) / 2.0
        m = rng.standard_normal((k, k))
        b = m @ m.T + 0.5 * np.eye(k)
        mu, x = generalized_eigh(a, b)
        mu_ref = sla.eigh(a, b, eigvals_only=True)
        assert np.abs(mu - mu_ref).max() <= 1e-12 * np.abs(mu_ref).max()
        assert np.abs(x.T @ b @ x - np.eye(k)).max() <= 1e-12
        assert np.abs(a @ x - b @ x * mu).max() <= 1e-12 * np.abs(a @ x).max()


@pytest.mark.parametrize("k0", [12, 24, 36, 48])
def test_initial_frame_is_byte_equal_to_the_scipy_solve(k0, monkeypatch):
    # a run's default frame is round 0's: the Cholesky reduction must give
    # the frame scipy.linalg.eigh(a, b) gave, to the last bit
    from scipy import linalg as sla

    rm = initial_round(k0, phi_map(D, 0.9 / 2.0))
    xi = build_xi(rm)
    monkeypatch.setattr(spectral, "generalized_eigh", sla.eigh)
    assert xi.tobytes() == build_xi(rm).tobytes()


def test_xi_avoids_bad_quarter():
    # last quarter of the spectrum far outside the window gets zero weight
    k = 24
    diag_phi = np.array([1.0] * 18 + [0.01] * 6)
    eps = 0.3
    rm = RoundMatrices(phi=np.diag(diag_phi), psi=np.diag(eps * diag_phi),
                       eps_t=eps, k_t=k)
    xi = build_xi(rm)
    assert np.abs(xi[18:, :]).max() <= 1e-6
    assert np.linalg.norm(xi.T @ rm.phi @ xi - np.eye(2)) <= 1e-8


def test_xi_deficiency_raises_with_diagnostics():
    k = 24
    diag_phi = np.array([1.0] * 17 + [0.01] * 7)  # one good vector short
    rm = RoundMatrices(phi=np.diag(diag_phi), psi=0.3 * np.diag(diag_phi),
                       eps_t=0.3, k_t=k)
    with pytest.raises(SpectralDeficiencyError, match=r"counts \(17, 17\) .* at K = 24"):
        build_xi(rm)


def test_xi_on_perturbed_valid_pair():
    # near-identity pair as produced by an accepted asymptotic round
    rng = np.random.default_rng(0)
    k, eps = 36, 0.2
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    phi = q @ np.diag(1.0 + 0.05 * rng.uniform(-1, 1, k)) @ q.T
    psi = q @ np.diag(eps * (1.0 + 0.05 * rng.uniform(-1, 1, k))) @ q.T
    rm = RoundMatrices(phi=(phi + phi.T) / 2, psi=(psi + psi.T) / 2, eps_t=eps, k_t=k)
    xi = build_xi(rm)
    assert xi.shape == (k, 3)
    assert np.linalg.norm(xi.T @ rm.phi @ xi - np.eye(3)) <= 1e-8
    proj = xi.T @ rm.psi @ xi
    assert np.abs(proj - np.diag(np.diag(proj))).max() <= 1e-8
    assert np.all((np.diag(proj) > 0.9 * eps) & (np.diag(proj) < 1.1 * eps))


# --------------------------------------------------------- sign sampling


@pytest.mark.parametrize("k,k_next", [(24, 96), (96, 384)])
def test_sign_matrix_entries_and_columns(k, k_next):
    d = k // 12
    beta = sample_sign_matrix(d, k_next, seed=3)
    assert beta.shape == (d, k_next)
    # entries are +-sqrt(12/K) when 12 divides K
    assert np.allclose(np.abs(beta), math.sqrt(12.0 / k), atol=1e-15)
    norms = np.linalg.norm(beta, axis=0)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_sign_matrix_gram_max_offdiagonal():
    # Oracle-frozen: at d = 128 the max |<b_i, b_j>| over 4096 columns
    # concentrates near sqrt(2 log(K'^2) / d) ~ 0.51 (measured q95 ~ 0.50).
    maxes = []
    for s in range(10):
        beta = sample_sign_matrix(128, 4096, seed=s)
        gram = beta.T @ beta
        np.fill_diagonal(gram, 0.0)
        maxes.append(np.abs(gram).max())
    assert np.quantile(maxes, 0.95) <= 0.55
    assert np.median(maxes) >= 0.40


# ----------------------------------------------------------- update_round


def test_update_diagonal_is_phi_of_one():
    rm = initial_round(24, 0.3)
    xi = build_xi(rm)
    beta = sample_sign_matrix(2, 96, seed=1)
    rm_next, clamps = update_round(rm, xi, beta, D, rho=0.8)
    assert np.allclose(np.diag(rm_next.phi), phi_map(D, 1.0), atol=1e-12)
    assert np.array_equal(rm_next.phi, rm_next.phi.T)
    assert np.array_equal(rm_next.psi, rm_next.psi.T)
    assert clamps == 0


def test_update_eps_recursion_exact_for_isotropic_psi():
    rho, eps = 0.8, 0.3
    rm = initial_round(24, eps)
    xi = build_xi(rm)
    beta = sample_sign_matrix(2, 96, seed=2)
    eps_next = update_round(rm, xi, beta, D, rho=rho)[0].eps_t
    assert eps_next == pytest.approx(phi_map(D, rho * eps / 2.0), abs=1e-12)
    # Taylor lower bound on the signal recursion
    assert eps_next >= rho ** 2 * phi_second_deriv_at_zero(D) / 16.0 * eps ** 2


def test_update_psi_diagonal_equals_eps_next():
    # beta columns have constant squared entries, so the Psi' diagonal is
    # exactly the recursion value
    rm = initial_round(36, 0.25)
    xi = build_xi(rm)
    beta = sample_sign_matrix(3, 144, seed=4)
    rm_next, _ = update_round(rm, xi, beta, D, rho=0.7)
    assert np.allclose(np.diag(rm_next.psi), rm_next.eps_t, atol=1e-12)


def test_update_clamps_out_of_range_arguments():
    rm = initial_round(24, 0.3)
    xi = build_xi(rm)
    beta = 2.0 * sample_sign_matrix(2, 96, seed=5)   # norm-2 columns
    rm_next, clamps = update_round(rm, xi, beta, D, rho=0.8)
    assert clamps > 0
    assert np.abs(rm_next.phi).max() <= phi_map(D, 1.0) + 1e-12


def test_update_dimension_check():
    rm = initial_round(24, 0.3)
    xi = build_xi(rm)
    with pytest.raises(ParameterError):
        update_round(rm, xi, sample_sign_matrix(3, 96, seed=1), D, 0.8)


# ------------------------------------------------------------ sample_beta


def test_sample_beta_validator_hook_counts_resamples():
    rm = initial_round(24, 0.3)
    xi = build_xi(rm)
    calls = {"n": 0}

    def every_third(cand):
        calls["n"] += 1
        return calls["n"] % 3 == 0

    step = sample_beta(rm, xi, 96, D, rho=0.8, seed=0, validator=every_third)
    assert step.accepted
    assert step.resamples == 2
    assert np.abs(np.linalg.norm(step.beta, axis=0) - 1.0).max() <= 1e-12


def test_sample_beta_refuses_the_strict_mode():
    rm = initial_round(24, 0.3)
    xi = build_xi(rm)
    with pytest.raises(ParameterError, match="sampling mode"):
        sample_beta(rm, xi, 96, D, rho=0.8, seed=0, max_resamples=5,
                    mode="strict", validator=lambda c: False)


def test_sample_beta_refuses_a_negative_resample_cap():
    # max_resamples + 1 draws: a cap below 0 would draw none and keep none
    rm = initial_round(24, 0.3)
    xi = build_xi(rm)
    with pytest.raises(ParameterError, match="max_resamples must be >= 0, got -1"):
        sample_beta(rm, xi, 96, D, rho=0.8, seed=0, max_resamples=-1)
    assert sample_beta(rm, xi, 96, D, rho=0.8, seed=0, max_resamples=0).resamples == 1


def test_sample_beta_record_mode_returns_best():
    rm = initial_round(24, 0.3)
    xi = build_xi(rm)
    step = sample_beta(rm, xi, 96, D, rho=0.8, seed=0, max_resamples=5,
                       mode="record", validator=lambda c: False)
    assert not step.accepted
    assert step.resamples == 6
    assert step.next_rm.k_t == 96


def test_sample_beta_desk_scale_window_is_unattainable():
    # sign vectors in d = 2 dimensions form two +-classes and the map sends
    # +-1 Gram entries to 1, so the grown matrix is two all-ones blocks with
    # eigenvalues ~ {K/2, K/2, 0...}: the windows are structurally impossible
    rm = initial_round(24, 0.3)
    xi = build_xi(rm)
    step = sample_beta(rm, xi, 96, D, rho=0.8, seed=0, max_resamples=16, mode="record")
    assert not step.accepted
    n_phi, n_psi = step.next_rm.window_counts()
    assert n_phi < math.ceil(0.75 * 96)


def test_sample_beta_deterministic():
    rm = initial_round(24, 0.3)
    xi = build_xi(rm)
    s1 = sample_beta(rm, xi, 96, D, rho=0.8, seed=42, mode="record", max_resamples=3)
    s2 = sample_beta(rm, xi, 96, D, rho=0.8, seed=42, mode="record", max_resamples=3)
    assert np.array_equal(s1.beta, s2.beta)


def _reference_sample_beta(rm, xi, k_next, d, rho, seed, max_resamples, validator=None):
    """sample_beta as first written: the window counts are recomputed for
    the best-candidate score after the default acceptance has computed them."""
    if validator is None:
        validator = lambda cand: cand.assumption_holds()
    dim = xi.shape[1]
    best = None
    best_score = -1
    for attempt in range(max_resamples + 1):
        beta = sample_sign_matrix(dim, k_next, child(seed, attempt))
        rm_next, clamps = update_round(rm, xi, beta, d, rho)
        if validator(rm_next):
            return SpectralStep(xi=xi, beta=beta, resamples=attempt, accepted=True,
                                clamp_count=clamps, next_rm=rm_next,
                                window_counts=rm_next.window_counts())
        n_phi, n_psi = rm_next.window_counts()
        if n_phi + n_psi > best_score:
            best_score = n_phi + n_psi
            best = SpectralStep(xi=xi, beta=beta, resamples=max_resamples + 1,
                                accepted=False, clamp_count=clamps,
                                next_rm=rm_next, window_counts=(n_phi, n_psi))
    return best


def _assert_same_step(got, want):
    assert got.resamples == want.resamples
    assert got.accepted == want.accepted
    assert got.clamp_count == want.clamp_count
    assert got.window_counts == want.window_counts == got.next_rm.window_counts()
    assert np.array_equal(got.beta, want.beta)
    assert np.array_equal(got.xi, want.xi)
    assert np.array_equal(got.next_rm.phi, want.next_rm.phi)
    assert np.array_equal(got.next_rm.psi, want.next_rm.psi)
    assert got.next_rm.eps_t == want.next_rm.eps_t
    assert got.next_rm.k_t == want.next_rm.k_t


# K = 120 -> 4 accepts after some rejections on some seeds and exhausts
# 9 draws on others; 24 -> 96 is the desk case, where every draw fails.
@pytest.mark.parametrize("k, k_next, seed", [(120, 4, s) for s in range(8)]
                         + [(24, 96, 0), (24, 96, 5)])
def test_sample_beta_matches_reference_loop(k, k_next, seed):
    rm = initial_round(k, 0.3)
    xi = build_xi(rm)
    kw = dict(rho=0.8, seed=seed, max_resamples=8)
    want = _reference_sample_beta(rm, xi, k_next, D, **kw)
    _assert_same_step(sample_beta(rm, xi, k_next, D, **kw), want)


def test_sample_beta_validator_decides_acceptance():
    # a custom validator overrides the windows in both directions
    rm = initial_round(120, 0.3)
    xi = build_xi(rm)

    def every_fourth():
        calls = {"n": 0}

        def check(cand):
            calls["n"] += 1
            return calls["n"] % 4 == 0
        return check

    # the windows reject every draw of 120 -> 24 and accept one of 120 -> 4
    kw = dict(rho=0.8, seed=0, max_resamples=8)
    want = _reference_sample_beta(rm, xi, 24, D, validator=every_fourth(), **kw)
    got = sample_beta(rm, xi, 24, D, validator=every_fourth(), **kw)
    assert got.accepted and got.resamples == 3
    _assert_same_step(got, want)
    assert sample_beta(rm, xi, 4, D, **kw).accepted
    never = sample_beta(rm, xi, 4, D, **kw, validator=lambda c: False)
    assert not never.accepted and never.resamples == 9
