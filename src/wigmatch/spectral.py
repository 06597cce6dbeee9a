"""Per-round spectral subroutine.

Each round carries a pair of K_t x K_t symmetric matrices (Phi, Psi) that
predict the Gram structure of the AMP iterates.  The subroutine:

  1. builds Xi, a K_t x d frame (d = K_t // XI_FACTOR) that is
     Phi-orthonormal and Psi-diagonalising, from eigenvectors whose
     eigenvalues fall in the windows (0.9, 1.1) and (0.9 eps, 1.1 eps);
  2. samples a d x K_{t+1} sign matrix beta with unit columns;
  3. maps (Phi, Psi, eps) forward entrywise through the correlation map.

A sampled beta is accepted only if the updated pair keeps at least
ceil(3 K/4) eigenvalues inside the windows; otherwise beta is resampled.
At asymptotic K acceptance happens within a couple of tries.  At small K
the condition is unattainable: concentration of the mapped Gram matrix
needs K_{t+1} well below (K_t/12)^2 / 1000, which no growing schedule
satisfies, so once the draws run out the best candidate is kept and the
violation recorded instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .denoiser import Denoiser, phi_map
from .errors import ParameterError, SpectralDeficiencyError
from .rng import child, generator

PHI_WINDOW = (0.9, 1.1)
INTERSECT_TOL = 1e-8
XI_FACTOR = 12      # a round's frame has K_t // XI_FACTOR columns


@dataclass(frozen=True)
class RoundMatrices:
    phi: np.ndarray
    psi: np.ndarray
    eps_t: float
    k_t: int

    def window_counts(self) -> tuple[int, int]:
        lo, hi = PHI_WINDOW
        ev_phi = np.linalg.eigvalsh(self.phi)
        ev_psi = np.linalg.eigvalsh(self.psi)
        n_phi = int(np.count_nonzero((ev_phi > lo) & (ev_phi < hi)))
        n_psi = int(np.count_nonzero((ev_psi > lo * self.eps_t) & (ev_psi < hi * self.eps_t)))
        return n_phi, n_psi

    def assumption_holds(self) -> bool:
        return _windows_hold(self.window_counts(), self.k_t)


def _windows_hold(counts: tuple[int, int], k: int) -> bool:
    """Both in-window eigenvalue counts reach ceil(3K/4)."""
    need = math.ceil(0.75 * k)
    return counts[0] >= need and counts[1] >= need


@dataclass(frozen=True)
class SpectralStep:
    xi: np.ndarray
    beta: np.ndarray
    resamples: int
    accepted: bool           # candidate satisfied the eigenvalue windows
    clamp_count: int         # correlation-map arguments clamped to [-1, 1]
    next_rm: RoundMatrices
    eps_next: float


def initial_round(k0: int, eps0: float) -> RoundMatrices:
    """Phi = I, Psi = eps0 I."""
    return RoundMatrices(phi=np.eye(k0), psi=eps0 * np.eye(k0), eps_t=float(eps0), k_t=int(k0))


def _window_eigvecs(m: np.ndarray, lo: float, hi: float):
    """All eigenvalues of m, and the eigenvectors whose values lie in (lo, hi)."""
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs[:, (vals > lo) & (vals < hi)]


def frame_width(k_t: int) -> int:
    """d, the number of columns of a round's frame Xi: K_t // XI_FACTOR, at least 1."""
    return max(1, k_t // XI_FACTOR)


def generalized_eigh(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues mu (ascending) and b-orthonormal x of a x = mu b x, for
    symmetric a and symmetric positive definite b.

    Cholesky reduction (Golub and Van Loan, Matrix Computations, 8.7):
    b = L L^T, solve the symmetric problem C y = mu y with C = L^-1 a L^-T,
    then back-substitute x = L^-T y, so x^T b x = y^T y = I.
    """
    low = np.linalg.cholesky(b)
    mu, y = np.linalg.eigh(np.linalg.solve(low, np.linalg.solve(low, a).T))
    return mu, np.linalg.solve(low.T, y)


def build_xi(rm: RoundMatrices) -> np.ndarray:
    """Frame Xi with Xi^T Phi Xi = I and Xi^T Psi Xi diagonal in the window.

    Construction: intersect the spans of the good eigenvectors of Phi and of
    Psi via principal angles, then solve the generalised eigenproblem
    (W^T Psi W) x = mu (W^T Phi W) x inside the intersection by Cholesky
    reduction (generalized_eigh) and keep d Ritz directions whose values
    fall in (0.9 eps, 1.1 eps), closest to eps first.  Raises
    SpectralDeficiencyError when the good sets, the intersection, or the
    in-window Ritz set are too small.
    """
    k = rm.k_t
    d = frame_width(k)
    need = math.ceil(0.75 * k)
    lo, hi = PHI_WINDOW
    ev_phi, u_good = _window_eigvecs(rm.phi, lo, hi)
    ev_psi, v_good = _window_eigvecs(rm.psi, lo * rm.eps_t, hi * rm.eps_t)
    diag = {"k_t": k, "d": d, "phi_good": u_good.shape[1], "psi_good": v_good.shape[1],
            "phi_eigvals": ev_phi.tolist(), "psi_eigvals": ev_psi.tolist()}
    if u_good.shape[1] < need or v_good.shape[1] < need:
        raise SpectralDeficiencyError(
            f"window eigenvector counts ({u_good.shape[1]}, {v_good.shape[1]}) "
            f"below ceil(3K/4) = {need} at K = {k}", diag)
    # principal angles: singular values ~ 1 mark common directions
    prod = u_good.T @ v_good
    uu, sv, _ = np.linalg.svd(prod)
    take = sv >= 1.0 - INTERSECT_TOL
    if int(take.sum()) < d:
        diag["intersection_dim"] = int(take.sum())
        raise SpectralDeficiencyError(
            f"span intersection has dimension {int(take.sum())} < d = {d}", diag)
    w = u_good @ uu[:, take]          # orthonormal basis of the intersection
    a = w.T @ rm.psi @ w
    b = w.T @ rm.phi @ w
    mu, x = generalized_eigh((a + a.T) / 2.0, (b + b.T) / 2.0)   # x is b-orthonormal
    in_window = np.flatnonzero((mu > lo * rm.eps_t) & (mu < hi * rm.eps_t))
    if in_window.size < d:
        diag["ritz_in_window"] = int(in_window.size)
        diag["ritz_values"] = mu.tolist()
        raise SpectralDeficiencyError(
            f"only {in_window.size} Ritz values inside (0.9 eps, 1.1 eps), need {d}", diag)
    order = in_window[np.argsort(np.abs(mu[in_window] - rm.eps_t), kind="stable")]
    sel = np.sort(order[:d])
    return w @ x[:, sel]


def sample_sign_matrix(d: int, k_next: int, seed: int) -> np.ndarray:
    """d x k_next matrix of i.i.d. signs scaled to give unit columns.

    Entries are +-1/sqrt(d), which equals the nominal +-sqrt(XI_FACTOR/K_t)
    whenever XI_FACTOR divides K_t.
    """
    rng = generator(seed)
    return rng.choice(np.array([-1.0, 1.0]), size=(d, k_next)) / math.sqrt(d)


def update_round(rm: RoundMatrices, xi: np.ndarray, beta: np.ndarray,
                 d: Denoiser, rho: float):
    """Map (Phi, Psi, eps) one round forward.

        Phi'[i, j] = phi(beta_i . beta_j)
        Psi'[i, j] = phi(rho/2 * beta_i^T (Xi^T Psi Xi) beta_j)
        eps'       = phi(rho/2 * (XI_FACTOR/K_t) tr(Xi^T Psi Xi))

    Correlation-map arguments outside [-1, 1] are clamped and counted.
    Returns (next RoundMatrices, eps_next, clamp_count).
    """
    if xi.shape[0] != rm.k_t or beta.shape[0] != xi.shape[1]:
        raise ParameterError("xi and beta dimensions inconsistent with the round")
    proj = xi.T @ rm.psi @ xi
    gram = beta.T @ beta
    args_phi = np.clip(gram, -1.0, 1.0)
    args_psi_raw = (rho / 2.0) * (beta.T @ proj @ beta)
    args_psi = np.clip(args_psi_raw, -1.0, 1.0)
    clamps = int(np.count_nonzero(np.abs(gram) > 1.0 + 1e-12)
                 + np.count_nonzero(np.abs(args_psi_raw) > 1.0 + 1e-12))
    phi_next = phi_map(d, args_phi)
    psi_next = phi_map(d, args_psi)
    phi_next = (phi_next + phi_next.T) / 2.0
    psi_next = (psi_next + psi_next.T) / 2.0
    eps_next = float(phi_map(d, np.clip(rho / 2.0 * (XI_FACTOR / rm.k_t) * np.trace(proj),
                                        -1.0, 1.0)))
    k_next = beta.shape[1]
    rm_next = RoundMatrices(phi=phi_next, psi=psi_next, eps_t=eps_next, k_t=k_next)
    return rm_next, eps_next, clamps


def sample_beta(rm: RoundMatrices, xi: np.ndarray, k_next: int, d: Denoiser,
                rho: float, seed: int, max_resamples: int = 64,
                mode: str = "record", validator=None) -> SpectralStep:
    """Sample beta, resampling until the updated pair meets the windows.

    When max_resamples + 1 draws all fail, the best candidate (largest
    in-window eigenvalue count) is returned flagged accepted=False.  mode
    accepts only "record", the one policy.  validator overrides the
    acceptance predicate (testing hook); default is the eigenvalue-window
    condition on the candidate round.
    """
    if mode != "record":
        raise ParameterError(f"unknown sampling mode {mode!r}")
    dim = xi.shape[1]
    best = best_counts = None
    for attempt in range(max_resamples + 1):
        beta = sample_sign_matrix(dim, k_next, child(seed, attempt))
        rm_next, eps_next, clamps = update_round(rm, xi, beta, d, rho)
        counts = rm_next.window_counts()
        ok = validator(rm_next) if validator is not None else _windows_hold(counts, k_next)
        if ok:
            return SpectralStep(xi=xi, beta=beta, resamples=attempt, accepted=True,
                                clamp_count=clamps, next_rm=rm_next, eps_next=eps_next)
        if best is None or sum(counts) > sum(best_counts):
            best_counts = counts
            best = SpectralStep(xi=xi, beta=beta, resamples=max_resamples + 1,
                                accepted=False, clamp_count=clamps,
                                next_rm=rm_next, eps_next=eps_next)
    return best
