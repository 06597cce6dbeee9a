"""Vector AMP iteration over a cleaned pair.

Starting from seed columns, each round applies one linear step through the
cleaned matrices and one entrywise denoiser step:

    h = (1/sqrt(n)) A_sub (f Xi),      l = (1/sqrt(n)) B_sub (g Xi)
    f' = varphi(h beta),               g' = varphi(l beta)

with A_sub, B_sub the cleaned matrices restricted to the non-seed rows and
columns.  A_sub x is the non-seed rows of A x~, where x~ is x with zero
rows at the seeds, so every caller multiplies by the cleaned pair where it
lies, neither moving nor copying it.  There is no Onsager correction; the
frame construction makes the cross-round correlation negligible.  A round
whose frame cannot be built ends the loop as a recorded spectral stop, and
a round whose beta draws all fail the eigenvalue windows goes on with the
best draw, recorded as not accepted; a run is never ended by the spectral
subroutine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .denoiser import Denoiser, Schedule, phi_second_deriv_at_zero
from .errors import NumericalError, ParameterError, SpectralDeficiencyError
from .preprocess import CleanedPair
from .rng import child
from .spectral import (XI_FACTOR, RoundMatrices, SpectralStep, build_xi, frame_width,
                       initial_round, sample_beta)


@dataclass(frozen=True)
class SeedPair:
    u_seq: np.ndarray
    v_seq: np.ndarray
    goodness: bool | None = None

    def __post_init__(self):
        u = np.asarray(self.u_seq)
        v = np.asarray(self.v_seq)
        if u.size != v.size:
            raise ParameterError("seed sequences must have equal length")
        if len(set(u.tolist())) != u.size or len(set(v.tolist())) != v.size:
            raise ParameterError("seed entries must be distinct within each sequence")

    @property
    def k0(self) -> int:
        return int(np.asarray(self.u_seq).size)


def good_seed_pair(pi_star: np.ndarray, k0: int, exclude_u=(), exclude_v=()) -> SeedPair:
    """Oracle seeds: the first k0 vertices u with u untouched and pi*(u) untouched.

    exclude_u is Q union S, exclude_v is R union T.  Deterministic given the
    instance and corruption, so runs replay exactly.
    """
    if k0 < 1:
        raise ParameterError(f"a seed pair needs k0 >= 1, got k0={k0}")
    bad_u = set(int(i) for i in exclude_u)
    bad_v = set(int(i) for i in exclude_v)
    us = []
    for u in range(len(pi_star)):
        v = int(pi_star[u])
        if u not in bad_u and v not in bad_v:
            us.append(u)
            if len(us) == k0:
                break
    if len(us) < k0:
        raise ParameterError(f"cannot find {k0} clean seed vertices")
    us = np.array(us, dtype=np.intp)
    return SeedPair(u_seq=us, v_seq=pi_star[us].astype(np.intp), goodness=True)


def bad_seed_pair(pi_star: np.ndarray, k0: int, seed: int) -> SeedPair:
    """Negative control: the first k0 vertices u of pi_star, images deranged.

    The u's are those of good_seed_pair(pi_star, k0) with no Q union S /
    R union T exclusions, so they can differ from the oracle pair's and can
    include corrupted or zeroed vertices.  The images pi_star(u) are
    permuted by a random derangement drawn from seed.
    """
    if k0 < 2:
        raise ParameterError(f"a bad seed pair needs k0 >= 2 to derange, got k0={k0}")
    good = good_seed_pair(pi_star, k0)
    rng = np.random.default_rng(seed)
    v = good.v_seq.copy()
    while True:
        perm = rng.permutation(k0)
        if not np.any(perm == np.arange(k0)):
            break
    return SeedPair(u_seq=good.u_seq, v_seq=v[perm], goodness=False)


@dataclass
class AmpIterate:
    f: np.ndarray
    g: np.ndarray
    h: np.ndarray | None
    l: np.ndarray | None
    t: int
    rows_i: np.ndarray   # [n] minus the u-seeds, in increasing order
    rows_j: np.ndarray


@dataclass
class RoundLog:
    t: int
    k_t: int
    d: int
    eps_t: float
    resamples: int | None = None
    accepted: bool | None = None
    clamp_count: int | None = None
    window_phi: int | None = None
    window_psi: int | None = None
    xi_ortho_err: float | None = None
    psi_diag_min: float | None = None
    psi_diag_max: float | None = None
    eps_lower_bound_ok: bool | None = None
    wall_s: float = 0.0


@dataclass
class AmpResult:
    iterate: AmpIterate
    rounds: list[RoundLog]
    stopped_reason: str             # "t_star", "min_rounds", "spectral"
    round_history: list[RoundMatrices]


def _non_seed_rows(n: int, seeds: SeedPair) -> tuple[np.ndarray, np.ndarray]:
    """rows_i = [n] minus the u-seeds and rows_j = [n] minus the v-seeds,
    each in increasing order."""
    u = np.asarray(seeds.u_seq, dtype=np.intp)
    v = np.asarray(seeds.v_seq, dtype=np.intp)
    if u.size and (u.max() >= n or u.min() < 0 or v.max() >= n or v.min() < 0):
        raise ParameterError("seed indices out of range")
    return np.setdiff1d(np.arange(n), u), np.setdiff1d(np.arange(n), v)


def init_iterate(cp: CleanedPair, seeds: SeedPair, d: Denoiser) -> AmpIterate:
    """f0[i, k] = varphi(A_clean[i, u_k]) on non-seed rows; likewise g0."""
    rows_i, rows_j = _non_seed_rows(cp.n, seeds)
    return AmpIterate(f=d(cp.a_clean[np.ix_(rows_i, seeds.u_seq)]),
                      g=d(cp.b_clean[np.ix_(rows_j, seeds.v_seq)]), h=None, l=None, t=0,
                      rows_i=rows_i, rows_j=rows_j)


def linear_step(it: AmpIterate, cp: CleanedPair, xi: np.ndarray):
    """h = (1/sqrt(n)) A_sub f Xi and l = (1/sqrt(n)) B_sub g Xi.  A_sub x is
    read as the rows_i rows of A x~, with x~ equal to x on rows_i and zero on
    the u-seeds, so the pair is neither moved nor copied."""

    def sub_product(mat: np.ndarray, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        padded = np.zeros((cp.n, x.shape[1]))
        padded[rows] = x
        return (mat @ padded)[rows] / math.sqrt(cp.n)

    h = sub_product(cp.a_clean, it.rows_i, it.f @ xi)
    l = sub_product(cp.b_clean, it.rows_j, it.g @ xi)
    if not (np.isfinite(h).all() and np.isfinite(l).all()):
        raise NumericalError(f"non-finite values in the linear step at round {it.t}")
    return h, l


def amp_round(it: AmpIterate, cp: CleanedPair, step: SpectralStep, d: Denoiser) -> AmpIterate:
    """One full round: linear step with step.xi, then denoise through step.beta."""
    h, l = linear_step(it, cp, step.xi)
    return AmpIterate(f=d(h @ step.beta), g=d(l @ step.beta), h=h, l=l, t=it.t + 1,
                      rows_i=it.rows_i, rows_j=it.rows_j)


def run_amp(cp: CleanedPair, seeds: SeedPair, sched: Schedule, d: Denoiser,
            min_rounds: int = 2, beta_seed: int = 0, xi_factor: int = XI_FACTOR,
            max_resamples: int = 64, spectral_mode: str = "record") -> AmpResult:
    """Iterate through round max(t_star, min_rounds).

    The returned iterate carries the last computed (h, l); those drive the
    assignment stage.  A round whose frame cannot be built stops the loop
    gracefully with the stop recorded, and a round whose beta draws all fail
    keeps the best one with the violation recorded.  spectral_mode accepts
    only "record", the one policy, and xi_factor only XI_FACTOR, the frame
    factor that spectral applies.  seeds must have the schedule's k0.  cp
    is read where it lies and left unchanged (see linear_step).
    """
    if spectral_mode != "record":
        raise ParameterError(f"unknown spectral mode {spectral_mode!r}")
    if xi_factor != XI_FACTOR:
        raise ParameterError(f"xi_factor must be {XI_FACTOR}, got {xi_factor!r}")
    if seeds.k0 != sched.k0:
        raise ParameterError(f"the seed pair has k0={seeds.k0} but the schedule "
                             f"has k0={sched.k0}")
    t_target = max(sched.t_star, min_rounds)
    rm = initial_round(sched.k0, sched.eps0)
    it = init_iterate(cp, seeds, d)
    logs: list[RoundLog] = []
    history = [rm]
    pp_rho = None
    stopped = "t_star" if t_target == sched.t_star else "min_rounds"
    for t in range(t_target + 1):
        t0 = time.perf_counter()
        log = RoundLog(t=t, k_t=rm.k_t, d=frame_width(rm.k_t), eps_t=rm.eps_t)
        try:
            xi = build_xi(rm)
        except SpectralDeficiencyError:
            stopped = "spectral"
            break
        proj_phi = xi.T @ rm.phi @ xi
        proj_psi = xi.T @ rm.psi @ xi
        log.xi_ortho_err = float(np.linalg.norm(proj_phi - np.eye(xi.shape[1])))
        pd = np.diag(proj_psi)
        log.psi_diag_min = float(pd.min())
        log.psi_diag_max = float(pd.max())
        if t == t_target:
            it.h, it.l = linear_step(it, cp, xi)
            log.wall_s = time.perf_counter() - t0
            logs.append(log)
            break
        step = sample_beta(rm, xi, sched.ks[t + 1], d, sched.rho, seed=child(beta_seed, t),
                           max_resamples=max_resamples)
        # Taylor lower bound on the signal recursion, recorded each round
        if pp_rho is None:
            pp_rho = sched.rho ** 2 * phi_second_deriv_at_zero(d) / 16.0
        log.eps_lower_bound_ok = bool(step.eps_next >= pp_rho * rm.eps_t ** 2 - 1e-12)
        log.resamples = step.resamples
        log.accepted = step.accepted
        log.clamp_count = step.clamp_count
        log.window_phi, log.window_psi = step.next_rm.window_counts()
        it = amp_round(it, cp, step, d)
        rm = step.next_rm
        history.append(rm)
        log.wall_s = time.perf_counter() - t0
        logs.append(log)
    return AmpResult(iterate=it, rounds=logs, stopped_reason=stopped,
                     round_history=history)
