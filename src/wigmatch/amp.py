"""Vector AMP iteration over a cleaned pair.

Starting from seed columns, each round applies one linear step through the
cleaned matrices and one entrywise denoiser step:

    h = (1/sqrt(n)) A_sub (f Xi),      l = (1/sqrt(n)) B_sub (g Xi)
    f' = varphi(h beta),               g' = varphi(l beta)

with A_sub, B_sub the cleaned matrices restricted to the non-seed rows and
columns.  The run reads them as views of a pair arranged in place for the
seed pair (see ArrangedPair); from a CleanedPair, left unchanged, each
product gathers its sub-matrix, and the bytes are the same.  There is no
Onsager correction; the frame construction makes the cross-round
correlation negligible.  A round whose frame cannot be built ends the
loop as a recorded spectral stop, and a round whose beta draws all fail
the eigenvalue windows goes on with the best draw, recorded as not
accepted; a run is never ended by the spectral subroutine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .denoiser import Denoiser, Schedule, phi_second_deriv_at_zero
from .errors import NumericalError, ParameterError, SpectralDeficiencyError
from .model import _permute_in_place
from .preprocess import CleanedPair
from .rng import child
from .spectral import RoundMatrices, SpectralStep, build_xi, initial_round, sample_beta


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


@dataclass(frozen=True)
class ArrangedPair:
    """A cleaned pair arranged for one seed pair: row and column p of a_clean
    hold vertex order_a[p], the non-seed vertices (rows_i, increasing) first
    and then the u-seeds in sequence order; likewise b_clean with rows_j and
    the v-seeds.  With m = n - k0, A_sub is the view a_clean[:m, :m] and the
    seed columns the view a_clean[:m, m:]; BLAS takes such a view with
    lda = n, so no product copies a matrix."""
    a_clean: np.ndarray
    b_clean: np.ndarray
    order_a: np.ndarray
    order_b: np.ndarray

    @property
    def n(self) -> int:
        return self.a_clean.shape[0]


def _orders(n: int, seeds: SeedPair) -> tuple[np.ndarray, np.ndarray]:
    """The vertex orders of the pair arranged for seeds: rows_i then u_seq,
    rows_j then v_seq."""
    u = np.asarray(seeds.u_seq, dtype=np.intp)
    v = np.asarray(seeds.v_seq, dtype=np.intp)
    if u.size and (u.max() >= n or u.min() < 0 or v.max() >= n or v.min() < 0):
        raise ParameterError("seed indices out of range")
    return (np.concatenate([np.setdiff1d(np.arange(n), u), u]),
            np.concatenate([np.setdiff1d(np.arange(n), v), v]))


def _arrange_in_place(pair: CleanedPair | ArrangedPair, seeds: SeedPair) -> ArrangedPair:
    """pair's matrices arranged for seeds in their own buffers, from the
    vertex order of a CleanedPair or the layout of an ArrangedPair, by
    model._permute_in_place.  pair is stale afterwards."""
    order_a, order_b = _orders(pair.n, seeds)
    if isinstance(pair, ArrangedPair):
        moves = np.argsort(pair.order_a)[order_a], np.argsort(pair.order_b)[order_b]
    else:
        moves = order_a, order_b
    _permute_in_place(pair.a_clean, moves[0])
    _permute_in_place(pair.b_clean, moves[1])
    return ArrangedPair(pair.a_clean, pair.b_clean, order_a, order_b)


def init_iterate(cp: CleanedPair | ArrangedPair, seeds: SeedPair, d: Denoiser) -> AmpIterate:
    """f0[i, k] = varphi(A_clean[i, u_k]) on non-seed rows; likewise g0.  An
    ArrangedPair must be arranged for seeds; its seed columns are read as
    views."""
    order_a, order_b = _orders(cp.n, seeds)
    m = cp.n - seeds.k0
    if isinstance(cp, ArrangedPair):
        if not (np.array_equal(cp.order_a, order_a) and np.array_equal(cp.order_b, order_b)):
            raise ParameterError("the pair is not arranged for these seeds")
        a_seeds, b_seeds = cp.a_clean[:m, m:], cp.b_clean[:m, m:]
    else:
        a_seeds = cp.a_clean[np.ix_(order_a[:m], order_a[m:])]
        b_seeds = cp.b_clean[np.ix_(order_b[:m], order_b[m:])]
    return AmpIterate(f=d(a_seeds), g=d(b_seeds), h=None, l=None, t=0,
                      rows_i=order_a[:m], rows_j=order_b[:m])


def linear_step(it: AmpIterate, cp: CleanedPair | ArrangedPair, xi: np.ndarray):
    """h = (1/sqrt(n)) A_sub f Xi and l = (1/sqrt(n)) B_sub g Xi.  An
    ArrangedPair gives each sub-matrix as a view; from a CleanedPair it is
    gathered inside its product and freed before the next.  BLAS computes
    the same bytes from either operand."""
    m = it.rows_i.size

    def sub(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return mat[:m, :m] if isinstance(cp, ArrangedPair) else mat[np.ix_(rows, rows)]

    h = sub(cp.a_clean, it.rows_i) @ (it.f @ xi) / math.sqrt(cp.n)
    l = sub(cp.b_clean, it.rows_j) @ (it.g @ xi) / math.sqrt(cp.n)
    if not (np.isfinite(h).all() and np.isfinite(l).all()):
        raise NumericalError(f"non-finite values in the linear step at round {it.t}")
    return h, l


def amp_round(it: AmpIterate, cp: CleanedPair | ArrangedPair, step: SpectralStep,
              d: Denoiser) -> AmpIterate:
    """One full round: linear step with step.xi, then denoise through step.beta."""
    h, l = linear_step(it, cp, step.xi)
    return AmpIterate(f=d(h @ step.beta), g=d(l @ step.beta), h=h, l=l, t=it.t + 1,
                      rows_i=it.rows_i, rows_j=it.rows_j)


def run_amp(cp: CleanedPair | ArrangedPair, seeds: SeedPair, sched: Schedule, d: Denoiser,
            min_rounds: int = 2, beta_seed: int = 0, xi_factor: int = 12,
            max_resamples: int = 64, spectral_mode: str = "record") -> AmpResult:
    """Iterate through round max(t_star, min_rounds).

    The returned iterate carries the last computed (h, l); those drive the
    assignment stage.  A round whose frame cannot be built stops the loop
    gracefully with the stop recorded, and a round whose beta draws all fail
    keeps the best one with the violation recorded.  spectral_mode accepts
    only "record", the one policy.  An ArrangedPair must be arranged for
    seeds, and its sub-matrices are read as views (the run's path); from a
    CleanedPair, which is left unchanged, each product gathers its
    sub-matrix, one at a time, and gives the same bytes.
    """
    if spectral_mode != "record":
        raise ParameterError(f"unknown spectral mode {spectral_mode!r}")
    t_target = max(sched.t_star, min_rounds)
    rm = initial_round(sched.k0, sched.eps0)
    it = init_iterate(cp, seeds, d)
    logs: list[RoundLog] = []
    history = [rm]
    pp_rho = None
    stopped = "t_star" if t_target == sched.t_star else "min_rounds"
    for t in range(t_target + 1):
        t0 = time.perf_counter()
        log = RoundLog(t=t, k_t=rm.k_t, d=max(1, rm.k_t // xi_factor), eps_t=rm.eps_t)
        try:
            xi = build_xi(rm, xi_factor=xi_factor)
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
