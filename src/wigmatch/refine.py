"""Seeded refinement and final candidate selection.

Refinement upgrades an almost-exact permutation using thresholded
co-neighbourhood counts on the raw observed pair: with
alpha = P(N(0,1) >= 1) and psi(rho) the bivariate upper orthant mass at
(1, 1),

    N(u, v) = sum_w (1{A'[u, w] >= 1} - alpha)(1{B'[v, pi(w)] >= 1} - alpha)

a swap u -> v fires when N(u, v) >= Delta while both current images look
bad (below Delta / 10), with Delta = psi(rho) n / 10.  The first
qualifying pair in row-major order swaps, and the scan restarts; the
statistic is evaluated against the evolving permutation.  Since the row degrees d_A, d_B
of the indicators do not depend on pi,

    N(u, v) = C(u, v) - alpha d_A(u) - alpha d_B(v) + n alpha^2

with C the integer co-neighbour count, kept exactly in a float32 table.  A
swap adds a +-1 outer product to C; the table defers it as one row of each
of two factors and folds BATCH_SWAPS swaps in with one float32 product, the
blocked update of the WY form (Schreiber and Van Loan, SIAM J. Sci. Stat.
Comput. 1989), while the diagonal C(u, pi(u)) is kept current at every
swap.  Every value is an integer below 2^24, so every sum is exact.  Both
thresholds become integer lookups on d_A(u) + d_B(v), and each scan compares
only the rows and columns whose current images are bad, a block of rows at
a time, each row read as its table row plus its pending swaps.

psi has Owen's closed form psi(rho) = alpha - 2 T(1, sqrt((1 - rho)/(1 + rho))),
with T Owen's T function (Owen, "Tables for computing bivariate normal
probabilities", Ann. Math. Statist. 1956).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import owens_t

from .errors import NumericalError, ParameterError
from .model import ObservedPair


def compute_alpha() -> float:
    """P(X >= 1) for standard normal X, via the complementary error function."""
    return 0.5 * math.erfc(1.0 / math.sqrt(2.0))


@functools.lru_cache
def compute_psi(rho: float) -> float:
    """P(X >= 1, Y >= 1) for standard bivariate normals with correlation rho.

    Owen's closed form (Owen, "Tables for computing bivariate normal
    probabilities", Ann. Math. Statist. 1956): P(X >= h, Y >= h) =
    P(X >= h) - 2 T(h, a) with a = sqrt((1 - rho) / (1 + rho)) and T Owen's
    T function.  T(h, 0) = 0 gives alpha at rho = 1; at rho = 0 it gives
    alpha^2 to rounding.
    """
    if not (0.0 <= rho <= 1.0):
        raise ParameterError(f"rho must lie in [0, 1], got {rho}")
    return float(compute_alpha() - 2.0 * owens_t(1.0, math.sqrt((1.0 - rho) / (1.0 + rho))))


@dataclass(frozen=True)
class RefineParams:
    alpha: float
    psi_rho: float
    delta: float
    max_swaps: int

    @classmethod
    def for_run(cls, rho: float, n: int, max_swaps: int | None = None) -> "RefineParams":
        a = compute_alpha()
        p = compute_psi(rho)
        if not (0.0 < p <= a):
            raise NumericalError("orthant probability outside (0, alpha]")
        return cls(alpha=a, psi_rho=p, delta=p * n / 10.0,
                   max_swaps=int(max_swaps) if max_swaps is not None else 10 * n)


def neighborhood_stat(obs: ObservedPair, pi: np.ndarray, u: int, v: int,
                      alpha: float | None = None) -> float:
    """N(u, v) summed over all w in [n], exactly as defined."""
    if alpha is None:
        alpha = compute_alpha()
    a_row = (obs.a_prime[u, :] >= 1.0).astype(float) - alpha
    b_row = (obs.b_prime[v, np.asarray(pi, dtype=np.intp)] >= 1.0).astype(float) - alpha
    return float(a_row @ b_row)


# Swaps kept as factor rows before one product folds them into the table.
BATCH_SWAPS = 32
# Bad rows compared per block of the qualification scan.
SCAN_ROWS = 32


class CoNeighbourTable:
    """Exact counts C(u, v) = sum_w 1{A'[u,w] >= 1} 1{B'[v,pi(w)] >= 1}
    under an evolving permutation pi, with the diagonal cur[u] = C(u, pi(u)).

    A swap changes C by a +-1 outer product.  The table keeps its two
    vectors as row k of the float32 factors da and db and folds BATCH_SWAPS
    of them into the float32 table c with one product, c += da^T db; a read
    adds the pending rows.  Every value is an integer below 2^24, so all
    float32 sums are exact.  The observed pair and its indicator pair
    obs.indicators() give the same counts."""

    def __init__(self, obs: ObservedPair, pi: np.ndarray):
        self.ind_a = obs.a_prime >= 1.0
        self.ind_b = obs.b_prime >= 1.0
        self.pi = np.array(pi, dtype=np.intp, copy=True)
        n = self.pi.size
        self.inv = np.empty_like(self.pi)
        self.inv[self.pi] = np.arange(n)
        # 0/1 products summed in float32, exact for counts below 2^24
        self.c = self.ind_a.astype(np.float32) @ self.ind_b[:, self.pi].astype(np.float32).T
        self.cur = self.c[np.arange(n), self.pi]
        self.da = np.empty((BATCH_SWAPS, n), dtype=np.float32)
        self.db = np.empty((BATCH_SWAPS, n), dtype=np.float32)
        self.k = 0      # swaps not yet folded into c

    @property
    def counts(self) -> np.ndarray:
        """C as a new int32 table."""
        self._fold()
        return self.c.astype(np.int32)

    def rows(self, r: np.ndarray) -> np.ndarray:
        """Rows r of C, as float32."""
        block = self.c[r]
        if self.k:
            block += self.da[:self.k, r].T @ self.db[:self.k]
        return block

    def at(self, u: int, v: int) -> int:
        """C(u, v)."""
        return int(self.c[u, v] + self.da[:self.k, u] @ self.db[:self.k, v])

    def swap(self, u: int, v: int) -> None:
        """Map u to v and pi^-1(v) to the old pi(u)."""
        p_v, w_u = int(self.inv[v]), int(self.pi[u])
        # Column u of the permuted B indicator becomes B[:, v] and column p_v
        # becomes B[:, w_u], so C += (A[:, u] - A[:, p_v]) (B[:, v] - B[:, w_u])^T.
        da, db = self.da[self.k], self.db[self.k]
        np.subtract(self.ind_a[:, u], self.ind_a[:, p_v], out=da, dtype=np.float32)
        np.subtract(self.ind_b[:, v], self.ind_b[:, w_u], out=db, dtype=np.float32)
        self.cur += da * db[self.pi]
        self.k += 1
        self.pi[u], self.pi[p_v] = v, w_u
        self.inv[v], self.inv[w_u] = u, p_v
        self.cur[u], self.cur[p_v] = self.at(u, v), self.at(p_v, w_u)
        if self.k == len(self.da):
            self._fold()

    def _fold(self) -> None:
        if self.k:
            self.c += self.da[:self.k].T @ self.db[:self.k]
            self.k = 0


def seeded_refine(obs: ObservedPair, pi_tilde: np.ndarray, rho: float,
                  params: RefineParams | None = None,
                  selection: str = "scan-order",
                  trace: list | None = None):
    """Apply the swap rule until no pair qualifies or max_swaps is reached.

    Each swap applies the first qualifying pair in row-major (u, v) order
    and restarts the scan, so the result is deterministic.  selection
    accepts only "scan-order", the one rule.  Returns (pi_hat, info) with
    info = {"swaps": int, "truncated": bool, "select_score": int}, where
    select_score = 1/2 sum_u C(u, pi_hat(u)) is selection_score(obs, pi_hat)
    read off the table's diagonal (A', B' symmetric with a zero diagonal).
    obs is read only through x >= 1, so the observed pair and its indicator
    pair obs.indicators() give the same result.
    """
    n = obs.n
    pi = np.array(pi_tilde, dtype=np.intp, copy=True)
    if np.sort(pi).tolist() != list(range(n)):
        raise ParameterError("pi_tilde is not a permutation of [n]")
    if params is None:
        params = RefineParams.for_run(rho, n)
    if selection != "scan-order":
        raise ParameterError(f"unknown selection rule {selection!r}")
    alpha = params.alpha
    table = CoNeighbourTable(obs, pi)
    pi, inv, cur = table.pi, table.inv, table.cur
    deg_a = np.count_nonzero(table.ind_a, axis=1)
    deg_b = np.count_nonzero(table.ind_b, axis=1)
    # N(u, v) = C(u, v) - alpha s + n alpha^2 with s = d_A(u) + d_B(v), so for
    # integer C:  N >= x  <=>  C >= ceil(x + alpha s - n alpha^2).
    shift = alpha * np.arange(2 * n + 1) - n * alpha * alpha
    t_hi = np.ceil(params.delta + shift).astype(np.int32)
    t_lo = np.ceil(params.delta / 10.0 + shift).astype(np.int32)
    # t_hi by (distinct d_A value, v), so a row block's thresholds are a row
    # gather; float32 like the table, and exact, as both hold small integers
    da_vals, da_code = np.unique(deg_a, return_inverse=True)
    hi_by_deg = t_hi[da_vals[:, None] + deg_b[None, :]].astype(np.float32)

    def stat(c, s):
        # an int count: a float32 one would keep the difference in float32
        return float(int(c) - alpha * s + n * alpha * alpha)

    swaps = 0
    truncated = False
    while True:
        if swaps >= params.max_swaps:
            truncated = True
            break
        s_u = deg_a + deg_b[pi]
        bad = cur < t_lo[s_u]
        # N(pi^-1(v), v) is row pi^-1(v)'s own statistic, so bad columns are bad[inv]
        hit = _first_qualifying(table, np.flatnonzero(bad), bad[inv], hi_by_deg, da_code)
        if hit is None:
            break
        u, v = hit
        if trace is not None:
            p_v = inv[v]
            trace.append({"u": u, "v": v,
                          "n_uv": stat(table.at(u, v), deg_a[u] + deg_b[v]),
                          "n_u_cur": stat(cur[u], s_u[u]),
                          "n_v_cur": stat(cur[p_v], s_u[p_v])})
        table.swap(u, v)
        swaps += 1
    select_score = int(cur.sum(dtype=np.float64)) // 2
    return pi, {"swaps": swaps, "truncated": truncated, "select_score": select_score}


def _first_qualifying(table, rows, bad_v, hi_by_deg, da_code):
    """First qualifying pair in row-major order, or None; the scan reads
    SCAN_ROWS bad rows at a time and stops at the first block that has one.

    A pair (u, v) qualifies when v is a bad column and
    C(u, v) >= hi_by_deg[da_code[u], v].
    """
    for start in range(0, rows.size, SCAN_ROWS):
        r = rows[start:start + SCAN_ROWS]
        qual = (table.rows(r) >= hi_by_deg[da_code[r]]) & bad_v
        k = int(np.argmax(qual))
        if qual.flat[k]:
            i, v = divmod(k, qual.shape[1])
            return int(r[i]), v
    return None


def selection_score(obs: ObservedPair, pi: np.ndarray) -> int:
    """Number of unordered pairs u < v with A'[u,v] >= 1 and B'[pi(u),pi(v)] >= 1.

    The observed pair and its indicator pair obs.indicators() give the same
    count.
    """
    pi = np.asarray(pi, dtype=np.intp)
    n = pi.size
    # B' is read only at the pairs above the diagonal where A' >= 1
    upper = obs.a_prime >= 1.0
    upper &= ~np.tri(n, dtype=bool)
    u, v = np.divmod(np.flatnonzero(upper), n)
    return int(np.count_nonzero(obs.b_prime.ravel()[pi[u] * n + pi[v]] >= 1.0))


def final_select(obs: ObservedPair, candidates) -> tuple[np.ndarray, list[int]]:
    """Candidate with the largest selection score; first occurrence wins ties."""
    candidates = list(candidates)
    if not candidates:
        raise ParameterError("final_select needs at least one candidate")
    scores = [selection_score(obs, pi) for pi in candidates]
    best = int(np.argmax(scores))   # argmax returns the first maximiser
    return np.asarray(candidates[best], dtype=np.intp), scores
