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
thresholds become integer lookups on d_A(u) + d_B(v); the cut of Delta / 10
for each row u and its image pi(u) is kept in a vector that a swap changes
at its two rows.  Each scan compares only the rows and columns whose current
images are bad: the first bad row as a block of its own, where most scans
hit, then SCAN_ROWS rows at a time, each row read as its table row plus
its pending swaps.  The hit carries C(u, v), so a swap sets the new
diagonal at u from it and reads the table once, at pi^-1(v); A' and B' are
symmetric, so a swap's two vectors are indicator rows.  A swap thus costs a few O(n) vector
updates and nothing over all n that it leaves unchanged.

Refinement and selection read the indicators as IndicatorBits, each row
packed into bits, which the run packs before cleaning; an observed pair,
float or bool, is packed on entry (model.indicator_bits).  Rows are
unpacked where they are read: UNPACK_ROWS at a time into the float32
operands of the table build, whose products with a ones vector are the
row degrees, and into the selection count, and one at a time for a swap.

psi has Owen's closed form psi(rho) = alpha - 2 T(1, sqrt((1 - rho)/(1 + rho))),
with T Owen's T function (Owen, "Tables for computing bivariate normal
probabilities", Ann. Math. Statist. 1956), computed from its defining
integral over [0, a], a <= 1, by PSI_NODES-point Gauss-Legendre quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NumericalError, ParameterError
from .model import IndicatorBits, ObservedPair, _pack_indicator, indicator_bits


def compute_alpha() -> float:
    """P(X >= 1) for standard normal X, via the complementary error function."""
    return 0.5 * math.erfc(1.0 / math.sqrt(2.0))


# Gauss-Legendre nodes and weights on [-1, 1] for Owen's T integral.
PSI_NODES = 24
_GL_X, _GL_W = np.polynomial.legendre.leggauss(PSI_NODES)


@functools.lru_cache
def compute_psi(rho: float) -> float:
    """P(X >= 1, Y >= 1) for standard bivariate normals with correlation rho.

    Owen's closed form (Owen, "Tables for computing bivariate normal
    probabilities", Ann. Math. Statist. 1956): P(X >= h, Y >= h) =
    P(X >= h) - 2 T(h, a) with a = sqrt((1 - rho) / (1 + rho)) and T Owen's
    T function, here by its defining integral

        T(1, a) = (1 / 2 pi) int_0^a exp(-(1 + x^2) / 2) / (1 + x^2) dx.

    The integrand is smooth and a <= 1, so PSI_NODES Gauss-Legendre nodes
    give T to within 1e-16 of scipy.special.owens_t.  T(1, 0) = 0 gives
    alpha at rho = 1; at rho = 0 it gives alpha^2 to rounding.
    """
    if not (0.0 <= rho <= 1.0):
        raise ParameterError(f"rho must lie in [0, 1], got {rho}")
    a = math.sqrt((1.0 - rho) / (1.0 + rho))
    q = 1.0 + (0.5 * a * (_GL_X + 1.0)) ** 2
    owens_t = 0.5 * a * float(_GL_W @ (np.exp(-0.5 * q) / q)) / (2.0 * math.pi)
    return float(compute_alpha() - 2.0 * owens_t)


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


def neighborhood_stat(obs: ObservedPair | IndicatorBits, pi: np.ndarray, u: int, v: int,
                      alpha: float | None = None) -> float:
    """N(u, v) summed over all w in [n], exactly as defined."""
    if alpha is None:
        alpha = compute_alpha()
    pi = np.asarray(pi, dtype=np.intp)
    if isinstance(obs, IndicatorBits):
        a_bits, b_bits = obs.a[u], obs.b[v]
    else:   # pack only the two rows read
        a_bits = _pack_indicator(obs.a_prime[u:u + 1])[0]
        b_bits = _pack_indicator(obs.b_prime[v:v + 1])[0]
    a_row = _unpacked(a_bits, pi.size).astype(float) - alpha
    b_row = _unpacked(b_bits, pi.size)[pi].astype(float) - alpha
    return float(a_row @ b_row)


# Swaps kept as factor rows before one product folds them into the table.
BATCH_SWAPS = 32
# Bad rows compared per block of the qualification scan.
SCAN_ROWS = 32
# Packed rows unpacked per block of the table build and the selection count.
UNPACK_ROWS = 512


def _unpacked(bits: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 uint8 entries of packed rows of n columns (one row or many)."""
    return np.unpackbits(bits, axis=-1, count=n)


def _unpacked_f32(bits: np.ndarray, n: int) -> np.ndarray:
    """Packed rows as 0/1 float32, unpacked UNPACK_ROWS rows at a time."""
    out = np.empty((bits.shape[0], n), dtype=np.float32)
    for start in range(0, bits.shape[0], UNPACK_ROWS):
        out[start:start + UNPACK_ROWS] = _unpacked(bits[start:start + UNPACK_ROWS], n)
    return out


class CoNeighbourTable:
    """Exact counts C(u, v) = sum_w 1{A'[u,w] >= 1} 1{B'[v,pi(w)] >= 1}
    under an evolving permutation pi, with the diagonal cur[u] = C(u, pi(u))
    and the row degrees deg_a, deg_b of the two indicators.

    A' and B' are symmetric, so C = A B[pi] over the indicators, and a
    swap's two vectors are rows of them.  A swap changes C by a +-1 outer
    product.  The table keeps its two vectors as row k of the float32
    factors da and db and folds BATCH_SWAPS of them into the float32 table
    c with one product, c += da^T db; a read adds the pending rows.  Every
    value is an integer below 2^24, so all float32 sums are exact.  The
    table keeps the pair as IndicatorBits (bits_a, bits_b), unpacks both
    into the float32 operands of its build, whose products with a ones
    vector give the degrees and which die with it, and a swap unpacks its
    four rows.  The observed pair, its bool indicator pair
    (A' >= 1, B' >= 1) and their IndicatorBits give the same counts."""

    def __init__(self, obs: ObservedPair | IndicatorBits, pi: np.ndarray):
        bits = indicator_bits(obs)
        self.bits_a, self.bits_b = bits.a, bits.b
        self.pi = np.array(pi, dtype=np.intp, copy=True)
        n = self.n = self.pi.size
        self.inv = np.empty_like(self.pi)
        self.inv[self.pi] = np.arange(n)
        # 0/1 products summed in float32, exact for counts below 2^24; b's
        # column sums are B's row sums, as B is symmetric
        a, b = _unpacked_f32(self.bits_a, n), _unpacked_f32(self.bits_b[self.pi], n)
        ones = np.ones(n, dtype=np.float32)
        deg_a, deg_b = a @ ones, ones @ b
        self.c = a @ b
        del a, b    # the operands die before the swap factors are allocated
        self.deg_a, self.deg_b = deg_a.astype(np.intp), deg_b.astype(np.intp)
        self.cur = self.c[np.arange(n), self.pi]
        self.da = np.empty((BATCH_SWAPS, n), dtype=np.float32)
        self.db = np.empty((BATCH_SWAPS, n), dtype=np.float32)
        self.k = 0      # swaps not yet folded into c
        self._buf = np.empty(n, dtype=np.float32)

    def rows(self, r: np.ndarray) -> np.ndarray:
        """Rows r of C, as float32."""
        block = self.c.take(r, axis=0)
        if self.k:
            block += self.da[:self.k].take(r, axis=1).T @ self.db[:self.k]
        return block

    def at(self, u: int, v: int) -> int:
        """C(u, v)."""
        return int(self.c[u, v] + self.da[:self.k, u] @ self.db[:self.k, v])

    def swap(self, u: int, v: int, c_uv: int) -> None:
        """Map u to v and pi^-1(v) to the old pi(u), given c_uv = C(u, v)."""
        p_v, w_u = int(self.inv[v]), int(self.pi[u])
        # Column u of the permuted B indicator becomes B[:, v] and column p_v
        # becomes B[:, w_u], so C += (A[u] - A[p_v]) (B[v] - B[w_u])^T.
        da, db = self.da[self.k], self.db[self.k]
        a, b, n = self.bits_a, self.bits_b, self.n
        np.subtract(_unpacked(a[u], n), _unpacked(a[p_v], n), out=da, dtype=np.float32)
        np.subtract(_unpacked(b[v], n), _unpacked(b[w_u], n), out=db, dtype=np.float32)
        np.take(db, self.pi, out=self._buf)
        self._buf *= da
        self.cur += self._buf
        self.k += 1
        self.pi[u], self.pi[p_v] = v, w_u
        self.inv[v], self.inv[w_u] = u, p_v
        self.cur[u], self.cur[p_v] = c_uv + da[u] * db[v], self.at(p_v, w_u)
        if self.k == len(self.da):
            self._fold()

    def _fold(self) -> None:
        if self.k:
            self.c += self.da[:self.k].T @ self.db[:self.k]
            self.k = 0


def _integer_cuts(params: RefineParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(t_hi, t_lo): the integer count cuts of Delta and Delta / 10 at each
    degree sum s = d_A(u) + d_B(v) in 0 .. 2n.

    N(u, v) = C(u, v) - alpha s + n alpha^2, so for integer C,
    N >= x  <=>  C >= ceil(x + alpha s - n alpha^2).

    The cuts are computed in floats, with an error below
    4 eps (Delta + 2 n alpha + n alpha^2); a cut within that bound of an
    integer takes its ceiling in rational arithmetic of the float inputs
    (Delta / 10 taken exactly).
    """
    alpha = params.alpha
    shift = alpha * np.arange(2 * n + 1) - n * alpha * alpha
    bound = 4 * np.finfo(float).eps * (params.delta + 2 * n * alpha + n * alpha * alpha)
    a, delta = Fraction(alpha), Fraction(params.delta)
    cuts = []
    for x, exact in ((params.delta, delta), (params.delta / 10.0, delta / 10)):
        f = x + shift
        cut = np.ceil(f)
        for s in np.flatnonzero(np.abs(f - np.round(f)) <= bound):
            cut[s] = math.ceil(exact + a * int(s) - n * a * a)
        cuts.append(cut.astype(np.int32))
    return cuts[0], cuts[1]


def seeded_refine(obs: ObservedPair | IndicatorBits, pi_tilde: np.ndarray, rho: float,
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
    obs is read only through x >= 1, so the observed pair, its bool
    indicator pair (A' >= 1, B' >= 1) and their IndicatorBits give the same
    result.
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
    deg_a, deg_b = table.deg_a, table.deg_b
    t_hi, t_lo = _integer_cuts(params, n)
    # t_hi by (distinct d_A value, v), so a row block's thresholds are a row
    # gather; float32 like the table, and exact, as both hold small integers
    da_vals, da_code = np.unique(deg_a, return_inverse=True)
    hi_by_deg = t_hi[da_vals[:, None] + deg_b[None, :]].astype(np.float32)

    def stat(c, s):
        # an int count: a float32 one would keep the difference in float32
        return float(int(c) - alpha * s + n * alpha * alpha)

    # lo[u]: the count cut of Delta / 10 for u and pi(u); a swap changes it
    # at its two rows
    lo = t_lo[deg_a + deg_b[pi]]
    swaps = 0
    truncated = False
    while True:
        if swaps >= params.max_swaps:
            truncated = True
            break
        bad = cur < lo
        # N(pi^-1(v), v) is row pi^-1(v)'s own statistic, so bad columns are bad[inv]
        hit = _first_qualifying(table, np.flatnonzero(bad), bad[inv], hi_by_deg, da_code)
        if hit is None:
            break
        u, v, c_uv = hit
        p_v, w_u = int(inv[v]), int(pi[u])
        if trace is not None:
            trace.append({"u": u, "v": v,
                          "n_uv": stat(c_uv, deg_a[u] + deg_b[v]),
                          "n_u_cur": stat(cur[u], deg_a[u] + deg_b[w_u]),
                          "n_v_cur": stat(cur[p_v], deg_a[p_v] + deg_b[v])})
        table.swap(u, v, c_uv)
        lo[u], lo[p_v] = t_lo[deg_a[u] + deg_b[v]], t_lo[deg_a[p_v] + deg_b[w_u]]
        swaps += 1
    select_score = int(cur.sum(dtype=np.float64)) // 2
    return pi, {"swaps": swaps, "truncated": truncated, "select_score": select_score}


def _first_qualifying(table, rows, bad_v, hi_by_deg, da_code):
    """First qualifying pair (u, v, C(u, v)) in row-major order, or None.
    The scan reads the first bad row as a block of its own, then the others
    SCAN_ROWS at a time, and stops at the first block that has one.

    A pair (u, v) qualifies when v is a bad column and
    C(u, v) >= hi_by_deg[da_code[u], v].
    """
    start, stop = 0, 1
    while start < rows.size:
        r = rows[start:stop]
        start, stop = stop, stop + SCAN_ROWS
        block = table.rows(r)
        qual = (block >= hi_by_deg.take(da_code[r], axis=0)) & bad_v
        k = int(np.argmax(qual))
        if qual.flat[k]:
            i, v = divmod(k, qual.shape[1])
            return int(r[i]), v, int(block[i, v])
    return None


def selection_score(obs: ObservedPair | IndicatorBits, pi: np.ndarray) -> int:
    """Number of unordered pairs u < v with A'[u,v] >= 1 and B'[pi(u),pi(v)] >= 1.

    The observed pair, its bool indicator pair (A' >= 1, B' >= 1) and their
    IndicatorBits give the same count.
    """
    bits = indicator_bits(obs)
    pi = np.asarray(pi, dtype=np.intp)
    n = pi.size
    cols = np.arange(n)
    count = 0
    for start in range(0, n, UNPACK_ROWS):
        rows = slice(start, start + UNPACK_ROWS)
        # rows u of A' >= 1 above the diagonal, against rows pi(u) of
        # B' >= 1 in the columns pi(v)
        both = _unpacked(bits.a[rows], n).view(bool)
        both &= cols[rows, None] < cols
        both &= _unpacked(bits.b[pi[rows]], n).view(bool)[:, pi]
        count += int(np.count_nonzero(both))
    return count


def final_select(obs: ObservedPair | IndicatorBits, candidates) -> tuple[np.ndarray, list[int]]:
    """Candidate with the largest selection score; first occurrence wins ties."""
    candidates = list(candidates)
    if not candidates:
        raise ParameterError("final_select needs at least one candidate")
    bits = indicator_bits(obs)
    scores = [selection_score(bits, pi) for pi in candidates]
    best = int(np.argmax(scores))   # argmax returns the first maximiser
    return np.asarray(candidates[best], dtype=np.intp), scores
