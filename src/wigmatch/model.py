"""Correlated Gaussian Wigner instances and adversarial corruption.

An instance is a pair of symmetric matrices (A, B) with zero diagonal whose
off-diagonal entries are standard normal and pairwise correlated across a
latent vertex permutation: for every unordered pair (i, j),

    B[pi(i), pi(j)] = rho * A[i, j] + sqrt(1 - rho^2) * Z[i, j]

with Z i.i.d. standard normal.  Corruption adds arbitrary symmetric
perturbations supported on principal minors Q x Q and R x R of size at most
ceil(eps * n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import generator

STRATEGIES = ("planted-clique-weight", "rank1-spike", "zero-out", "adaptive-sign-flip")
NOISE_ROWS = 64     # rows per block when a noise matrix is drawn or re-injected
CLIQUE_WEIGHT = 5.0     # the weight that planted-clique-weight adds to each entry


@dataclass(frozen=True)
class CorrelatedInstance:
    n: int
    rho: float
    a: np.ndarray
    b: np.ndarray
    pi_star: np.ndarray


@dataclass(frozen=True)
class CorruptionPlan:
    """The corrupted principal minors: Q of A and R of B."""
    q: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class ObservedPair:
    a_prime: np.ndarray
    b_prime: np.ndarray

    @property
    def n(self) -> int:
        return self.a_prime.shape[0]

    def indicators(self) -> "ObservedPair":
        """The pair (A' >= 1, B' >= 1) as bool matrices.  Refinement and
        selection read A' and B' only through x >= 1, which a bool keeps, so
        they give the same result on either pair; idempotent."""
        return ObservedPair(self.a_prime >= 1.0, self.b_prime >= 1.0)


def _row_blocks(n: int):
    """The noise matrices' blocks of NOISE_ROWS rows: (rows, upper), the row
    slice and the bool mask of the block's entries above the diagonal."""
    cols = np.arange(n)
    for start in range(0, n, NOISE_ROWS):
        rows = slice(start, start + NOISE_ROWS)
        yield rows, cols[rows, None] < cols


def _noise_blocks(n: int, rng: np.random.Generator):
    """The noise format: a symmetric n x n matrix with zero diagonal and one
    N(0,1) draw per unordered pair, drawn above the diagonal in row-major
    order with one standard_normal call per block of _row_blocks(n).
    Yields (rows, upper, g): g[upper] holds the block's draws, and g is read
    only there, since one buffer holds every block in turn."""
    buffer = np.empty((min(NOISE_ROWS, n), n))
    for rows, upper in _row_blocks(n):
        g = buffer[:upper.shape[0]]
        g[upper] = rng.standard_normal(int(np.count_nonzero(upper)))
        yield rows, upper, g


def _symmetric_standard_normal(n: int, rng: np.random.Generator) -> np.ndarray:
    """The matrix of _noise_blocks(n, rng), whole."""
    m = np.zeros((n, n))
    for rows, upper, g in _noise_blocks(n, rng):
        np.copyto(m[rows], g, where=upper)
        np.copyto(m.T[rows], g, where=upper)
    return m


def _permute_in_place(m: np.ndarray, order: np.ndarray) -> None:
    """Turn the square matrix m into m[order][:, order] in its own buffer,
    with O(NOISE_ROWS n) scratch: rows move along the cycles of order through
    one row of scratch, then each block of NOISE_ROWS rows gathers its
    columns.  Only copies, so the result is the gather's, byte for byte."""
    n = m.shape[0]
    order = np.asarray(order, dtype=np.intp)
    to = order.tolist()
    row = np.empty(n, dtype=m.dtype)
    done = np.zeros(n, dtype=bool)
    for start in range(n):
        if done[start] or to[start] == start:
            continue
        row[:] = m[start]
        i = start
        while to[i] != start:
            m[i] = m[to[i]]
            done[i] = True
            i = to[i]
        m[i] = row
        done[i] = True
    block = np.empty((min(NOISE_ROWS, n), n), dtype=m.dtype)
    for start in range(0, n, NOISE_ROWS):
        rows = m[start:start + NOISE_ROWS]
        np.take(rows, order, axis=1, out=block[:len(rows)])
        rows[...] = block[:len(rows)]


def generate(n: int, rho: float, pi_mode: str = "uniform-random", seed: int = 0) -> CorrelatedInstance:
    """Draw a correlated pair (A, B) with latent permutation pi_star.

    pi_mode is "identity" or "uniform-random".  Deterministic given seed.
    """
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if not (0.0 <= rho <= 1.0):
        raise ParameterError(f"rho must lie in [0, 1], got {rho}")
    rng = generator(seed)
    a = _symmetric_standard_normal(n, rng)
    c = _symmetric_standard_normal(n, rng)     # Z, which becomes the correlated matrix
    if pi_mode == "identity":
        pi = np.arange(n, dtype=np.intp)
    elif pi_mode == "uniform-random":
        pi = rng.permutation(n).astype(np.intp)
    else:
        raise ParameterError(f"unknown pi_mode {pi_mode!r}")
    # C = sqrt(1-rho^2) Z + rho A in Z's buffer, with the two roundings of
    # rho * a + s * z (IEEE addition commutes)
    c *= math.sqrt(max(0.0, 1.0 - rho * rho))
    for start in range(0, n, NOISE_ROWS):
        c[start:start + NOISE_ROWS] += rho * a[start:start + NOISE_ROWS]
    # B in image coordinates, B[pi(i), pi(j)] = C[i, j]: B = C[inv][:, inv],
    # permuted in C's own buffer, so generate holds two n x n matrices
    b = c
    _permute_in_place(b, np.argsort(pi))
    np.fill_diagonal(b, 0.0)
    return CorrelatedInstance(n=n, rho=float(rho), a=a, b=b, pi_star=pi)


def _perturbation(m_sub: np.ndarray, n: int, strategy: str, rng: np.random.Generator,
                  spike_scale: float | None) -> np.ndarray:
    """The adversary's symmetric k x k block, zero on the diagonal, for the
    principal minor m_sub; corrupt validates the strategy."""
    k = m_sub.shape[0]
    if strategy == "planted-clique-weight":
        return CLIQUE_WEIGHT * (np.ones((k, k)) - np.eye(k))
    if strategy == "rank1-spike":
        lam = spike_scale if spike_scale is not None else 20.0 * math.sqrt(n)
        v = rng.standard_normal(k)
        v /= np.linalg.norm(v)
        block = lam * np.outer(v, v)
        np.fill_diagonal(block, 0.0)
        return block
    if strategy == "zero-out":
        return -m_sub
    return -2.0 * m_sub   # adaptive-sign-flip


def corrupt(inst: CorrelatedInstance, epsilon: float, strategy: str, seed: int,
            clique_weight: float = CLIQUE_WEIGHT,
            spike_scale: float | None = None) -> tuple[ObservedPair, CorruptionPlan]:
    """Apply one of the four adversaries to both matrices independently.

    The support sets Q, R are drawn uniformly with |Q| = |R| = ceil(eps*n);
    the adversary may read A, B (zero-out and sign-flip do).  A's block is
    drawn before B's.  A and B are copied, so inst is left unchanged.
    clique_weight accepts only CLIQUE_WEIGHT.
    """
    if clique_weight != CLIQUE_WEIGHT:
        raise ParameterError(f"clique_weight must be {CLIQUE_WEIGHT}, got {clique_weight!r}")
    a_prime, b_prime = inst.a.copy(), inst.b.copy()
    plan = _corrupt_in_place(a_prime, b_prime, epsilon, strategy, seed, spike_scale)
    return ObservedPair(a_prime=a_prime, b_prime=b_prime), plan


def _corrupt_in_place(a: np.ndarray, b: np.ndarray, epsilon: float, strategy: str,
                      seed: int, spike_scale: float | None = None) -> CorruptionPlan:
    """corrupt's draws, adding each adversary block to A and B themselves,
    which become A' and B'."""
    if not (0.0 <= epsilon < 1.0):
        raise ParameterError(f"epsilon must lie in [0, 1), got {epsilon}")
    if strategy not in STRATEGIES:
        raise ParameterError(f"unknown corruption strategy {strategy!r}; choose from {STRATEGIES}")
    n = a.shape[0]
    k = math.ceil(epsilon * n)
    if k == 0:
        return CorruptionPlan(q=np.empty(0, dtype=np.intp), r=np.empty(0, dtype=np.intp))
    rng = generator(seed)
    q = np.sort(rng.choice(n, size=k, replace=False)).astype(np.intp)
    r = np.sort(rng.choice(n, size=k, replace=False)).astype(np.intp)
    for m, idx in ((a, q), (b, r)):
        minor = np.ix_(idx, idx)
        m[minor] += _perturbation(m[minor], n, strategy, rng, spike_scale)
    return CorruptionPlan(q=q, r=r)


def overlap(pi_hat: np.ndarray, pi_star: np.ndarray) -> float:
    """Fraction of vertices where the candidate agrees with the truth."""
    pi_hat = np.asarray(pi_hat)
    pi_star = np.asarray(pi_star)
    if pi_hat.shape != pi_star.shape:
        raise ParameterError("permutations must live on the same ground set")
    return float(np.mean(pi_hat == pi_star))
