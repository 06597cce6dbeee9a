"""Noise re-injection and spectral cleaning.

Re-injection averages each observed matrix with a fresh symmetric Gaussian,
with opposite signs above and below the diagonal:

    hatA[i, j] = (A'[i, j] + G[i, j]) / sqrt(2)   for i > j
    hatA[i, j] = (A'[i, j] - G[i, j]) / sqrt(2)   for i < j

which halves the pair correlation and makes all entries i.i.d. N(0, 1)
again.  Cleaning then repeatedly zeroes a row/column sampled from the
leading singular vectors' mass until the operator norm drops below
threshold_mult * sqrt(n).  Power iteration finds the singular vectors at
every n.

Power iteration proves the last step only slowly when no spike is left:
the top of the spectrum has no gap.  Such a solve tries, once, a ladder of
two Schatten-norm bounds on sigma_1.  With P = M^T M formed, the Schatten-4
norm S4 = (sum_i sigma_i^4)^(1/4) = ||P||_F^(1/2) costs one more pass; only
when it does not certify is P P formed, by row blocks, for the Schatten-8
norm S8 = ||P P||_F^(1/4), and S4 >= S8 >= sigma_1.  When the bound lies
below the threshold the loop stops there.  Power iteration's estimate never
exceeds sigma_1, so the uncertified loop would have stopped at the same
step and the zeroed sets are unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .model import NOISE_ROWS, ObservedPair, _symmetric_standard_normal
from .rng import child, generator

# Power iterations after which a solve still below the threshold tries the
# certificate.  On the perfbench workloads (benchmark seeds 1-3) every
# spiked solve and every final solve with a residual spike converged within
# 28 iterations, and spike-free final solves took 55 to 3466.
CERTIFY_AFTER = 40
# The bound certifies only below threshold * (1 - CERTIFY_MARGIN), far
# outside its rounding error.
CERTIFY_MARGIN = 1e-9
# Rows of M^T M per block of the product (M^T M)^2.
BOUND_ROWS = 256


@dataclass(frozen=True)
class CleanedPair:
    a_clean: np.ndarray
    b_clean: np.ndarray
    s: np.ndarray
    t: np.ndarray
    iters_a: int
    iters_b: int

    @property
    def n(self) -> int:
        return self.a_clean.shape[0]


def reinject_noise(obs: ObservedPair, seed: int,
                   g: np.ndarray | None = None,
                   h: np.ndarray | None = None):
    """Produce (hatA', hatB', G, H).  The outputs are not symmetric.

    g, h may be supplied explicitly (test hook, left unchanged); otherwise
    they are sampled symmetric with one N(0,1) draw per unordered pair, G
    before H.
    """
    rng = _noise_stream(obs.a_prime, obs.b_prime, seed)
    g = _symmetric_standard_normal(obs.n, rng) if g is None else g
    h = _symmetric_standard_normal(obs.n, rng) if h is None else h
    return (_reinject(obs.a_prime, np.array(g, dtype=float)),
            _reinject(obs.b_prime, np.array(h, dtype=float)), g, h)


def _noise_stream(a_prime: np.ndarray, b_prime: np.ndarray, seed: int) -> np.random.Generator:
    """The noise generator, once the pair is checked square and of one size."""
    n = a_prime.shape[0]
    if a_prime.shape != (n, n) or b_prime.shape != (n, n):
        raise ParameterError("observed pair must be square and same size")
    return generator(seed)


def _reinject(m: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Overwrite the float noise with hat, NOISE_ROWS rows at a time, and
    return it: (m + noise) / sqrt(2) below the diagonal, (m - noise) / sqrt(2)
    elsewhere, with a zero diagonal."""
    cols = np.arange(m.shape[0])
    for start in range(0, m.shape[0], NOISE_ROWS):
        rows = slice(start, start + NOISE_ROWS)
        low = cols[rows, None] > cols
        np.subtract(m[rows], noise[rows], out=noise[rows], where=~low)
        np.add(m[rows], noise[rows], out=noise[rows], where=low)
    noise /= math.sqrt(2.0)
    np.fill_diagonal(noise, 0.0)
    return noise


def certificate(m: np.ndarray, below: float) -> tuple[str, float]:
    """The first rung of the ladder S4 >= S8 >= sigma_1 that certifies
    sigma_1 < below, as ("S4", S4) or ("S8", S8); ("S8", S8) also when
    neither does.  S4 = ||M^T M||_F^(1/2) is read off P = M^T M, and P P is
    formed only when S4 fails."""
    p = m.T @ m
    s4 = math.sqrt(math.sqrt(float(np.vdot(p, p))))
    if certifies(s4, below):
        return "S4", s4
    return "S8", _schatten8(p)


def _schatten8(p: np.ndarray) -> float:
    """||P P||_F^(1/4) for P = M^T M, summed over row blocks of P."""
    total = 0.0
    for start in range(0, p.shape[0], BOUND_ROWS):
        q = p[start:start + BOUND_ROWS] @ p
        total += float(np.vdot(q, q))
    return math.sqrt(math.sqrt(math.sqrt(total)))


def certifies(bound: float, below: float) -> bool:
    """Whether an upper bound on sigma_1 proves sigma_1 < below, with margin."""
    return bound <= below * (1.0 - CERTIFY_MARGIN)


def leading_singular_triple(m: np.ndarray, tol: float = 1e-10, max_iter: int = 10000,
                            seed: int = 0, v0: np.ndarray | None = None):
    """Leading singular value and unit left/right singular vectors, and the
    iteration count, by power iteration: M v / M^T u alternate until the
    singular-value estimate stagnates."""
    return _singular_triple(m, tol, max_iter, seed, v0)[:4]


def _singular_triple(m, tol=1e-10, max_iter=10000, seed=0, v0=None, below=None):
    """leading_singular_triple plus the certificate (norm, bound), or None
    if untried.

    With `below` given, a solve still unconverged after CERTIFY_AFTER
    iterations whose estimate is under `below` computes the certificate
    once, and stops there if its bound certifies sigma_1 < below.  The
    returned sigma is always power iteration's estimate, a lower bound on
    sigma_1.
    """
    n = m.shape[0]
    if v0 is not None:
        v = v0.astype(float, copy=True)
    else:
        v = generator(seed).standard_normal(n)
    nv = np.linalg.norm(v)
    if nv == 0:
        raise NumericalError("zero start vector")
    v /= nv
    sigma_prev = -1.0
    u = np.zeros(n)
    cert = None
    for it in range(1, max_iter + 1):
        w = m @ v
        sw = np.linalg.norm(w)
        if sw < 1e-300:
            return 0.0, u, v, it, cert
        u = w / sw
        z = m.T @ u
        sigma = np.linalg.norm(z)
        if sigma < 1e-300:
            return 0.0, u, v, it, cert
        v = z / sigma
        if abs(sigma - sigma_prev) <= tol * max(sigma, 1.0):
            return float(sigma), u, v, it, cert
        if below is not None and it == CERTIFY_AFTER and sigma < below:
            cert = certificate(m, below)
            if certifies(cert[1], below):
                return float(sigma), u, v, it, cert
        sigma_prev = sigma
    raise NumericalError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last sigma={sigma_prev:.6g}, delta={abs(sigma - sigma_prev):.3g})")


def spectral_clean(m: np.ndarray, threshold_mult: float = 10.0, seed: int = 0,
                   trace: list | None = None):
    """Zero out rows/columns until the operator norm is below threshold_mult*sqrt(n).

    At each step the leading left/right unit singular vectors (v, u) are
    computed and index i is sampled with probability (v_i^2 + u_i^2) / 2;
    row and column i are then zeroed.  Returns (cleaned, zeroed_indices).
    Zeroing is in-place on a copy, so m is left unchanged; the matrix keeps
    its original shape so all downstream indices stay in the input
    coordinates.  A step whose power solve the certificate proved below
    the threshold ends the loop; its trace row has "certified": true, the
    norm that certified ("S4" or "S8") and its bound.
    """
    cleaned = np.array(m, dtype=float, copy=True)
    return cleaned, _clean_in_place(cleaned, threshold_mult, seed, trace)


def _clean_in_place(cleaned: np.ndarray, threshold_mult: float, seed: int,
                    trace: list | None) -> np.ndarray:
    """spectral_clean's loop, zeroing the float matrix `cleaned` itself;
    returns the sorted zeroed indices."""
    n = cleaned.shape[0]
    if cleaned.shape[0] != cleaned.shape[1]:
        raise ParameterError("matrix must be square")
    threshold = threshold_mult * math.sqrt(n)
    rng = generator(seed)
    zeroed: list[int] = []
    warm = None
    for step in range(n + 1):
        sigma, u, v, iters, cert = _singular_triple(
            cleaned, seed=child(seed, step), v0=warm, below=threshold)
        if trace is not None:
            norm, bound = cert or (None, None)
            trace.append({"iteration": step, "top_singular_value": float(sigma),
                          "removed_index": None,
                          "certified": bound is not None and certifies(bound, threshold),
                          "norm": norm, "bound": bound})
        if sigma < threshold:   # a certified solve stops with its estimate below
            return np.array(sorted(zeroed), dtype=np.intp)
        p = 0.5 * (v * v + u * u)
        p = np.maximum(p, 0.0)
        total = p.sum()
        if not np.isfinite(total) or total <= 0:
            raise NumericalError("degenerate singular-vector mass")
        i = int(rng.choice(n, p=p / total))
        cleaned[i, :] = 0.0
        cleaned[:, i] = 0.0
        zeroed.append(i)
        warm = v
        if trace is not None:
            trace[-1]["removed_index"] = i
    raise NumericalError("cleaning loop exceeded n iterations; solver is inconsistent")


def clean_pair(obs: ObservedPair, seed: int, threshold_mult: float = 10.0,
               trace_path=None) -> CleanedPair:
    """Re-inject noise, then clean both matrices independently.

    One matrix at a time: G is drawn and hatA' built in its buffer, and
    hatA' is cleaned in place before H is drawn.  The noise stream is read
    G then H, as in reinject_noise, so the result equals spectral_clean on
    each output of reinject_noise(obs, child(seed, 0)).  obs is left
    unchanged.
    """
    return _clean_owned([obs.a_prime, obs.b_prime], seed, threshold_mult, trace_path)[0]


def _clean_owned(observed: list, seed: int, threshold_mult: float = 10.0,
                 trace_path=None) -> tuple[CleanedPair, ObservedPair]:
    """clean_pair on observed = [A', B'], which the list hands over: it is
    emptied, so a matrix the caller holds no other reference to dies as soon
    as its indicator x >= 1 is built, before its re-injected matrix is
    cleaned.  Returns the cleaned pair and the bool pair (A' >= 1, B' >= 1),
    which is all that refinement and selection read of A' and B'."""
    rng = _noise_stream(observed[0], observed[1], child(seed, 0))
    n = observed[0].shape[0]
    cleaned, zeroed, indicators, traces = [], [], [], []
    for side in (1, 2):
        m = observed.pop(0)
        hat = _reinject(m, _symmetric_standard_normal(n, rng))
        indicators.append(m >= 1.0)
        del m
        trace: list | None = [] if trace_path else None
        zeroed.append(_clean_in_place(hat, threshold_mult, child(seed, side), trace))
        cleaned.append(hat)
        traces.append(trace)
    if trace_path:
        with open(trace_path, "w") as fh:
            for name, tr in zip("ab", traces):
                for row in tr:
                    fh.write(json.dumps({"matrix": name, **row}) + "\n")
    s, t = zeroed
    cp = CleanedPair(a_clean=cleaned[0], b_clean=cleaned[1], s=s, t=t,
                     iters_a=len(s), iters_b=len(t))
    return cp, ObservedPair(*indicators)
