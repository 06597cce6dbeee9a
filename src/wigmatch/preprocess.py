"""Noise re-injection and spectral cleaning.

Re-injection averages each observed matrix with a fresh symmetric Gaussian,
with opposite signs above and below the diagonal:

    hatA[i, j] = (A'[i, j] + G[i, j]) / sqrt(2)   for i > j
    hatA[i, j] = (A'[i, j] - G[i, j]) / sqrt(2)   for i < j

which halves the pair correlation and makes all entries i.i.d. N(0, 1)
again.  G is never held whole: each block of its rows is drawn
(model._noise_blocks) and applied to those rows of A' and to the mirrored
columns, in the matrix's own buffer (_reinject_in_place).  Cleaning then
repeatedly zeroes a row/column sampled from the leading singular vectors'
mass until the operator norm drops below THRESHOLD_MULT * sqrt(n).  Power
iteration finds the singular vectors at every n.

Power iteration proves the last step only slowly when no spike is left:
the top of the spectrum has no gap.  A solve whose estimate is below the
threshold tries a ladder of two Schatten-norm bounds on sigma_1, each rung
at most once and S4 before S8, as soon as its own iterates say that
converging would cost more than the rung: from the third iteration on,
the ratio r of the last two changes of sigma predicts the iterations
left, log(POWER_TOL * sigma / |change|) / log r, and a rung is tried once
that exceeds its measured cost in power iterations (_certificate_cost for
S4, RUNG_COST["S8"] times that for S8).  A change that does not contract
(r >= 1) predicts no tail: the estimate may still be climbing through the
threshold, so only S4 is tried on it.
The Schatten-4 norm S4 = (sum_i sigma_i^4)^(1/4) = ||P||_F^(1/2),
P = M^T M, is summed over the blocks of P on and above its diagonal, so P
is never held whole; only for the Schatten-8 norm, after S4 failed, is P
formed: S8 = ||P P||_F^(1/4) = S4(P)^(1/2) (P is symmetric), summed over
the blocks of P P on and above its diagonal alike, and S4 >= S8 >= sigma_1.
When the bound lies below the threshold the loop stops there.  Power
iteration's estimate never exceeds sigma_1, so the uncertified loop would
have stopped at the same step and the zeroed sets are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .model import (IndicatorBits, ObservedPair, _noise_blocks, _pack_indicator, _row_blocks,
                    _symmetric_standard_normal)
from .rng import child, generator

THRESHOLD_MULT = 10.0   # cleaning stops below THRESHOLD_MULT * sqrt(n)
POWER_TOL = 1e-10       # a power solve stops at this relative change of sigma
# The bound certifies only below threshold * (1 - CERTIFY_MARGIN), far
# outside its rounding error.
CERTIFY_MARGIN = 1e-9
# Rows of M^T M per block of its sum of squares (of P P, for S8, with P = M^T M).
BOUND_ROWS = 256
# What each rung costs in S4s.  Forming P and its S4, once S4 has failed,
# took 1.7-2.7 S4s at n = 500, 1000, 2000, 3000 and 5000, timed as
# _certificate_cost was.
RUNG_COST = {"S4": 1.0, "S8": 2.0}


@dataclass(frozen=True)
class CleanedPair:
    a_clean: np.ndarray
    b_clean: np.ndarray
    s: np.ndarray
    t: np.ndarray

    @property
    def n(self) -> int:
        return self.a_clean.shape[0]


def reinject_noise(obs: ObservedPair, seed: int,
                   g: np.ndarray | None = None,
                   h: np.ndarray | None = None):
    """Produce (hatA', hatB', G, H).  The outputs are not symmetric.

    A' and B' are copied, and each copy is re-injected in place by
    _reinject_in_place from the blocks of G (H).  g, h may be supplied
    explicitly (test hook, left unchanged) as symmetric matrices, of which
    only the part above the diagonal is read; otherwise they are sampled by
    model._symmetric_standard_normal, G before H.
    """
    rng = _noise_stream(obs.a_prime, obs.b_prime, seed)
    g = _symmetric_standard_normal(obs.n, rng) if g is None else g
    h = _symmetric_standard_normal(obs.n, rng) if h is None else h
    hats = []
    for m, noise in ((obs.a_prime, g), (obs.b_prime, h)):
        hat, noise = np.array(m, dtype=float), np.asarray(noise, dtype=float)
        _reinject_in_place(hat, ((rows, upper, noise[rows]) for rows, upper in _row_blocks(obs.n)))
        hats.append(hat)
    return hats[0], hats[1], g, h


def _noise_stream(a_prime: np.ndarray, b_prime: np.ndarray, seed: int) -> np.random.Generator:
    """The noise generator, once the pair is checked square and of one size."""
    n = a_prime.shape[0]
    if a_prime.shape != (n, n) or b_prime.shape != (n, n):
        raise ParameterError("observed pair must be square and same size")
    return generator(seed)


def _reinject_in_place(m: np.ndarray, blocks) -> None:
    """Overwrite the float matrix m with its re-injected matrix, from the
    blocks of G in model._noise_blocks' format, (rows, upper, g), each g
    read only above the diagonal: there each block's rows become
    (m - g) / sqrt(2), and the mirrored columns below it (m + g) / sqrt(2),
    each with two roundings.  The diagonal becomes zero."""
    for rows, upper, g in blocks:
        for block, op in ((m[rows], np.subtract), (m.T[rows], np.add)):
            op(block, g, out=block, where=upper)
            np.divide(block, math.sqrt(2.0), out=block, where=upper)
    np.fill_diagonal(m, 0.0)


def certificate(m: np.ndarray, below: float, rungs=tuple(RUNG_COST)) -> tuple[str, float]:
    """The first of rungs, of the ladder S4 >= S8 >= sigma_1, that certifies
    sigma_1 < below, as (norm, bound); the last one's when none does.
    P = M^T M is formed only for S8."""
    for norm in rungs:
        # P is symmetric, so ||P P||_F = ||P^T P||_F = S4(P)^2
        bound = _schatten4(m) if norm == "S4" else math.sqrt(_schatten4(m.T @ m))
        if certifies(bound, below):
            break
    return norm, bound


def _schatten4(m: np.ndarray) -> float:
    """||M^T M||_F^(1/2), summed over BOUND_ROWS column blocks of M: each
    block's diagonal block of P = M^T M once and the blocks right of it
    twice, so no more than a BOUND_ROWS x n block of P is held."""
    total = 0.0
    for start in range(0, m.shape[1], BOUND_ROWS):
        left = m[:, start:start + BOUND_ROWS]
        diag = left.T @ left
        right = left.T @ m[:, start + BOUND_ROWS:]
        total += float(np.vdot(diag, diag)) + 2.0 * float(np.vdot(right, right))
    return math.sqrt(math.sqrt(total))


def _certificate_cost(n: int) -> float:
    """What an S4 of an n x n matrix costs in power iterations (two
    matrix-vector products each): 18-22, 38, 63-67, 82-90, 99 and 128 at
    n = 500, 1000, 2000, 3000, 5000 and 10 000, each the best of 5-7
    timings of a random n x n after a warm-up call, under two OpenBLAS
    threads on two cores; this fit gives 21, 34, 55, 73, 105 and 170."""
    return 0.27 * n ** 0.7


def _iterations_left(delta: float, delta_prev: float, sigma: float) -> float:
    """The power iterations until the change of sigma falls to POWER_TOL *
    max(sigma, 1), if it keeps contracting by the ratio of its last two
    values, delta and delta_prev (both > 0); infinite if it does not
    contract."""
    r = delta / delta_prev
    if r >= 1.0:
        return math.inf
    return math.log(POWER_TOL * max(sigma, 1.0) / delta) / math.log(r)


def certifies(bound: float, below: float) -> bool:
    """Whether an upper bound on sigma_1 proves sigma_1 < below, with margin."""
    return bound <= below * (1.0 - CERTIFY_MARGIN)


def _singular_triple(m, max_iter=10000, seed=0, v0=None, below=None):
    """Leading singular value and unit left/right singular vectors, the
    iteration count and the last certificate tried (norm, bound), or None,
    by power iteration: M v / M^T u alternate until the singular-value
    estimate stagnates.

    With `below` given, an unconverged solve whose estimate is under
    `below` tries each rung of the certificate once, S4 before S8, at the
    first iteration from the third on where _iterations_left exceeds the
    rung's cost, RUNG_COST times _certificate_cost(n), S8 only where that
    prediction is finite, and stops there if its bound certifies
    sigma_1 < below.  The tries move only the iteration at which the loop
    may stop, never its arithmetic.  The returned sigma is always power
    iteration's estimate, a lower bound on sigma_1.
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
    delta_prev = math.inf
    u = np.zeros(n)
    cert = None
    untried = list(RUNG_COST) if below is not None else []
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
        delta = abs(sigma - sigma_prev)
        if delta <= POWER_TOL * max(sigma, 1.0):
            return float(sigma), u, v, it, cert
        if untried and sigma < below and it >= 3:
            left = _iterations_left(delta, delta_prev, sigma)
            # left is infinite when the change does not contract: sigma may
            # still be rising through `below`, so P is not formed for S8
            rungs = [r for r in untried if left > RUNG_COST[r] * _certificate_cost(n)
                     and (r == "S4" or left < math.inf)]
            if rungs:
                cert = certificate(m, below, rungs)
                if certifies(cert[1], below):
                    return float(sigma), u, v, it, cert
                del untried[:len(rungs)]
        sigma_prev, delta_prev = sigma, delta
    raise NumericalError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last sigma={sigma_prev:.6g}, delta={delta_prev:.3g})")


def spectral_clean(m: np.ndarray, seed: int = 0, trace: list | None = None):
    """Zero out rows/columns until the operator norm is below THRESHOLD_MULT*sqrt(n).

    At each step the leading left/right unit singular vectors (v, u) are
    computed and index i is sampled with probability (v_i^2 + u_i^2) / 2;
    row and column i are then zeroed.  Returns (cleaned, zeroed_indices).
    Zeroing is in-place on a copy, so m is left unchanged; the matrix keeps
    its original shape so all downstream indices stay in the input
    coordinates.  A step whose power solve the certificate proved below
    the threshold ends the loop (see _singular_triple for when a solve
    tries it); its trace row has "certified": true, the norm that certified
    ("S4" or "S8") and its bound.  Every trace row also has the solve's
    "power_iterations".
    """
    cleaned = np.array(m, dtype=float, copy=True)
    return cleaned, _clean_in_place(cleaned, seed, trace)


def _clean_in_place(cleaned: np.ndarray, seed: int, trace: list | None) -> np.ndarray:
    """spectral_clean's loop, zeroing the float matrix `cleaned` itself;
    returns the sorted zeroed indices."""
    n = cleaned.shape[0]
    if cleaned.shape[0] != cleaned.shape[1]:
        raise ParameterError("matrix must be square")
    threshold = THRESHOLD_MULT * math.sqrt(n)
    rng = generator(seed)
    zeroed: list[int] = []
    start, warm = child(seed, 0), None   # every later solve starts from the last v
    for step in range(n + 1):
        sigma, u, v, iters, cert = _singular_triple(
            cleaned, seed=start, v0=warm, below=threshold)
        if trace is not None:
            norm, bound = cert or (None, None)
            trace.append({"iteration": step, "top_singular_value": float(sigma),
                          "power_iterations": iters, "removed_index": None,
                          "certified": bound is not None and certifies(bound, threshold),
                          "norm": norm, "bound": bound})
        if sigma < threshold:   # a certified solve stops with its estimate below
            return np.array(sorted(zeroed), dtype=np.intp)
        p = 0.5 * (v * v + u * u)
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


def clean_pair(obs: ObservedPair, seed: int, threshold_mult: float = THRESHOLD_MULT) -> CleanedPair:
    """Re-inject noise, then clean both matrices independently.

    obs is copied, so it is left unchanged, and each copy becomes its
    cleaned matrix in its own buffer (see _clean_owned).  The noise stream
    is read G then H, as in reinject_noise, so the result equals
    spectral_clean on each output of reinject_noise(obs, child(seed, 0)).
    threshold_mult accepts only THRESHOLD_MULT.
    """
    if threshold_mult != THRESHOLD_MULT:
        raise ParameterError(f"threshold_mult must be {THRESHOLD_MULT}, got {threshold_mult!r}")
    observed = [np.array(obs.a_prime, dtype=float), np.array(obs.b_prime, dtype=float)]
    return _clean_owned(observed, seed)[0]


def _clean_owned(observed: list, seed: int,
                 trace: list | None = None) -> tuple[CleanedPair, IndicatorBits]:
    """clean_pair on observed = [A', B'], float matrices which the list hands
    over: it is emptied, and one matrix at a time, its indicator x >= 1 is
    packed into bits, a block of rows at a time, the noise is re-injected
    over it in place (G for A', then H for B') and it is cleaned in place,
    so cleaning holds no n x n matrix beyond the pair, not even a bool one.
    Returns the cleaned pair and the IndicatorBits of (A', B'), which is
    all that refinement and selection read of A' and B'.  With `trace` a
    list, every solve's trace row is appended to it, with "matrix" "a" or
    "b"."""
    rng = _noise_stream(observed[0], observed[1], child(seed, 0))
    cleaned, zeroed, indicators = [], [], []
    for side, name in ((1, "a"), (2, "b")):
        m = observed.pop(0)
        indicators.append(_pack_indicator(m))
        _reinject_in_place(m, _noise_blocks(m.shape[0], rng))
        rows: list | None = [] if trace is not None else None
        zeroed.append(_clean_in_place(m, child(seed, side), rows))
        cleaned.append(m)
        if trace is not None:
            trace.extend({"matrix": name, **row} for row in rows)
    cp = CleanedPair(a_clean=cleaned[0], b_clean=cleaned[1], s=zeroed[0], t=zeroed[1])
    return cp, IndicatorBits(*indicators)
