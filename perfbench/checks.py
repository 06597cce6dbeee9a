"""Output checks of the benchmark.

Each check tests a property that the method guarantees at any problem size,
so none compares against stored output and none asserts a recovery level.
A failed check raises CheckError naming the stage and what went wrong.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse.linalg import svds


class CheckError(Exception):
    """An output of the program violates a property it must have."""


def _require(ok, stage: str, message: str) -> None:
    if not ok:
        raise CheckError(f"{stage}: {message}")


def _is_permutation(pi: np.ndarray, n: int) -> bool:
    pi = np.asarray(pi)
    return pi.shape == (n,) and np.array_equal(np.sort(pi), np.arange(n))


def check_record(record: dict) -> None:
    _require(record.get("status") == "ok", "record",
             f"status {record.get('status')!r}: {record.get('error')}")
    _require(record.get("exit_code") == 0, "record",
             f"exit code {record.get('exit_code')!r}")


def check_generate(a: np.ndarray, b: np.ndarray, pi_star: np.ndarray) -> None:
    n = a.shape[0]
    for name, m in (("A", a), ("B", b)):
        _require(m.shape == (n, n), "generate", f"{name} has shape {m.shape}")
        _require(np.array_equal(m, m.T), "generate", f"{name} is not symmetric")
        _require(not np.any(np.diag(m)), "generate", f"{name} has a nonzero diagonal")
    _require(_is_permutation(pi_star, n), "generate", "pi_star is not a permutation")


def _outside_block(diff: np.ndarray, idx: np.ndarray) -> int:
    """Number of nonzero entries of diff outside idx x idx."""
    inside = np.zeros(diff.shape[0], dtype=bool)
    inside[idx] = True
    return int(np.count_nonzero(diff[~(inside[:, None] & inside[None, :])]))


def check_corrupt(a: np.ndarray, b: np.ndarray, a_prime: np.ndarray,
                  b_prime: np.ndarray, q: np.ndarray, r: np.ndarray,
                  epsilon: float) -> None:
    n = a.shape[0]
    k = math.ceil(epsilon * n)
    for name, idx in (("Q", q), ("R", r)):
        _require(idx.size == k and np.unique(idx).size == k, "corrupt",
                 f"|{name}| = {np.unique(idx).size} distinct of {idx.size}, expected {k}")
    bad_a = _outside_block(a_prime - a, q)
    bad_b = _outside_block(b_prime - b, r)
    _require(bad_a == 0, "corrupt", f"A' - A has {bad_a} nonzero entries outside Q x Q")
    _require(bad_b == 0, "corrupt", f"B' - B has {bad_b} nonzero entries outside R x R")


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value by Lanczos (ARPACK), from a fixed start vector."""
    v0 = np.random.default_rng(0).standard_normal(m.shape[0])
    return float(svds(m, k=1, v0=v0, return_singular_vectors=False)[0])


def check_clean(a_clean: np.ndarray, b_clean: np.ndarray, s: np.ndarray,
                t: np.ndarray, threshold_mult: float) -> None:
    n = a_clean.shape[0]
    limit = threshold_mult * math.sqrt(n)
    for name, m, idx in (("A", a_clean, s), ("B", b_clean, t)):
        _require(not np.any(m[idx, :]) and not np.any(m[:, idx]), "clean_pair",
                 f"cleaned {name} has nonzero entries in a zeroed row or column")
        norm = operator_norm(m)
        _require(norm < limit, "clean_pair",
                 f"cleaned {name} has operator norm {norm:.6g} >= {limit:.6g}")


def check_amp(h: np.ndarray, l: np.ndarray, n: int, k0: int, d: int) -> None:
    for name, m in (("h", h), ("l", l)):
        _require(m.shape == (n - k0, d), "run_amp",
                 f"{name} has shape {m.shape}, expected {(n - k0, d)}")
        _require(np.isfinite(m).all(), "run_amp", f"{name} has non-finite entries")


def check_lap(score: np.ndarray, sigma: np.ndarray, h: np.ndarray | None = None,
              l: np.ndarray | None = None) -> None:
    """No exchange of two rows' columns raises the total.  For a rank-1
    score h l^T, also compare against the rearrangement optimum."""
    m = score.shape[0]
    _require(_is_permutation(sigma, m), "solve_lap", "sigma is not a permutation")
    p = score[:, sigma]                       # p[i, j] = score[i, sigma(j)]
    own = np.diag(p)
    gain = p + p.T - own[:, None] - own[None, :]
    scale = max(1.0, float(np.abs(score).max()))
    worst = float(gain.max())
    _require(worst <= 1e-9 * scale, "solve_lap",
             f"exchanging two rows' columns raises the total by {worst:.6g}")
    if h is not None and h.shape[1] == 1:
        total = float(own.sum())
        best = float(np.sort(h[:, 0]) @ np.sort(l[:, 0]))
        _require(abs(total - best) <= 1e-9 * abs(best), "solve_lap",
                 f"total {total!r} differs from the rearrangement optimum {best!r}")


def check_assemble(pi: np.ndarray, u_seq: np.ndarray, v_seq: np.ndarray) -> None:
    _require(_is_permutation(pi, pi.shape[0]), "assemble_pi", "result is not a permutation")
    _require(np.array_equal(pi[np.asarray(u_seq)], np.asarray(v_seq)), "assemble_pi",
             "a seed u_k is not mapped to v_k")


def qualifying_pairs(a_prime: np.ndarray, b_prime: np.ndarray, pi: np.ndarray,
                     alpha: float, delta: float) -> int:
    """Pairs (u, v) that the swap rule would still accept under pi.

    N(u, v) = C(u, v) - alpha d_A(u) - alpha d_B(v) + n alpha^2, with C the
    exact co-neighbour count sum_w 1{A'[u,w] >= 1} 1{B'[v,pi(w)] >= 1}.
    The 0/1 products are summed in float32, exact for counts below 2^24.
    """
    n = a_prime.shape[0]
    ind_a = (a_prime >= 1.0).astype(np.float32)
    ind_b = (b_prime >= 1.0).astype(np.float32)
    counts = np.rint(ind_a @ ind_b[:, pi].T).astype(np.int64)
    deg_a = np.count_nonzero(ind_a, axis=1)
    deg_b = np.count_nonzero(ind_b, axis=1)
    stat = counts - alpha * deg_a[:, None] - alpha * deg_b[None, :] + n * alpha * alpha
    inv = np.empty(n, dtype=np.intp)
    inv[pi] = np.arange(n)
    idx = np.arange(n)
    cur_u = stat[idx, pi]
    cur_v = stat[inv, idx]
    qual = (stat >= delta) & (cur_u[:, None] < delta / 10.0) & (cur_v[None, :] < delta / 10.0)
    return int(np.count_nonzero(qual))


def check_refine(a_prime: np.ndarray, b_prime: np.ndarray, pi: np.ndarray,
                 alpha: float, delta: float, truncated: bool) -> None:
    n = a_prime.shape[0]
    _require(_is_permutation(pi, n), "seeded_refine", "result is not a permutation")
    if truncated:
        return
    left = qualifying_pairs(a_prime, b_prime, np.asarray(pi, dtype=np.intp), alpha, delta)
    _require(left == 0, "seeded_refine",
             f"{left} pairs still qualify under the swap rule after an untruncated run")


def exact_selection_score(a_prime: np.ndarray, b_prime: np.ndarray, pi: np.ndarray) -> int:
    """Unordered pairs u < v with A'[u,v] >= 1 and B'[pi(u),pi(v)] >= 1,
    counted over all ordered pairs of the symmetric indicators and halved."""
    pi = np.asarray(pi, dtype=np.intp)
    both = (a_prime >= 1.0) & (b_prime[np.ix_(pi, pi)] >= 1.0)
    ordered = int(np.count_nonzero(both)) - int(np.count_nonzero(np.diag(both)))
    return ordered // 2


def check_select(a_prime: np.ndarray, b_prime: np.ndarray, candidates: list,
                 scores: list, pi_final: np.ndarray) -> None:
    _require(np.array_equal(a_prime, a_prime.T) and np.array_equal(b_prime, b_prime.T),
             "final_select", "the observed pair is not symmetric")
    exact = [exact_selection_score(a_prime, b_prime, pi) for pi in candidates]
    _require(list(scores) == exact, "final_select",
             f"selection scores {list(scores)} differ from exact counts {exact}")
    first = exact.index(max(exact))
    _require(np.array_equal(pi_final, candidates[first]), "final_select",
             f"selected permutation is not candidate {first}, the first maximiser")


REPLAYED_FIELDS = ("overlap_lap", "overlap_refine", "swaps", "select_score")


def check_replay(record: dict, candidates: list[dict], select_scores: list) -> None:
    """The traced replay reproduces the timed run's record exactly."""
    recorded = record["candidates"]
    _require(len(recorded) == len(candidates), "replay",
             f"{len(candidates)} candidates replayed, {len(recorded)} recorded")
    for rec, rep in zip(recorded, candidates):
        for key in REPLAYED_FIELDS:
            if key in rep:
                _require(rec.get(key) == rep[key], "replay",
                         f"candidate {rec['label']}: {key} recorded {rec.get(key)!r}, "
                         f"replayed {rep[key]!r}")
    _require(record["final"]["select_scores"] == list(select_scores), "replay",
             "final select_scores differ from the replay")
