"""Linear-assignment finishing.

The matching signal lives in the row inner products of the final AMP
iterates: score[i, j] = <h_i, l_j>.  The assignment maximising the total
score is solved exactly in O(m^3); the seed vertices are then spliced back
in to produce a full permutation.

The solver minimises the squared distance

    cost[i, j] = 1/2 |h_i - l_j|^2 = 1/2 |h_i|^2 + 1/2 |l_j|^2 - <h_i, l_j>

rather than -<h_i, l_j>.  The row term and the column term add the same
constant, 1/2 sum_i |h_i|^2 + 1/2 sum_j |l_j|^2, to every permutation's
total, so both forms have the same optimal assignments.  The rank-d inner
product alone is highly degenerate: every row ranks the columns by one
direction in R^d and prefers the same few far-out columns, so the
shortest-augmenting-path solver walks long paths.  Under the squared
distance each row prefers nearby columns and the paths stay short.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .amp import AmpIterate, SeedPair
from .errors import ParameterError


@dataclass(frozen=True)
class AssignmentProblem:
    """Maximise sum_i score[i, sigma(i)].

    row_potential and col_potential (None means zero) are added to the cost
    -score by row and by column; they shift every assignment's total by the
    same constant, so they change the solver's work, not its optimum.
    """
    score: np.ndarray
    row_labels: np.ndarray
    col_labels: np.ndarray
    row_potential: np.ndarray | None = None
    col_potential: np.ndarray | None = None


def build_scores(it: AmpIterate) -> AssignmentProblem:
    """Dense score matrix h l^T over the non-seed vertices, with the
    potentials 1/2 |h_i|^2 and 1/2 |l_j|^2 of the squared-distance cost."""
    if it.h is None or it.l is None:
        raise ParameterError("iterate carries no (h, l); run the linear step first")
    score = it.h @ it.l.T
    if not np.isfinite(score).all():
        raise ParameterError("non-finite assignment scores")
    return AssignmentProblem(score=score, row_labels=it.rows_i, col_labels=it.rows_j,
                             row_potential=0.5 * np.einsum("ij,ij->i", it.h, it.h),
                             col_potential=0.5 * np.einsum("ij,ij->i", it.l, it.l))


def solve_lap(p: AssignmentProblem) -> np.ndarray:
    """Exact maximiser of sum_i score[i, sigma(i)].

    Minimises -score[i, j] + row_potential[i] + col_potential[j], built in
    place on the one negated copy of the score.  Returns sigma as an array:
    row i is assigned column sigma[i].
    """
    if p.score.shape[0] != p.score.shape[1]:
        raise ParameterError("score matrix must be square")
    cost = -p.score
    if p.row_potential is not None:
        cost += p.row_potential[:, None]
    if p.col_potential is not None:
        cost += p.col_potential[None, :]
    rows, cols = linear_sum_assignment(cost)
    sigma = np.empty(p.score.shape[0], dtype=np.intp)
    sigma[rows] = cols
    return sigma


def assemble_pi(seeds: SeedPair, p: AssignmentProblem, sigma: np.ndarray) -> np.ndarray:
    """Full permutation: pi(u_k) = v_k on seeds, the assignment elsewhere."""
    n = len(p.row_labels) + seeds.k0
    pi = np.full(n, -1, dtype=np.intp)
    pi[np.asarray(seeds.u_seq, dtype=np.intp)] = np.asarray(seeds.v_seq, dtype=np.intp)
    pi[p.row_labels] = p.col_labels[sigma]
    if np.any(pi < 0) or len(set(pi.tolist())) != n:
        raise RuntimeError("assembled map is not a permutation; index bookkeeping bug")
    return pi
