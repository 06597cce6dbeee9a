"""Linear-assignment finishing.

The matching signal lives in the row inner products of the final AMP
iterates: score[i, j] = <h_i, l_j>.  solve_lap finds an assignment that
maximises the total score exactly; the seed vertices are then spliced back
in to produce a full permutation.

Rank 1 (d = 1): score[i, j] = h_i l_j, and by the rearrangement inequality
(Hardy, Littlewood & Polya) pairing the k-th smallest h with the k-th
smallest l is optimal.  The solve is a sort, O(m log m), with ties broken
by label.

Higher rank: a dense O(m^3) solve that minimises the squared distance

    cost[i, j] = 1/2 |h_i - l_j|^2 = 1/2 |h_i|^2 + 1/2 |l_j|^2 - <h_i, l_j>

rather than -<h_i, l_j>.  The row and column potentials 1/2 |h_i|^2 and
1/2 |l_j|^2 come from the factors h and l; they add the same constant,
1/2 sum_i |h_i|^2 + 1/2 sum_j |l_j|^2, to every permutation's total, so
both forms have the same optimal assignments.  The rank-d inner
product alone is highly degenerate: every row ranks the columns by one
direction in R^d and prefers the same few far-out columns, so the
shortest-augmenting-path solver walks long paths.  Under the squared
distance each row prefers nearby columns and the paths stay short.  The
problem stays square: leaving columns out would make the column term
depend on the assignment.  A problem built by hand, without factors, is
solved on the plain cost -score.

The dense solver is SciPy's compiled kernel scipy.optimize._lsap, Crouse's
shortest augmenting path ("On implementing 2D rectangular assignment
algorithms", IEEE TAES 2016).  It is loaded by itself on the first dense
solve, from the installed scipy/optimize directory: the scipy.optimize
package would load about 510 modules (310 of them SciPy's), in about 0.4 s
and 46 MB, to reach this one function, and the kernel alone takes about
0.01 s and 6 MB.  A process that solves only rank-1 problems loads
neither.

Tied zero vertices: a row whose score row is exactly zero (Z_r; a vertex
zeroed by cleaning has h_i = 0) scores the same against every column, and
so does a column in Z_c, so any order among them is optimal, and the order
a solver returns depends on the solver and on the last bits of h.  Both
paths therefore end with one rule.  Every pair with i not in Z_r and
sigma(i) not in Z_c is kept; the other non-zero rows take the
smallest-label zero columns, in label order; the zero rows take the
remaining columns, in label order.  Every re-paired entry scores 0 before
and after, so the total is unchanged and sigma depends only on the optimum.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass
from importlib import machinery, util

import numpy as np

from .amp import AmpIterate, SeedPair
from .errors import ParameterError


_KERNEL = "scipy.optimize._lsap"


@functools.cache
def _kernel():
    """The module scipy.optimize._lsap, loaded without its package.

    It is registered in sys.modules under its own name, so a later
    `import scipy.optimize` reuses it: both then give one function object.
    """
    if _KERNEL in sys.modules:
        return sys.modules[_KERNEL]
    import scipy

    finder = machinery.FileFinder(os.path.join(scipy.__path__[0], "optimize"),
                                  (machinery.ExtensionFileLoader,
                                   machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_KERNEL)
    if spec is None:
        raise ModuleNotFoundError(f"SciPy's LAP kernel {_KERNEL} is not in {finder.path}",
                                  name=_KERNEL)
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_KERNEL] = module
    return module


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy.optimize.linear_sum_assignment(cost), from the kernel module
    alone: importing scipy.optimize would cost about 0.4 s and 46 MB of
    modules that the solve never uses, and rank 1 needs neither."""
    return _kernel().linear_sum_assignment(cost)


@dataclass(frozen=True)
class AssignmentProblem:
    """Maximise sum_i score[i, sigma(i)].

    h and l (None when the score was built by hand) are the factors of
    score = h l^T.  With one column each, solve_lap sorts instead of running
    the dense solver; with more, it derives the potentials 1/2 |h_i|^2 and
    1/2 |l_j|^2 of the squared-distance cost from them.
    """
    score: np.ndarray
    row_labels: np.ndarray
    col_labels: np.ndarray
    h: np.ndarray | None = None
    l: np.ndarray | None = None


def build_scores(it: AmpIterate) -> AssignmentProblem:
    """Dense score matrix h l^T over the non-seed vertices, with its factors."""
    if it.h is None or it.l is None:
        raise ParameterError("iterate carries no (h, l); run the linear step first")
    score = it.h @ it.l.T
    if not np.isfinite(score).all():
        raise ParameterError("non-finite assignment scores")
    return AssignmentProblem(score=score, row_labels=it.rows_i, col_labels=it.rows_j,
                             h=it.h, l=it.l)


def solve_lap(p: AssignmentProblem) -> np.ndarray:
    """Exact maximiser of sum_i score[i, sigma(i)], with tied zero vertices
    in the canonical order of the module docstring.

    A rank-1 problem with factors is solved by sorting.  Otherwise the dense
    solver minimises -score[i, j], plus 1/2 |h_i|^2 + 1/2 |l_j|^2 when the
    factors are present, built in place on the one negated copy of the
    score.  Returns sigma as an array: row i is assigned column sigma[i].
    """
    if p.score.shape[0] != p.score.shape[1]:
        raise ParameterError("score matrix must be square")
    sigma = np.empty(p.score.shape[0], dtype=np.intp)
    if p.h is not None and p.h.shape[1] == 1:
        sigma[np.lexsort((p.row_labels, p.h[:, 0]))] = np.lexsort((p.col_labels, p.l[:, 0]))
    else:
        cost = -p.score
        if p.h is not None:
            cost += 0.5 * np.einsum("ij,ij->i", p.h, p.h)[:, None]
            cost += 0.5 * np.einsum("ij,ij->i", p.l, p.l)[None, :]
        rows, cols = linear_sum_assignment(cost)
        del cost
        sigma[rows] = cols
    return _settle_zero_ties(p, sigma)


def _settle_zero_ties(p: AssignmentProblem, sigma: np.ndarray) -> np.ndarray:
    """Re-pair the rows in Z_r and the rows sent into Z_c by label order."""
    nonzero = p.score != 0
    zero_row = ~nonzero.any(axis=1)
    zero_col = ~nonzero.any(axis=0)
    if not (zero_row.any() or zero_col.any()):
        return sigma
    rows = np.argsort(p.row_labels, kind="stable")
    cols = np.argsort(p.col_labels, kind="stable")
    taken = np.zeros(len(sigma), dtype=bool)
    taken[sigma[~zero_row & ~zero_col[sigma]]] = True
    movers = rows[~zero_row[rows] & zero_col[sigma[rows]]]
    sigma[movers] = cols[zero_col[cols]][:len(movers)]
    taken[sigma[movers]] = True
    sigma[rows[zero_row[rows]]] = cols[~taken[cols]]
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
