"""Reference AMG coarsening (moved from ``repro.solvers.amg``).

``pairwise_aggregate`` orders each row's candidates with one stable
``np.lexsort``; ``coarsen_once`` forms every pass's coarse operator as the
sparse triple product ``P^T A P`` and composes the passes' prolongations
with a sparse product.  The array-form setup in ``repro.solvers.amg``
must produce the same aggregates and, up to summation order, the same
coarse operators; ``tests/test_solvers_amg_oracle.py`` holds it to these.
The smoothed-aggregation branch ``coarsen_once`` used to carry is gone
with its option.  Nothing in ``src/`` calls these.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.solvers.amg import AMGOptions

_UNAGGREGATED = -1


def pairwise_aggregate(matrix: sp.csr_matrix, strength_threshold: float) -> np.ndarray:
    """One pass of pairwise aggregation.

    Returns an array ``agg`` with ``agg[i]`` = aggregate id of node *i*;
    ids are dense in ``[0, n_aggregates)``.  Nodes are visited in order of
    ascending degree (fewer connections first), which is the usual
    heuristic to avoid stranding weakly connected nodes as singletons.
    """
    n = matrix.shape[0]
    indptr, data = matrix.indptr, matrix.data
    degrees = np.diff(indptr)
    rows = np.repeat(np.arange(n), degrees)
    # Coupling strength per stored entry: -a_ij for negative off-diagonals.
    strength = np.where((data < 0.0) & (matrix.indices != rows), -data, 0.0)
    strongest = np.zeros(n)
    nonempty = degrees > 0
    strongest[nonempty] = np.maximum.reduceat(strength, indptr[:-1][nonempty])
    candidate = (strength > 0.0) & (strength >= strength_threshold * strongest[rows])
    # Each row's candidates by descending strength; the stable sort keeps
    # storage order among equals, so "first unaggregated candidate" below
    # is the row's strongest still-free neighbour, earliest stored on ties.
    cand_rows = rows[candidate]
    by_strength = np.lexsort((-strength[candidate], cand_rows))
    cand_cols = matrix.indices[candidate][by_strength].tolist()
    cand_ptr = np.concatenate(([0], np.cumsum(np.bincount(cand_rows, minlength=n))))
    cand_ptr = cand_ptr.tolist()

    # The matching itself is sequential (a pick removes a neighbour from
    # later rows' choices); it runs over plain lists.
    agg = [_UNAGGREGATED] * n
    next_id = 0
    for i in np.argsort(degrees, kind="stable").tolist():
        if agg[i] != _UNAGGREGATED:
            continue
        agg[i] = next_id
        for j in cand_cols[cand_ptr[i] : cand_ptr[i + 1]]:
            if agg[j] == _UNAGGREGATED:
                agg[j] = next_id
                break
        next_id += 1
    return np.array(agg, dtype=np.int64)


def aggregation_to_prolongation(agg: np.ndarray) -> sp.csr_matrix:
    """Piecewise-constant prolongation from an aggregate assignment."""
    n = agg.shape[0]
    n_coarse = int(agg.max()) + 1 if n else 0
    data = np.ones(n, dtype=float)
    rows = np.arange(n, dtype=np.int64)
    return sp.csr_matrix((data, (rows, agg)), shape=(n, n_coarse))


def coarsen_once(
    matrix: sp.csr_matrix, options: AMGOptions
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """One level of (possibly multi-pass) pairwise coarsening.

    Returns ``(P, A_coarse)`` where ``A_coarse = P^T A P``.
    """
    tentative: sp.csr_matrix | None = None
    current = matrix
    for _ in range(options.passes_per_level):
        agg = pairwise_aggregate(current, options.strength_threshold)
        p_step = aggregation_to_prolongation(agg)
        current = sp.csr_matrix(p_step.T @ current @ p_step)
        current.sum_duplicates()
        tentative = p_step if tentative is None else sp.csr_matrix(
            tentative @ p_step
        )
        if current.shape[0] <= options.max_coarse_size:
            break
    if tentative is None:
        raise ValueError(
            "pairwise coarsening produced no prolongation; "
            "passes_per_level must be >= 1"
        )
    return tentative, current


def build_levels(
    matrix: sp.csr_matrix, options: AMGOptions
) -> list[tuple[sp.csr_matrix, sp.csr_matrix | None]]:
    """``build_hierarchy``'s level loop over the reference coarsening.

    Returns ``(A_l, P_l)`` per level, ``P`` ``None`` on the coarsest.
    """
    levels: list[list] = [[sp.csr_matrix(matrix), None]]
    while (
        levels[-1][0].shape[0] > options.max_coarse_size
        and len(levels) < options.max_levels
    ):
        prolongation, coarse = coarsen_once(levels[-1][0], options)
        if coarse.shape[0] >= levels[-1][0].shape[0]:
            break
        levels[-1][1] = prolongation
        levels.append([coarse, None])
    return [tuple(level) for level in levels]
