"""Reference AMG coarsening and the invariants of one aggregation pass.

``coarsen_once`` forms every pass's coarse operator as the sparse triple
product ``P^T A P`` and composes the passes' prolongations with a sparse
product, over the aggregates ``repro.solvers.amg.pairwise_aggregate``
produces.  The array-form setup must give the same coarse operators up to
summation order; ``tests/test_solvers_amg_oracle.py`` holds it to these.
``assert_valid_aggregation`` states what any pass must produce, read from
its output and the matrix alone.  Nothing in ``src/`` calls these.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.solvers.amg import AMGOptions, pairwise_aggregate


def candidate_edges(
    matrix: sp.csr_matrix, strength_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` for every candidate ``j`` of row ``i``.

    A candidate is a negative off-diagonal with ``|a_ij|`` at least
    *strength_threshold* times the row's largest such coupling.
    """
    coo = sp.coo_matrix(matrix)
    negative = (coo.data < 0.0) & (coo.row != coo.col)
    rows, cols, strength = coo.row[negative], coo.col[negative], -coo.data[negative]
    strongest = np.zeros(matrix.shape[0])
    np.maximum.at(strongest, rows, strength)
    keep = strength >= strength_threshold * strongest[rows]
    return rows[keep], cols[keep]


def assert_valid_aggregation(
    matrix: sp.csr_matrix, strength_threshold: float, agg: np.ndarray
) -> None:
    """Every invariant of one pass, checked against *matrix*.

    * every node is assigned, ids are dense, and no aggregate has more
      than three nodes (a pair and one joiner);
    * an aggregate of two or more nodes is connected by candidate edges;
    * a singleton has no candidate at all, or none in a pair, or was
      turned away: a candidate of it in a bare (two-node) pair means the
      pair it asked took another joiner, so one of its candidates is in a
      three-node aggregate;
    * the same input gives the same output.
    """
    n = matrix.shape[0]
    assert agg.shape == (n,) and agg.dtype == np.int64
    assert (agg >= 0).all(), "a node is left unassigned"
    sizes = np.bincount(agg)
    assert (sizes > 0).all(), "aggregate ids are not dense"
    assert (sizes <= 3).all(), "an aggregate has more than one joiner"

    rows, cols = candidate_edges(matrix, strength_threshold)
    inside = agg[rows] == agg[cols]
    graph = sp.coo_matrix(
        (np.ones(int(inside.sum())), (rows[inside], cols[inside])), shape=(n, n)
    )
    # Edges inside aggregates only: every aggregate is at least one piece.
    pieces, _ = connected_components(graph, directed=False)
    assert pieces == sizes.size, "an aggregate is not connected by candidates"

    # next_to[s, i]: singleton i has a candidate in an aggregate of s nodes.
    alone = sizes[agg[rows]] == 1
    next_to = np.zeros((4, n), dtype=bool)
    next_to[sizes[agg[cols[alone]]], rows[alone]] = True
    assert not (next_to[2] & ~next_to[3]).any(), "a singleton skipped a pair"
    again = pairwise_aggregate(matrix.copy(), strength_threshold)
    assert np.array_equal(again, agg), "two calls on one input disagree"


def aggregation_to_prolongation(agg: np.ndarray) -> sp.csr_matrix:
    """Piecewise-constant prolongation from an aggregate assignment."""
    n = agg.shape[0]
    n_coarse = int(agg.max()) + 1 if n else 0
    data = np.ones(n, dtype=float)
    rows = np.arange(n, dtype=np.int64)
    return sp.csr_matrix((data, (rows, agg)), shape=(n, n_coarse))


def galerkin_product(matrix: sp.csr_matrix, agg: np.ndarray) -> sp.csr_matrix:
    """``P^T A P`` as a sparse triple product, for *agg*'s ``P``."""
    p = aggregation_to_prolongation(agg)
    coarse = sp.csr_matrix(p.T @ matrix @ p)
    coarse.sum_duplicates()
    return coarse


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
        current = galerkin_product(current, agg)
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
