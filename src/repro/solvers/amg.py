"""Aggregation-based algebraic multigrid hierarchy.

Setup stage of the AMG-PCG solver (Fig. 3): "the solver recursively selects
coarser levels of the problem by grouping nodes and connections into
progressively coarser grids".  The grouping here is Notay-style *pairwise
aggregation*: each fine node is matched with its strongest negatively
coupled neighbour; two matching passes per level ("double pairwise") give a
coarsening factor near four.  Coarse operators are Galerkin products
``A_c = P^T A P`` with piecewise-constant prolongation, so both ``P`` and
``A_c`` follow from the aggregate vector alone: ``A_c[I, J]`` is the sum of
``a_ij`` over ``agg[i] = I``, ``agg[j] = J``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.obs import counter_add
from repro.obs.registry import AMG_RELAXATION_BUILDS
from repro.solvers.base import check_system
from repro.solvers.smoothers import RELAXATIONS, Relaxation

_UNAGGREGATED = -1

#: Held while a hierarchy builds its level relaxations: threads that
#: first-use one cached hierarchy together build (and count) them once.
_RELAXATION_LOCK = threading.Lock()


@dataclass(frozen=True)
class AMGOptions:
    """Hierarchy construction knobs.

    Attributes
    ----------
    max_levels:
        Cap on hierarchy depth (including the finest level).
    max_coarse_size:
        Stop coarsening once a level has at most this many unknowns.
    strength_threshold:
        A neighbour *j* of *i* is a pairing candidate when
        ``|a_ij| >= strength_threshold * max_k |a_ik|`` over negative
        off-diagonals; weak couplings are never aggregated together.
    passes_per_level:
        Pairwise matching passes per level (2 = double pairwise, the
        PowerRush/AGMG default).
    """

    max_levels: int = 20
    max_coarse_size: int = 64
    strength_threshold: float = 0.25
    passes_per_level: int = 2

    def __post_init__(self) -> None:
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if self.max_coarse_size < 1:
            raise ValueError("max_coarse_size must be >= 1")
        if not 0.0 <= self.strength_threshold <= 1.0:
            raise ValueError("strength_threshold must be in [0, 1]")
        if self.passes_per_level < 1:
            raise ValueError("passes_per_level must be >= 1")


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
    # Each row's candidates by descending strength, storage order among
    # equals, so "first unaggregated candidate" below is the row's
    # strongest still-free neighbour, earliest stored on ties.
    cand_rows = rows[candidate]
    by_strength = _descending_within_rows(cand_rows, strength[candidate])
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


def _descending_within_rows(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Order by ``rows`` (nondecreasing), then descending value, ties stable.

    One unstable sort ranks the values (equal values share a rank), then a
    stable sort of ``row * k + rank`` — already in row order, so it is
    nearly a linear pass — keeps storage order among equals.  Both sorts
    are O(k log k) whatever one row's length.
    """
    k = values.size
    descending = np.argsort(-values)
    ordered = values[descending]
    new_value = np.empty(k, dtype=bool)
    new_value[:1] = False
    new_value[1:] = ordered[1:] != ordered[:-1]
    rank = np.empty(k, dtype=np.int64)
    rank[descending] = np.cumsum(new_value)
    return np.argsort(rows * k + rank, kind="stable")


def _num_aggregates(agg: np.ndarray) -> int:
    return int(agg.max()) + 1 if agg.size else 0


def aggregation_to_prolongation(agg: np.ndarray) -> sp.csr_matrix:
    """Piecewise-constant prolongation from an aggregate assignment."""
    n = agg.shape[0]
    return sp.csr_matrix(
        (np.ones(n), agg, np.arange(n + 1)), shape=(n, _num_aggregates(agg))
    )


def aggregation_to_restriction(agg: np.ndarray) -> sp.csr_matrix:
    """``P^T`` as CSR: row ``I`` lists aggregate ``I``'s nodes, ascending."""
    n, n_coarse = agg.shape[0], _num_aggregates(agg)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(agg, minlength=n_coarse))))
    return sp.csr_matrix(
        (np.ones(n), np.argsort(agg, kind="stable"), indptr), shape=(n_coarse, n)
    )


def galerkin_coarse(matrix: sp.csr_matrix, agg: np.ndarray) -> sp.csr_matrix:
    """``P^T A P`` for the piecewise-constant ``P`` of *agg*, in one sum.

    Entry ``(i, j)`` of *matrix* lands on ``(agg[i], agg[j])``; the COO to
    CSR conversion sums the duplicates.  Exact zeros are dropped, as the
    sparse triple product does.  The result is copied because the summed
    arrays are views into fine-level-sized buffers, which a cached
    hierarchy would otherwise keep alive.
    """
    n_coarse = _num_aggregates(agg)
    rows = np.repeat(agg, np.diff(matrix.indptr))
    coarse = sp.csr_matrix(
        (matrix.data, (rows, agg[matrix.indices])), shape=(n_coarse, n_coarse)
    )
    coarse.eliminate_zeros()
    return coarse.copy()


def coarsen_once(
    matrix: sp.csr_matrix, options: AMGOptions
) -> tuple[np.ndarray, sp.csr_matrix]:
    """One level of (possibly multi-pass) pairwise coarsening.

    Returns ``(agg, A_coarse)``: the composed aggregate of every fine
    node (pass 2 of node *i* is ``agg2[agg1[i]]``) and ``P^T A P`` for
    its piecewise-constant ``P``.
    """
    agg = np.arange(matrix.shape[0], dtype=np.int64)
    current = matrix
    for _ in range(options.passes_per_level):
        step = pairwise_aggregate(current, options.strength_threshold)
        current = galerkin_coarse(current, step)
        agg = step[agg]
        if current.shape[0] <= options.max_coarse_size:
            break
    return agg, current


@dataclass
class AMGLevel:
    """One level of the hierarchy.

    ``prolongation`` maps the *next coarser* level's vectors up to this
    level and ``restriction`` is its transpose, materialised as CSR so a
    cycle never rebuilds it; both are ``None`` on the coarsest level.
    """

    matrix: sp.csr_matrix
    prolongation: sp.csr_matrix | None = None
    restriction: sp.csr_matrix | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


class AMGHierarchy:
    """The full multilevel hierarchy plus a factored coarsest-level solver."""

    def __init__(self, levels: list[AMGLevel]) -> None:
        if not levels:
            raise ValueError("hierarchy needs at least one level")
        self.levels = levels
        coarsest = levels[-1].matrix
        self._coarse_lu = splu(sp.csc_matrix(coarsest))
        self._relaxations: dict[str, tuple[Relaxation, ...]] = {}

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def coarse_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Exact solve on the coarsest level."""
        return np.asarray(self._coarse_lu.solve(rhs), dtype=float)

    def relaxations(self, kind: str) -> tuple[Relaxation, ...]:
        """The *kind* smoother of every level but the coarsest.

        Built on the first request and shared by every preconditioner over
        this hierarchy; a kind nobody asks for is never built.
        """
        with _RELAXATION_LOCK:
            if kind not in self._relaxations:
                self._relaxations[kind] = tuple(
                    RELAXATIONS[kind](level.matrix, index)
                    for index, level in enumerate(self.levels[:-1])
                )
                counter_add(AMG_RELAXATION_BUILDS, self.num_levels - 1)
            return self._relaxations[kind]

    def operator_complexity(self) -> float:
        """Sum of nonzeros over all levels divided by finest nonzeros.

        The standard AMG cost metric.  On the synthetic power grids it is
        about 1.7 for the ``quality`` preset and 2.8 for ``fast``
        (docs/solver_theory.md has the measured table).
        """
        finest_nnz = self.levels[0].matrix.nnz
        if finest_nnz == 0:
            return float("nan")
        return sum(level.matrix.nnz for level in self.levels) / finest_nnz

    def grid_complexity(self) -> float:
        """Sum of unknowns over all levels divided by finest unknowns."""
        finest_n = self.levels[0].size
        if finest_n == 0:
            return float("nan")
        return sum(level.size for level in self.levels) / finest_n


def build_hierarchy(
    matrix: sp.spmatrix, options: AMGOptions | None = None
) -> AMGHierarchy:
    """Run the AMG setup stage on a conductance matrix."""
    options = options or AMGOptions()
    current = check_system(matrix, np.zeros(matrix.shape[0]))
    levels: list[AMGLevel] = [AMGLevel(matrix=current)]
    while (
        levels[-1].size > options.max_coarse_size
        and len(levels) < options.max_levels
    ):
        agg, coarse = coarsen_once(levels[-1].matrix, options)
        if coarse.shape[0] >= levels[-1].size:
            break  # coarsening stalled; stop rather than loop forever
        levels[-1].prolongation = aggregation_to_prolongation(agg)
        levels[-1].restriction = aggregation_to_restriction(agg)
        levels.append(AMGLevel(matrix=coarse))
    return AMGHierarchy(levels)
