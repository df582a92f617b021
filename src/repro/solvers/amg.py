"""Aggregation-based algebraic multigrid hierarchy.

Setup stage of the AMG-PCG solver (Fig. 3): "the solver recursively selects
coarser levels of the problem by grouping nodes and connections into
progressively coarser grids".  The grouping here is Notay-style *pairwise
aggregation*: fine nodes pair with their strongest negatively coupled
neighbours in array rounds of mutual picks, and a node left over joins a
neighbouring pair, so one pass cuts the unknowns by about 2.3x and two
passes per level ("double pairwise") by about 5x.  Coarse operators are
Galerkin products ``A_c = P^T A P`` with piecewise-constant prolongation,
so both ``P`` and ``A_c`` follow from the aggregate vector alone:
``A_c[I, J]`` is the sum of ``a_ij`` over ``agg[i] = I``, ``agg[j] = J``.
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

#: Held while a hierarchy builds its level relaxations: threads that
#: first-use one cached hierarchy together build (and count) them once.
_RELAXATION_LOCK = threading.Lock()

#: Matching rounds per aggregation pass.
MATCHING_ROUNDS = 8

#: Odd 64-bit multipliers (as int64) of the symmetric edge hash; its
#: products wrap modulo 2**64 by design.
_HASH_MIX = (np.int64(-7046029254386353131), np.int64(-4658895280553007687))


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
    """One pass of pairwise aggregation, in array rounds.

    Returns ``agg`` with ``agg[i]`` the aggregate id of node *i*; ids are
    dense in ``[0, n_aggregates)`` and follow each aggregate's lowest node.
    A *candidate* of row *i* is a negative off-diagonal at least
    *strength_threshold* times the row's strongest one; each row ranks its
    candidates with :func:`_candidate_order`.

    1. In each of at most :data:`MATCHING_ROUNDS` rounds, every free node
       picks its first free candidate among those that are candidates
       from both ends, and mutual picks pair up.  A round that pairs
       nobody ends the matching.
    2. Every node still free asks to join the pair of its first paired
       candidate, and each pair takes the one asker whose edge ranks
       first.  An aggregate is a pair, a pair and one joiner, or a
       singleton: a node with no paired candidate, or one turned away.
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
    candidate = np.flatnonzero(
        (strength > 0.0) & (strength >= strength_threshold * strongest[rows])
    )
    cand_rows = rows[candidate]
    cand_cols = matrix.indices[candidate].astype(np.int64)
    cand_strength = strength[candidate]
    order, edge_rank = _candidate_order(cand_rows, cand_cols, cand_strength)
    cand_rows, cand_cols = cand_rows[order], cand_cols[order]

    # leader[i] is the lowest node of i's aggregate.
    leader = np.arange(n)
    free = np.ones(n, dtype=bool)
    # Only a candidate from both ends can pick back.
    two_way = np.flatnonzero(
        cand_strength[order] >= strength_threshold * strongest[cand_cols]
    )
    live_rows, live_cols = cand_rows[two_way], cand_cols[two_way]
    for _ in range(MATCHING_ROUNDS):
        live = np.flatnonzero(free[live_rows] & free[live_cols])
        if not live.size:
            break
        live_rows, live_cols = live_rows[live], live_cols[live]
        first = _row_starts(live_rows)
        pickers = live_rows[first]
        pick = np.full(n, -1)
        pick[pickers] = live_cols[first]
        mutual = pickers[pick[pick[pickers]] == pickers]
        if not mutual.size:
            break
        lower = mutual[mutual < pick[mutual]]
        leader[pick[lower]] = lower
        free[mutual] = False
    # Free nodes ask the pair of their first paired candidate to join it.
    asking = np.flatnonzero(free[cand_rows] & ~free[cand_cols])
    asking = asking[_row_starts(cand_rows[asking])]
    pair, asked_rank = leader[cand_cols[asking]], edge_rank[asking]
    first_rank = np.full(n, edge_rank.size)
    np.minimum.at(first_rank, pair, asked_rank)
    joins = asked_rank == first_rank[pair]
    leader[cand_rows[asking[joins]]] = pair[joins]
    return np.cumsum(leader == np.arange(n))[leader] - 1


def _candidate_order(
    rows: np.ndarray, cols: np.ndarray, strength: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Order candidates by row, then strength (strongest first), then tie.

    Returns ``(order, rank)``: the permutation, and each ordered
    candidate's rank among all of them by (strength, tie) alone.  The tie
    key reads the same from both ends of an edge, so two nodes whose
    strongest candidates tie still pick each other: first the "binary
    buddy" (prefer ``j`` with ``i ^ j`` the smallest power of two, which
    pairs a tied mesh along its rows), then a hash of the edge.  One
    unstable sort ranks the strengths, a second orders (strength rank,
    tie) and is nearly sorted unless strengths tie, and a stable sort of
    ``row * k + rank``, already in row order, is nearly a linear pass.
    """
    k = strength.size
    descending = np.argsort(-strength)
    ordered = strength[descending]
    new_value = np.empty(k, dtype=bool)
    new_value[:1] = False
    np.not_equal(ordered[1:], ordered[:-1], out=new_value[1:])
    buddy = rows ^ cols
    edge_hash = ((rows + cols) * _HASH_MIX[0] ^ rows * cols) * _HASH_MIX[1]
    edge_hash = (edge_hash.view(np.uint64) >> np.uint64(44)).view(np.int64)
    # Buddies are below 2**30 (fewer nodes than that); hashes sort after.
    tie = np.where(buddy & (buddy - 1) == 0, buddy, edge_hash | (1 << 30))
    key = (np.cumsum(new_value) << 31) | tie[descending]
    rank = np.empty(k, dtype=np.int64)
    rank[descending[np.argsort(key)]] = np.arange(k)
    order = np.argsort(rows * k + rank, kind="stable")
    return order, rank[order]


def _row_starts(rows: np.ndarray) -> np.ndarray:
    """Indices where a nondecreasing *rows* array starts a new value."""
    starts = np.empty(rows.size, dtype=bool)
    starts[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=starts[1:])
    return np.flatnonzero(starts)


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
        about 1.3 for the ``quality`` preset and 2.1 for ``fast``
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
