"""Aggregation-based algebraic multigrid hierarchy.

Setup stage of the AMG-PCG solver (Fig. 3): "the solver recursively selects
coarser levels of the problem by grouping nodes and connections into
progressively coarser grids".  The grouping here is Notay-style *pairwise
aggregation*: each fine node is matched with its strongest negatively
coupled neighbour; two matching passes per level ("double pairwise") give a
coarsening factor near four.  Coarse operators are Galerkin products
``A_c = P^T A P`` with piecewise-constant prolongation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.obs import counter_add
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
    smooth_prolongation:
        Smoothed aggregation (Vanek et al.): replace the piecewise-constant
        tentative prolongation by ``(I - omega D^{-1} A) P``.  Improves the
        convergence rate per cycle at the cost of denser coarse operators.
    smoothing_omega:
        Damping for the prolongation smoother (2/3 is the Jacobi classic).
    """

    max_levels: int = 20
    max_coarse_size: int = 64
    strength_threshold: float = 0.25
    passes_per_level: int = 2
    smooth_prolongation: bool = False
    smoothing_omega: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if self.max_coarse_size < 1:
            raise ValueError("max_coarse_size must be >= 1")
        if not 0.0 <= self.strength_threshold <= 1.0:
            raise ValueError("strength_threshold must be in [0, 1]")
        if self.passes_per_level < 1:
            raise ValueError("passes_per_level must be >= 1")
        if not 0.0 < self.smoothing_omega < 2.0:
            raise ValueError("smoothing_omega must be in (0, 2)")


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


def smooth_prolongation(
    matrix: sp.csr_matrix, tentative: sp.csr_matrix, omega: float
) -> sp.csr_matrix:
    """Smoothed-aggregation prolongation: ``(I - omega D^{-1} A) P``."""
    diag = matrix.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("prolongation smoothing requires a nonzero diagonal")
    inv_diag = sp.diags(omega / diag)
    return sp.csr_matrix(tentative - inv_diag @ (matrix @ tentative))


def coarsen_once(
    matrix: sp.csr_matrix, options: AMGOptions
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """One level of (possibly multi-pass) pairwise coarsening.

    Returns ``(P, A_coarse)`` where ``A_coarse = P^T A P``; with
    ``smooth_prolongation`` on, the composed tentative operator is
    Jacobi-smoothed before the Galerkin product.
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
    if not options.smooth_prolongation:
        return tentative, current
    smoothed = smooth_prolongation(matrix, tentative, options.smoothing_omega)
    coarse = sp.csr_matrix(smoothed.T @ matrix @ smoothed)
    coarse.sum_duplicates()
    return smoothed, coarse


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
                counter_add("amg.relaxation_builds", self.num_levels - 1)
            return self._relaxations[kind]

    def operator_complexity(self) -> float:
        """Sum of nonzeros over all levels divided by finest nonzeros.

        The standard AMG cost metric; healthy aggregation hierarchies stay
        below ~1.6.
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
        prolongation, coarse = coarsen_once(levels[-1].matrix, options)
        if coarse.shape[0] >= levels[-1].size:
            break  # coarsening stalled; stop rather than loop forever
        levels[-1].prolongation = prolongation
        levels[-1].restriction = sp.csr_matrix(prolongation.T)
        levels.append(AMGLevel(matrix=coarse))
    return AMGHierarchy(levels)
