"""Vectored static IR-drop analysis (multi-corner worst-case).

MAVIREC frames IR-drop estimation over *vectors*: many per-cell current
patterns (simulation corners / activity vectors), each a static solve,
combined into a per-node worst-case drop.  The conductance matrix is fixed
across vectors, so the AMG hierarchy (or LU factor) is built once and
reused — exactly the amortisation that makes vectored analysis tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.netlist import PowerGrid
from repro.mna.stamper import build_reduced_system
from repro.mna.system import ReducedSystem
from repro.solvers.amg_pcg import AMGPCGSolver
from repro.solvers.base import SolverOptions


@dataclass
class VectoredResult:
    """Outcome of a vectored run.

    Attributes
    ----------
    per_vector_drop:
        ``(V, N)`` drop per vector and grid node.
    worst_drop:
        ``(N,)`` element-wise maximum over vectors.
    worst_vector:
        ``(N,)`` index of the vector that produced each node's worst drop.
    """

    per_vector_drop: np.ndarray
    worst_drop: np.ndarray
    worst_vector: np.ndarray

    @property
    def num_vectors(self) -> int:
        return self.per_vector_drop.shape[0]

    def global_worst(self) -> tuple[float, int, int]:
        """(drop, node index, vector index) of the single worst case."""
        flat = int(np.argmax(self.per_vector_drop))
        vector, node = np.unravel_index(flat, self.per_vector_drop.shape)
        return (
            float(self.per_vector_drop[vector, node]),
            int(node),
            int(vector),
        )


class VectoredAnalyzer:
    """Runs many current vectors against one PG with a shared hierarchy."""

    def __init__(
        self,
        grid: PowerGrid,
        supply_voltage: float | None = None,
        options: SolverOptions | None = None,
    ) -> None:
        if supply_voltage is None:
            supply_voltage = grid.supply_voltage()
        self.grid = grid
        self.supply_voltage = supply_voltage
        self.system: ReducedSystem = build_reduced_system(grid)
        self.solver = AMGPCGSolver(options or SolverOptions(tol=1e-10))
        # loads-only RHS template: pad coupling terms are current-independent
        self._base_rhs = (
            self.system.rhs + grid.load_current[self.system.unknown_indices]
        )

    def _rhs_for(self, currents: dict[int, float]) -> np.ndarray:
        rhs = self._base_rhs.copy()
        index_of_row = self.system.row_map()
        for node_index, amps in currents.items():
            row = index_of_row.get(node_index)
            if row is None:
                raise ValueError(
                    f"node {node_index} is a pad or unknown; cannot load it"
                )
            rhs[row] -= amps
        return rhs

    def solve_vector(self, currents: dict[int, float]) -> np.ndarray:
        """Per-grid-node drop for one current vector ``{node index: amps}``."""
        rhs = self._rhs_for(currents)
        flat = np.full(self.system.size, self.supply_voltage)
        result = self.solver.solve(self.system.matrix, rhs, x0=flat)
        return self.supply_voltage - self.system.scatter(result.x)

    def run(self, vectors: list[dict[int, float]]) -> VectoredResult:
        """Solve every vector and combine into the worst case."""
        if not vectors:
            raise ValueError("at least one current vector is required")
        drops = np.stack([self.solve_vector(v) for v in vectors])
        worst = drops.max(axis=0)
        which = drops.argmax(axis=0)
        return VectoredResult(
            per_vector_drop=drops, worst_drop=worst, worst_vector=which
        )
