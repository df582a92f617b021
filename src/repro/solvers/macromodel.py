"""Hierarchical analysis via Schur-complement macromodeling.

The paper's related work cites "hierarchical analysis of power
distribution networks" (Zhao et al., DAC'00): internal nodes of a block
are eliminated exactly, leaving a dense *macromodel* over the block's
ports.  For an SPD system partitioned into ports ``p`` and internals
``i``:

    S   = A_pp - A_pi A_ii^{-1} A_ip        (the port macromodel)
    b_s = b_p  - A_pi A_ii^{-1} b_i

Solving ``S x_p = b_s`` gives the exact port voltages; internals are
recovered by back-substitution ``x_i = A_ii^{-1} (b_i - A_ip x_p)``.
The reduction is exact (no approximation), so it is both a solver
strategy and a validation tool for hierarchical flows.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.mna.system import ReducedSystem


class SchurReduction:
    """Exact port macromodel of a reduced PG system.

    Parameters
    ----------
    system:
        The SPD reduced system to partition.
    port_rows:
        Row indices (in reduced-unknown space) kept as ports; everything
        else becomes internal and is eliminated.
    """

    def __init__(self, system: ReducedSystem, port_rows: np.ndarray) -> None:
        port_rows = np.unique(np.asarray(port_rows, dtype=np.int64))
        n = system.size
        if port_rows.size == 0:
            raise ValueError("at least one port row is required")
        if port_rows.min() < 0 or port_rows.max() >= n:
            raise ValueError(f"port rows out of range [0, {n})")
        if port_rows.size == n:
            raise ValueError("all rows are ports; nothing to eliminate")

        mask = np.zeros(n, dtype=bool)
        mask[port_rows] = True
        self.system = system
        self.port_rows = port_rows
        self.internal_rows = np.nonzero(~mask)[0]

        matrix = sp.csc_matrix(system.matrix)
        self._a_pp = matrix[np.ix_(port_rows, port_rows)]
        self._a_pi = sp.csc_matrix(matrix[np.ix_(port_rows, self.internal_rows)])
        self._a_ip = sp.csc_matrix(matrix[np.ix_(self.internal_rows, port_rows)])
        a_ii = sp.csc_matrix(
            matrix[np.ix_(self.internal_rows, self.internal_rows)]
        )
        self._a_ii_lu = splu(a_ii)

        # dense Schur complement over the ports
        inv_aii_aip = self._a_ii_lu.solve(self._a_ip.toarray())
        self.schur = np.asarray(
            self._a_pp.toarray() - self._a_pi.toarray() @ inv_aii_aip
        )

    @property
    def num_ports(self) -> int:
        return self.port_rows.size

    @property
    def num_internal(self) -> int:
        return self.internal_rows.size

    def reduced_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """Fold the internal part of *rhs* onto the ports."""
        if rhs.shape != (self.system.size,):
            raise ValueError(
                f"expected rhs of shape ({self.system.size},), got {rhs.shape}"
            )
        b_p = rhs[self.port_rows]
        b_i = rhs[self.internal_rows]
        return b_p - self._a_pi @ self._a_ii_lu.solve(b_i)

    def solve(self, rhs: np.ndarray | None = None) -> np.ndarray:
        """Solve the full system through the macromodel (exact).

        Returns the solution over all reduced unknowns.
        """
        rhs = self.system.rhs if rhs is None else np.asarray(rhs, dtype=float)
        x_p = np.linalg.solve(self.schur, self.reduced_rhs(rhs))
        b_i = rhs[self.internal_rows]
        x_i = self._a_ii_lu.solve(b_i - self._a_ip @ x_p)
        x = np.empty(self.system.size, dtype=float)
        x[self.port_rows] = x_p
        x[self.internal_rows] = x_i
        return x

    def port_macromodel(self) -> np.ndarray:
        """The dense port conductance matrix (symmetric positive definite)."""
        return self.schur.copy()


def layer_port_rows(system: ReducedSystem, grid, min_layer: int) -> np.ndarray:
    """Port selection helper: all unknowns on metal layers >= *min_layer*.

    The classic hierarchical split: keep the upper-metal backbone as
    ports, eliminate the dense bottom-layer internals.
    """
    _, _, layer, structured = grid.node_arrays()
    on_ports = structured & (layer >= min_layer)
    return np.flatnonzero(on_ports[system.unknown_indices])
