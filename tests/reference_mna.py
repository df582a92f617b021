"""Textbook full MNA (moved from ``src``): the reduced system's referee.

``repro.mna`` stamps only the reduced SPD system, with pad voltages
eliminated.  The full form keeps one branch-current unknown per pad;
``tests/test_mna.py`` solves it directly and checks that the reduced
system gives the same node voltages.  Nothing in ``src/`` calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.grid.netlist import PowerGrid


@dataclass(frozen=True)
class FullMNASystem:
    """Textbook MNA: node voltages plus branch currents for voltage sources.

    The matrix is symmetric but indefinite; it is solved directly (sparse
    LU) and only used to validate the reduced formulation.

    Attributes
    ----------
    matrix:
        CSR MNA matrix of size (n_nodes + n_vsrc).
    rhs:
        Stacked current injections and source voltages.
    num_nodes:
        Number of node-voltage unknowns (all grid nodes).
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    num_nodes: int

    @property
    def num_branch_currents(self) -> int:
        return self.matrix.shape[0] - self.num_nodes

    def split_solution(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a solution vector into (node voltages, branch currents)."""
        return x[: self.num_nodes].copy(), x[self.num_nodes :].copy()


def build_full_mna(grid: PowerGrid) -> FullMNASystem:
    """Assemble the full MNA system with branch currents for pads.

    Unknowns are ``[v_0 .. v_{n-1}, i_pad_0 .. i_pad_{m-1}]``.  Each pad
    contributes a row ``v_p = V`` and a symmetric coupling column that adds
    the branch current into the pad node's KCL equation.
    """
    n = grid.num_nodes
    pads = grid.pad_indices()
    size = n + pads.size
    node_a, node_b, resistance = grid.wire_arrays()
    g = 1.0 / resistance
    pair = np.stack([node_a, node_b], axis=1)
    diag = np.bincount(pair.ravel(), weights=np.repeat(g, 2), minlength=n)
    rhs = np.zeros(size, dtype=float)
    rhs[:n] -= grid.load_current
    rhs[n:] = grid.pad_voltage[pads]

    # Pad k gets branch unknown n + k, coupled symmetrically to its node.
    branch = np.stack([pads, n + np.arange(pads.size)], axis=1)
    nodes = np.arange(n)
    matrix = sp.csr_matrix(
        (
            np.concatenate([np.repeat(-g, 2), diag, np.ones(2 * pads.size)]),
            (
                np.concatenate([pair.ravel(), nodes, branch.ravel()]),
                np.concatenate([pair[:, ::-1].ravel(), nodes, branch[:, ::-1].ravel()]),
            ),
        ),
        shape=(size, size),
        dtype=float,
    )
    matrix.sum_duplicates()
    return FullMNASystem(matrix=matrix, rhs=rhs, num_nodes=n)
