"""Linear-system containers produced by MNA stamping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class ReducedSystem:
    """``G x = b`` over the unknown (non-pad) nodes of a power grid.

    ``G`` is symmetric positive-definite whenever every unknown node has a
    resistive path to a pad.  ``unknown_indices[i]`` maps row *i* back to
    the :class:`~repro.grid.netlist.PowerGrid` node index; ``pad_voltages``
    maps pinned node indices to their supply voltage.

    Attributes
    ----------
    matrix:
        CSR conductance matrix over unknowns (n_unknown x n_unknown).
    rhs:
        Right-hand side: injected currents plus pad-coupling terms.
    unknown_indices:
        Grid node index for each matrix row.
    pad_voltages:
        ``{grid_node_index: volts}`` for eliminated pad nodes.
    num_grid_nodes:
        Total node count of the originating grid (for scattering back).
    fingerprint:
        :func:`~repro.solvers.cache.matrix_fingerprint` of ``matrix``,
        the AMG setup cache's key.  Only a grid's memoised stamp, whose
        matrix refuses writes, carries one; it is ``None`` on a system
        whose matrix may change, which is hashed on each lookup.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    unknown_indices: np.ndarray
    pad_voltages: dict[int, float]
    num_grid_nodes: int
    fingerprint: str | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """Expand an unknown-space solution to a per-grid-node voltage vector.

        Pad nodes receive their pinned voltage.
        """
        if x.shape != (self.size,):
            raise ValueError(f"expected shape ({self.size},), got {x.shape}")
        full = np.empty(self.num_grid_nodes, dtype=float)
        full[self.unknown_indices] = x
        full[list(self.pad_voltages)] = list(self.pad_voltages.values())
        return full

    def gather(self, full: np.ndarray) -> np.ndarray:
        """Restrict a per-grid-node vector to the unknown subspace."""
        if full.shape != (self.num_grid_nodes,):
            raise ValueError(
                f"expected shape ({self.num_grid_nodes},), got {full.shape}"
            )
        return full[self.unknown_indices].copy()

    def mutable_copy(self) -> "ReducedSystem":
        """A deep-enough copy for in-place delta stamping.

        The CSR matrix and RHS are copied (the arrays delta stamping
        mutates); index arrays and pad voltages are shared — the
        incremental engine never changes the unknown set without a full
        rebuild.  The copy carries no fingerprint: its matrix may change.
        """
        return ReducedSystem(
            matrix=self.matrix.copy(),
            rhs=self.rhs.copy(),
            unknown_indices=self.unknown_indices,
            pad_voltages=dict(self.pad_voltages),
            num_grid_nodes=self.num_grid_nodes,
        )

    def row_map(self) -> dict[int, int]:
        """``{grid_node_index: reduced_row}`` for the unknown nodes."""
        return dict(zip(self.unknown_indices.tolist(), range(self.size)))

    def residual_norm(self, x: np.ndarray) -> float:
        """Two-norm of ``b - Gx`` for a candidate solution."""
        return float(np.linalg.norm(self.rhs - self.matrix @ x))

    def relative_residual(self, x: np.ndarray) -> float:
        """``||b - Gx|| / ||b||`` (0 if b is the zero vector)."""
        denom = float(np.linalg.norm(self.rhs))
        if denom == 0.0:
            return 0.0
        return self.residual_norm(x) / denom
