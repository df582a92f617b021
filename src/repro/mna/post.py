"""Post-processing of a solved PG: branch currents and KCL residuals.

Given per-node voltages, every wire's current follows from Ohm's law;
these are the quantities electromigration checks and power-routing
debuggers consume.  Sign convention: ``current[k] > 0`` means conventional
current flows from ``wires[k].node_a`` to ``wires[k].node_b``.
"""

from __future__ import annotations

import numpy as np

from repro.grid.netlist import PowerGrid


def branch_currents(grid: PowerGrid, voltages: np.ndarray) -> np.ndarray:
    """Per-wire currents (amps) from a per-grid-node voltage vector."""
    if voltages.shape != (grid.num_nodes,):
        raise ValueError(
            f"expected {grid.num_nodes} voltages, got shape {voltages.shape}"
        )
    node_a, node_b, resistance = grid.wire_arrays()
    return (voltages[node_a] - voltages[node_b]) * (1.0 / resistance)


def _net_inflow(grid: PowerGrid, currents: np.ndarray) -> np.ndarray:
    """Per-node sum of wire currents flowing in (out counts negative)."""
    node_a, node_b, _ = grid.wire_arrays()
    return np.bincount(
        np.stack([node_a, node_b], axis=1).ravel(),
        weights=np.stack([-currents, currents], axis=1).ravel(),
        minlength=grid.num_nodes,
    )


def kcl_residuals(grid: PowerGrid, voltages: np.ndarray) -> np.ndarray:
    """Per-node current imbalance (amps): 0 at exact solutions.

    For non-pad nodes the residual is the net wire current into the node
    minus the load drawn there; for pads it is the (arbitrary) source
    current and is reported as zero.
    """
    residual = _net_inflow(grid, branch_currents(grid, voltages))
    residual -= grid.load_current
    residual[grid.pad_indices()] = 0.0
    return residual


def pad_currents(grid: PowerGrid, voltages: np.ndarray) -> dict[int, float]:
    """Current supplied by each pad (amps), keyed by grid node index."""
    pads = grid.pad_indices()
    supplied = -_net_inflow(grid, branch_currents(grid, voltages))[pads]
    return dict(zip(pads.tolist(), supplied.tolist()))
