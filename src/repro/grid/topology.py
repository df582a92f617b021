"""Circuit topology graph and connectivity diagnostics.

The circuit generator in the paper "constructs the circuit topology graph,
enabling the extraction of the conductance matrix G".  Here that graph is
the wire columns read as a sparse adjacency, and it supports the checks a
simulator must run before stamping: every node must have a resistive path
to a pad, otherwise the reduced system is singular.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.grid.netlist import PowerGrid


def component_labels(grid: PowerGrid) -> np.ndarray:
    """Per-node component id, labelled in order of first appearance.

    The hot path of every connectivity check: a single compiled
    union-find over the columnar wire arrays instead of building a
    Python graph object per query.
    """
    n = grid.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    node_a, node_b, _ = grid.wire_arrays()
    adjacency = sp.csr_matrix(
        (np.ones(node_a.size), (node_a, node_b)), shape=(n, n)
    )
    _, labels = csgraph.connected_components(adjacency, directed=False)
    return labels.astype(np.int64)


def validate_connectivity(grid: PowerGrid) -> None:
    """Raise ``ValueError`` when the grid cannot be solved.

    Checks: at least one pad exists and every node reaches a pad.
    """
    pads = grid.pad_indices()
    if not pads.size:
        raise ValueError("power grid has no voltage pads; Gx=I is singular")
    labels = component_labels(grid)
    # A component without a pad has no DC operating point: its reduced
    # conductance block is exactly singular.
    floating = np.flatnonzero(~np.isin(labels, labels[pads]))
    if floating.size:
        names = [grid.node_names[i] for i in floating[:5].tolist()]
        raise ValueError(
            f"{floating.size} node(s) have no resistive path to a pad "
            f"(e.g. {names}); the reduced system is singular"
        )
