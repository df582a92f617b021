"""Capacitance-matrix stamping in the reduced (non-pad) node space.

Stamping mirrors the conductance rules: a capacitor between two unknown
nodes adds to both diagonals and couples them negatively; a capacitor to
ground (decap) or to a pad adds only to the unknown node's diagonal — a
pad is an AC ground for the homogeneous term, and its (constant) voltage
contributes nothing to ``C dv/dt``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.grid.netlist import PowerGrid
from repro.mna.system import ReducedSystem
from repro.spice.ast import Capacitor
from repro.spice.nodes import GROUND


def build_capacitance_matrix(
    grid: PowerGrid,
    system: ReducedSystem,
    capacitors: list[Capacitor],
) -> sp.csr_matrix:
    """Assemble ``C`` over the reduced unknowns of *system*.

    Parameters
    ----------
    grid:
        The power grid the reduced system was stamped from (for node-name
        resolution).
    system:
        Defines the unknown ordering.
    capacitors:
        Capacitor elements; terminals may reference ground or pads.
    """
    row_of = system.row_map()

    def row_for(name: str) -> int | None:
        """Reduced row for a node name; None for ground/pads."""
        if name == GROUND:
            return None
        if name not in grid:
            raise ValueError(f"capacitor terminal {name!r} is not a grid node")
        return row_of.get(grid.index_of(name))

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    n = system.size
    diag = np.zeros(n, dtype=float)
    for cap in capacitors:
        if cap.capacitance == 0.0:
            continue
        a = row_for(cap.node_a)
        b = row_for(cap.node_b)
        if a is None and b is None:
            continue  # cap between ground/pads: no dynamics in this space
        if a is not None:
            diag[a] += cap.capacitance
        if b is not None:
            diag[b] += cap.capacitance
        if a is not None and b is not None:
            rows.extend((a, b))
            cols.extend((b, a))
            vals.extend((-cap.capacitance, -cap.capacitance))
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=float)
    matrix.sum_duplicates()
    return matrix


def uniform_decap(
    grid: PowerGrid, farads_per_load: float
) -> list[Capacitor]:
    """Synthesis helper: one decap to ground at every load node."""
    if farads_per_load < 0:
        raise ValueError("capacitance must be non-negative")
    return [
        Capacitor(f"Cd{k}", node.name, GROUND, farads_per_load)
        for k, node in enumerate(grid.loads(), start=1)
    ]
