"""Power-grid data model.

This package turns a parsed SPICE deck into the structures PowerRush-style
analysis needs (Section III-B of the paper):

- :mod:`repro.grid.geometry` — metal-layer geometry, the LEF-style mapping
  from nanometre coordinates to a fixed pixel grid.
- :mod:`repro.grid.netlist` — the node hash table + wires map
  (:class:`PowerGrid`) the paper's spice parser/circuit generator builds.
- :mod:`repro.grid.topology` — connectivity checks over the wires map, all
  read from one component labelling.
"""

from repro.grid.geometry import GridGeometry, LayerInfo
from repro.grid.netlist import PGNode, PowerGrid
from repro.grid.topology import validate_connectivity

__all__ = [
    "GridGeometry",
    "LayerInfo",
    "PGNode",
    "PowerGrid",
    "validate_connectivity",
]
