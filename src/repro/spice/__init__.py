"""SPICE netlist substrate for power-grid designs.

The ICCAD-2023 contest (and this reproduction) describe a power grid as a
flat SPICE deck containing only resistors (``R``), independent current
sources (``I``, the cell current drains) and independent voltage sources
(``V``, the power pads).  Node names follow the grammar
``n{net}_m{layer}_{x}_{y}`` with coordinates in nanometres; ``0`` is ground.

Public API
----------
- :class:`~repro.spice.ast.Resistor`, :class:`~repro.spice.ast.CurrentSource`,
  :class:`~repro.spice.ast.VoltageSource`, :class:`~repro.spice.ast.Netlist`
- :class:`~repro.spice.nodes.NodeName` and :func:`~repro.spice.nodes.parse_node_name`
- :func:`~repro.spice.parser.parse_spice` / :func:`~repro.spice.parser.parse_spice_file`
- :func:`~repro.spice.writer.write_spice` / :func:`~repro.spice.writer.netlist_to_string`
- :func:`~repro.spice.validate.validate_grid` / :func:`~repro.spice.validate.repair_grid`,
  the topology checks and ground-tie repair run on every built grid

The parser refuses negative and non-finite values with a line number;
:meth:`~repro.grid.netlist.PowerGrid.from_netlist` refuses the rest of what
a PG cannot hold (0-ohm shorts, ground-touching resistors, self-loops),
naming the element.  No layer rewrites a deck.
"""

from repro.spice.ast import CurrentSource, Netlist, Resistor, VoltageSource
from repro.spice.nodes import GROUND, NodeName, format_node_name, parse_node_name
from repro.spice.parser import SpiceParseError, parse_spice, parse_spice_file
from repro.spice.validate import (
    NetlistValidationError,
    RepairRecord,
    ValidationIssue,
    repair_grid,
    validate_grid,
)
from repro.spice.writer import netlist_to_string, write_spice

__all__ = [
    "CurrentSource",
    "GROUND",
    "Netlist",
    "NetlistValidationError",
    "NodeName",
    "RepairRecord",
    "Resistor",
    "SpiceParseError",
    "ValidationIssue",
    "VoltageSource",
    "repair_grid",
    "validate_grid",
    "format_node_name",
    "netlist_to_string",
    "parse_node_name",
    "parse_spice",
    "parse_spice_file",
    "write_spice",
]
