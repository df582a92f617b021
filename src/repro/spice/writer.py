"""Serialise :class:`~repro.spice.ast.Netlist` objects back to SPICE text.

The writer emits a deck the parser round-trips exactly (element order and
values preserved); values are printed in repr-precision scientific notation
so no information is lost.
"""

from __future__ import annotations

import os
from repro.spice.ast import Netlist


def netlist_to_string(netlist: Netlist) -> str:
    """Render *netlist* as SPICE text.

    Values are written with ``repr``: the shortest decimal that reads
    back to the same float.
    """
    lines: list[str] = []
    if netlist.title:
        lines.append(f"* {netlist.title}")
    for kind in netlist.kinds():
        lines.extend(
            f"{name} {node_a} {node_b} {value!r}"
            for name, node_a, node_b, value in zip(
                kind.names, kind.node_a, kind.node_b, kind.values.tolist()
            )
        )
    lines.append(".end")
    return "\n".join(lines) + "\n"


def write_spice(netlist: Netlist, path: str | os.PathLike[str]) -> None:
    """Write *netlist* to *path* as a SPICE deck."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(netlist_to_string(netlist))
