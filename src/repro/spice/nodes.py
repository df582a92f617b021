"""Node-name grammar for power-grid decks.

Following the ICCAD-2023 contest convention a PG node is named

    ``n{net}_m{layer}_{x}_{y}``

where *net* is the power-net index (1 for VDD), *layer* is the metal layer
index (1 = bottom / cell layer) and *x*, *y* are the node coordinates in
nanometres.  Ground is the literal name ``0``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress

import numpy as np

GROUND = "0"

# ASCII digits, at most 18 of them: every field fits an int64 column.
_NODE_RE = re.compile(
    r"n(?P<net>\d{1,18})_m(?P<layer>\d{1,18})_(?P<x>-?\d{1,18})_(?P<y>-?\d{1,18})",
    re.ASCII,
)
# The same grammar over newline-terminated names, matched a window of about
# _SCAN_WINDOW characters at a time: one match keeps backtracking state for
# every name it has passed.
_NODE_LINES_RE = re.compile(r"(?:n\d{1,18}_m\d{1,18}_-?\d{1,18}_-?\d{1,18}\n)*", re.ASCII)
_SCAN_WINDOW = 1 << 16


@dataclass(frozen=True, slots=True, order=True)
class NodeName:
    """A structured PG node name.

    Ordering is lexicographic on (net, layer, x, y) which gives a stable,
    geometry-aware node ordering used throughout the matrix assembly.
    """

    net: int
    layer: int
    x: int
    y: int

    def __str__(self) -> str:
        return format_node_name(self.net, self.layer, self.x, self.y)

    @property
    def position(self) -> tuple[int, int]:
        """(x, y) coordinate pair in nanometres."""
        return (self.x, self.y)

    def with_layer(self, layer: int) -> "NodeName":
        """The same (net, x, y) location on a different metal layer."""
        return NodeName(self.net, layer, self.x, self.y)


def format_node_name(net: int, layer: int, x: int, y: int) -> str:
    """Render a node name in the contest grammar."""
    return f"n{net}_m{layer}_{x}_{y}"


def format_node_names(net: int, layer: int, xs: list[int], ys: list[int]) -> np.ndarray:
    """:func:`format_node_name` over the lattice ``xs × ys`` of one layer.

    Returns a ``(len(xs), len(ys))`` object array; entry ``[i, j]`` names
    the node at ``(xs[i], ys[j])``.
    """
    heads = [f"n{net}_m{layer}_{x}_" for x in xs]
    tails = [str(y) for y in ys]
    names = [head + tail for head in heads for tail in tails]
    return np.array(names, dtype=object).reshape(len(xs), len(ys))


def parse_node_name(name: str) -> NodeName:
    """Parse a contest-grammar node name.

    Raises
    ------
    ValueError
        If the name is ground or does not follow the grammar.
    """
    match = _NODE_RE.fullmatch(name)
    if match is None:
        raise ValueError(f"node name {name!r} does not match n*_m*_x_y grammar")
    return NodeName(
        net=int(match.group("net")),
        layer=int(match.group("layer")),
        x=int(match.group("x")),
        y=int(match.group("y")),
    )


def is_structured_name(name: str) -> bool:
    """Whether *name* follows the contest grammar (ground does not)."""
    return _NODE_RE.fullmatch(name) is not None


def _all_lines_structured(joined: str) -> bool:
    """Whether every newline-terminated line of *joined* is in the grammar."""
    pos = 0
    while pos < len(joined):
        end = joined.find("\n", pos + _SCAN_WINDOW) + 1 or len(joined)
        if _NODE_LINES_RE.fullmatch(joined, pos, end) is None:
            return False
        pos = end
    return True


def parse_node_names(names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`parse_node_name` over a whole name column.

    Returns ``(fields, structured)``: a ``(4, len(names))`` int64 array whose
    rows are net, layer, x and y, and the mask of names in the grammar
    (the fields of the others are zero).

    A column of grammar names only (every generated deck) is checked in a
    few scans of the joined names, at under half the cost of a match per
    name; any other column is matched name by name.  One scan that also
    yields the mask, from match positions, is slower on the first kind.
    """
    digits = "\n".join(names) + "\n"
    # A name holding a newline would pass as two lines.
    if digits.count("\n") == len(names) and _all_lines_structured(digits):
        structured = np.ones(len(names), dtype=bool)
    else:
        structured = np.fromiter(
            map(_NODE_RE.fullmatch, names), dtype=bool, count=len(names)
        )
        digits = " ".join(compress(names, structured.tolist()))
    # A matched name is digits, '-', and the separators 'n', '_m', '_'.
    digits = digits.replace("_m", " ").replace("_", " ").replace("n", " ")
    fields = np.zeros((len(names), 4), dtype=np.int64)
    fields[structured] = np.fromstring(digits, dtype=np.int64, sep=" ").reshape(-1, 4)
    return np.ascontiguousarray(fields.T), structured
