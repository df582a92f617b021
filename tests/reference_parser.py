"""Reference deck ingestion (moved verbatim from ``repro.spice``).

``parse_spice`` tokenises line by line with ``list(map(str.split, lines))``:
one token list per deck line, all alive until the parse returns.  The
shipped :func:`repro.spice.parser.parse_spice` tokenises the deck once and
must return the same netlist (title, name columns, packed values) or raise
the same :class:`SpiceParseError` message and ``line_no``.
``parse_node_names`` checks the node grammar with one ``fullmatch`` per
name; the shipped one scans the whole column at once and must return the
same ``(fields, structured)``.  ``tests/test_spice_parser_oracle.py``
holds both to that.  Nothing in ``src/`` calls these.
"""

from __future__ import annotations

from itertools import chain, compress

import numpy as np

from repro.spice.ast import ElementList, Netlist
from repro.spice.nodes import _NODE_RE
from repro.spice.parser import (
    _DROP_PLAIN,
    _IGNORED_DIRECTIVES,
    _KINDS,
    _raise_first_error,
    parse_value,
)


def _take(column: list[str], index: np.ndarray) -> list[str]:
    """``column[index]`` for sorted *index*; decks group a kind, so mostly a slice."""
    if index.size and index[-1] - index[0] + 1 == index.size:
        return column[index[0] : index[-1] + 1]
    return [column[i] for i in index.tolist()]


def parse_spice(text: str) -> Netlist:
    """Parse a SPICE deck from a string into a :class:`Netlist`."""
    lines = text.split("\n")
    rows = list(map(str.split, lines))
    counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    four = counts == 4
    flat = list(chain.from_iterable(compress(rows, four.tolist())))
    line_of = np.flatnonzero(four)
    # First character of every four-token line, as a code point.
    head = np.array(flat[0::4], dtype="U1").view(np.uint32).reshape(-1)
    special = (head == ord("*")) | (head == ord("."))

    # Comments, directives and wrong token counts are few: visit them in
    # file order for the title, the ``.end`` cut and a first verdict.
    title = None
    stop = len(lines)
    odd = np.concatenate([np.flatnonzero(~four & (counts > 0)), line_of[special]])
    for i in np.sort(odd).tolist():
        first = rows[i][0]
        if first[0] == "*":
            if title is None:
                title = lines[i].strip().lstrip("*").strip()
        elif first.lower() == ".end":
            stop = i
            break
        elif first[0] != "." or first.lower() not in _IGNORED_DIRECTIVES:
            _raise_first_error(lines)

    element = np.flatnonzero(~special & (line_of < stop))
    letter = head[element] & ~np.uint32(0x20)  # ASCII upper case
    tokens: list = _take(flat[3::4], element)
    try:
        residue = " ".join(tokens).translate(_DROP_PLAIN)
        if residue.strip(" "):
            for i, rest in enumerate(residue.split(" ")):
                if rest:
                    tokens[i] = parse_value(tokens[i])
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:  # SpiceParseError included
        _raise_first_error(lines)

    name_columns = flat[0::4], flat[1::4], flat[2::4]
    columns = []
    known = np.zeros(element.size, dtype=bool)
    for kind, record, quantity in _KINDS:
        mine = letter == ord(kind)
        known |= mine
        chosen = np.flatnonzero(mine)
        if quantity and (values[chosen] < 0).any():
            _raise_first_error(lines)
        picked = element[chosen]
        columns.append(
            ElementList.from_columns(
                record,
                *(_take(column, picked) for column in name_columns),
                values[chosen],
            )
        )
    if not (known.all() and np.isfinite(values).all()):
        _raise_first_error(lines)
    return Netlist(title or "", *columns)


def parse_node_names(names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`parse_node_name` over a whole name column.

    Returns ``(fields, structured)``: a ``(4, len(names))`` int64 array whose
    rows are net, layer, x and y, and the mask of names in the grammar
    (the fields of the others are zero).
    """
    structured = np.fromiter(
        map(_NODE_RE.fullmatch, names), dtype=bool, count=len(names)
    )
    # A matched name is digits, '-', and the separators 'n', '_m', '_'.
    digits = " ".join(compress(names, structured.tolist()))
    digits = digits.replace("_m", " ").replace("_", " ").replace("n", " ")
    fields = np.zeros((len(names), 4), dtype=np.int64)
    fields[structured] = np.fromstring(digits, dtype=np.int64, sep=" ").reshape(-1, 4)
    return np.ascontiguousarray(fields.T), structured
