"""SPICE deck parser for static power-grid analysis.

The parser accepts the subset of SPICE used by PG decks:

- ``R<name> a b value`` resistors,
- ``I<name> a b value`` independent current sources,
- ``V<name> a b value`` independent voltage sources,
- ``C<name> a b value`` capacitors (decap / wire cap; parsed, ignored by
  static analysis),
- ``*`` comment lines (the first one becomes the netlist title),
- ``.end`` terminator (optional; nothing after it is read), ``.ends`` and
  ``.op`` (ignored); directives are case-insensitive,
- engineering suffixes on values (``k``, ``m``, ``u``, ``n``, ``p``, ``f``,
  ``meg``, ``g``, ``t``) and plain scientific notation.

Everything else (subcircuits, inductors, other directives, ...) raises
:class:`SpiceParseError` with the 1-based line number; lines end at
``\\n`` (or ``\\r\\n``) and nowhere else.  The deck is tokenised as one
buffer into the columns of :class:`~repro.spice.ast.Netlist` and checked
column-wise; only a failed check makes :func:`_raise_first_error` walk the
lines to name the first offender.
"""

from __future__ import annotations

import os
import re
from itertools import chain
from types import MappingProxyType

import numpy as np

from repro.spice.ast import (
    Capacitor,
    CurrentSource,
    ElementList,
    Netlist,
    Resistor,
    VoltageSource,
)


class SpiceParseError(ValueError):
    """Raised on malformed or unsupported SPICE input."""

    def __init__(self, message: str, line_no: int | None = None) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


_SUFFIXES = MappingProxyType({
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
})

#: A numeric token: an ASCII decimal number and an optional suffix.
#: ``float()`` alone would also take ``inf``, ``nan``, ``1_0`` and non-ASCII digits.
_VALUE = re.compile(
    r"([+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?)(meg|[tgkmunpf])?",
    re.ASCII,
)
#: Deletes the characters of a suffix-free number: a token with anything left
#: needs :func:`parse_value`, any other is in the grammar iff ``float`` takes it.
_DROP_PLAIN = {ord(char): None for char in "0123456789eE+-."}

_IGNORED_DIRECTIVES = (".ends", ".op")
_KINDS = (
    ("R", Resistor, "resistance"),
    ("I", CurrentSource, None),
    ("V", VoltageSource, None),
    ("C", Capacitor, "capacitance"),
)


def parse_value(token: str, line_no: int | None = None) -> float:
    """Parse a SPICE numeric token with optional engineering suffix.

    Suffix matching is case-insensitive as in SPICE; the result must be
    finite (``1e999`` is not a resistance).
    """
    text = token.strip().lower()
    if not text:
        raise SpiceParseError("empty numeric token", line_no)
    match = _VALUE.fullmatch(text)
    value = float(match[1]) * _SUFFIXES.get(match[2], 1.0) if match else np.inf
    if not np.isfinite(value):
        raise SpiceParseError(f"bad numeric token {token!r}", line_no)
    return value


def _raise_first_error(lines: list[str]) -> None:
    """Walk the deck line by line and raise for the first malformed one."""
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "*":
            continue
        if tokens[0][0] == ".":
            directive = tokens[0].lower()
            if directive == ".end":
                break
            if directive in _IGNORED_DIRECTIVES:
                continue
            raise SpiceParseError(f"unsupported directive {directive!r}", line_no)
        if len(tokens) != 4:
            raise SpiceParseError(
                f"expected 'NAME node node value', got {len(tokens)} tokens", line_no
            )
        value = parse_value(tokens[3], line_no)
        for letter, _, quantity in _KINDS:
            if tokens[0][0] in (letter, letter.lower()):
                if quantity and value < 0:
                    raise SpiceParseError(f"negative {quantity} {value}", line_no)
                break
        else:
            raise SpiceParseError(
                f"unsupported element {tokens[0]!r} (PG decks hold only R/I/V/C)",
                line_no,
            )
    raise AssertionError("column checks rejected a deck the line walk accepts")


def _take(column: list[str], index: np.ndarray) -> list[str]:
    """``column[index]`` for sorted *index*; decks group a kind, so mostly a slice."""
    if index.size and index[-1] - index[0] + 1 == index.size:
        return column[index[0] : index[-1] + 1]
    return [column[i] for i in index.tolist()]


def parse_spice(text: str) -> Netlist:
    """Parse a SPICE deck from a string into a :class:`Netlist`."""
    lines = text.split("\n")
    # Token counts come from throwaway per-line splits, the tokens from one
    # split of the deck ("\n" is whitespace too).  No per-line list outlives
    # its line, so a parse does not wake the cyclic GC.
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    deck_tokens = text.split()
    end = np.cumsum(counts)
    start = end - counts
    four = counts == 4
    # Each run of consecutive four-token lines is one slice of the tokens.
    runs = np.flatnonzero(np.diff(four, prepend=False, append=False))
    run_start, run_end = start[runs[0::2]].tolist(), end[runs[1::2] - 1].tolist()
    flat = list(chain.from_iterable(deck_tokens[a:b] for a, b in zip(run_start, run_end)))
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
        first = deck_tokens[start[i]]
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


def parse_spice_file(path: str | os.PathLike[str]) -> Netlist:
    """Parse a SPICE deck from a file path."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spice(handle.read())
