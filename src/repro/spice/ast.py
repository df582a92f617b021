"""The elements of a power-grid SPICE netlist, stored as columns.

Four element kinds occur in PG decks: resistors, independent current
sources (cell current drains), independent voltage sources (power pads)
and capacitors (parsed, ignored by static analysis).  A :class:`Netlist` holds one
:class:`ElementList` per kind — names, two node-name columns and float64
values in file order — which the parser fills from the token stream,
:class:`~repro.grid.netlist.PowerGrid` reads whole, and pickle ships; the
record dataclasses below are made when a caller indexes or iterates one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True, slots=True)
class Resistor:
    """A two-terminal resistor ``R<name> <node_a> <node_b> <ohms>``."""

    name: str
    node_a: str
    node_b: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance < 0:
            raise ValueError(
                f"resistor {self.name!r} has negative resistance {self.resistance}"
            )


@dataclass(frozen=True, slots=True)
class Capacitor:
    """``C<name> <node_a> <node_b> <farads>`` — decap or wire capacitance.

    Capacitors are parsed and ignored by static analysis, so decks that
    carry them still load; ground may appear on either terminal.
    """

    name: str
    node_a: str
    node_b: str
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance < 0:
            raise ValueError(
                f"capacitor {self.name!r} has negative capacitance "
                f"{self.capacitance}"
            )


@dataclass(frozen=True, slots=True)
class CurrentSource:
    """``I<name> <node_from> <node_to> <amps>``.

    In PG decks current sources sink current from a bottom-metal node to
    ground, i.e. ``node_from`` is the PG node and ``node_to`` is ``0``.
    """

    name: str
    node_from: str
    node_to: str
    current: float


@dataclass(frozen=True, slots=True)
class VoltageSource:
    """``V<name> <node_pos> <node_neg> <volts>`` — a power pad."""

    name: str
    node_pos: str
    node_neg: str
    voltage: float


Element = Resistor | CurrentSource | VoltageSource | Capacitor


class ElementList:
    """One element kind as four parallel columns, list-like over its records.

    ``names``, ``node_a`` and ``node_b`` are python lists of strings (what
    ``str.split`` yields and ``dict`` interning consumes); the values are
    one packed float64 column, read as an array through :attr:`values`.
    """

    __slots__ = ("record", "names", "node_a", "node_b", "_values")

    def __init__(self, record: type, elements: Iterable[Element] = ()) -> None:
        self.record = record
        self.names: list[str] = []
        self.node_a: list[str] = []
        self.node_b: list[str] = []
        self._values = array("d")
        self.extend(elements)

    @classmethod
    def from_columns(
        cls,
        record: type,
        names: list[str],
        node_a: list[str],
        node_b: list[str],
        values: np.ndarray,
    ) -> "ElementList":
        """Adopt already-built columns (no per-element validation)."""
        if not len(names) == len(node_a) == len(node_b) == len(values):
            raise ValueError("element columns differ in length")
        out = cls(record)
        out.names, out.node_a, out.node_b = names, node_a, node_b
        out._values.frombytes(np.asarray(values, dtype=np.float64).tobytes())
        return out

    @property
    def values(self) -> np.ndarray:
        """A float64 copy of the value column (ohms, amps, volts or farads)."""
        return np.array(self._values, dtype=np.float64)

    def _columns(self) -> tuple:
        return self.names, self.node_a, self.node_b, self._values

    def copy(self) -> "ElementList":
        return ElementList(self.record, self)

    def append(self, element: Element) -> None:
        # A record's slots are (name, first node, second node, value); read
        # all four first so a record of another kind leaves no ragged column.
        row = [getattr(element, slot) for slot in self.record.__slots__]
        for column, field_value in zip(self._columns(), row):
            column.append(field_value)

    def extend(self, elements: Iterable[Element]) -> None:
        if isinstance(elements, ElementList) and elements.record is self.record:
            for column, more in zip(self._columns(), elements._columns()):
                column.extend(more)
            return
        for element in elements:
            self.append(element)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self.record, *(column[index] for column in self._columns())))
        return self.record(*(column[index] for column in self._columns()))

    def __iter__(self) -> Iterator[Element]:
        return map(self.record, *self._columns())

    def __eq__(self, other) -> bool:
        if isinstance(other, ElementList):
            return self.record is other.record and self._columns() == other._columns()
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


@dataclass(slots=True)
class Netlist:
    """An ordered power-grid netlist.

    Attributes
    ----------
    title:
        Free-form title (the first comment line of the deck, if any).
    resistors, current_sources, voltage_sources, capacitors:
        Elements in file order, one :class:`ElementList` per kind; plain
        lists of records passed to the constructor are converted.
    """

    title: str = ""
    resistors: ElementList = ()
    current_sources: ElementList = ()
    voltage_sources: ElementList = ()
    capacitors: ElementList = ()

    def __post_init__(self) -> None:
        for name, record in (
            ("resistors", Resistor),
            ("current_sources", CurrentSource),
            ("voltage_sources", VoltageSource),
            ("capacitors", Capacitor),
        ):
            given = getattr(self, name)
            if not isinstance(given, ElementList):
                setattr(self, name, ElementList(record, given))

    def kinds(self) -> tuple[ElementList, ...]:
        """The four element columns, resistors first."""
        return (
            self.resistors, self.current_sources, self.voltage_sources,
            self.capacitors,
        )

    def __len__(self) -> int:
        return sum(len(kind) for kind in self.kinds())

    def supply_voltage(self) -> float:
        """The pad voltage, assuming a single supply level.

        Raises
        ------
        ValueError
            If the deck has no voltage source or has pads at different
            voltages (multi-domain decks must be split first).
        """
        voltages = set(self.voltage_sources.values.tolist())
        if not voltages:
            raise ValueError("netlist has no voltage sources (power pads)")
        if len(voltages) > 1:
            raise ValueError(
                f"netlist has multiple supply voltages {sorted(voltages)}; "
                "split multi-domain decks before analysis"
            )
        return voltages.pop()
