"""The power-grid container built by the spice parser / circuit generator.

Section III-B: "The spice parser loads the spice file and creates a hash
table of circuit nodes representing circuit connections. ... the PG is
stored as a nodes list and wires map, which are linked to present their
topologies."

:class:`PowerGrid` is that structure, stored as columns: a node table
(names, parsed coordinates, load current and pad voltage per node, plus
the name → dense-id hash table, built on the first lookup by name) and a
wires map (names, two endpoint-id columns and resistances).  It is the
single input to MNA stamping, feature extraction and the synthetic
generators, all of which read the columns; a :class:`PGNode` record is
made on demand for a caller that wants one node at a time.

Every wire of a grid built by :meth:`PowerGrid.from_netlist` joins two
distinct PG nodes through a finite resistance > 0, so nothing downstream
tolerates, repairs or re-derives a bad wire.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.spice.ast import Netlist
from repro.spice.nodes import GROUND, NodeName, parse_node_names


@dataclass(frozen=True, slots=True)
class PGNode:
    """A read-only snapshot of one circuit node of the power grid.

    Attributes
    ----------
    index:
        Dense 0-based id, assigned in insertion order (file order).
    name:
        The SPICE node name.
    structured:
        Parsed coordinates when the name follows the contest grammar,
        otherwise ``None`` (e.g. intermediate nodes of exotic decks).
    load_current:
        Total current drawn from this node by attached current sources.
    pad_voltage:
        Supply voltage if a voltage source pins this node, else ``None``.
    """

    index: int
    name: str
    structured: NodeName | None = None
    load_current: float = 0.0
    pad_voltage: float | None = None

    @property
    def is_pad(self) -> bool:
        return self.pad_voltage is not None

    @property
    def layer(self) -> int | None:
        return self.structured.layer if self.structured is not None else None


def _reject_first(netlist: Netlist) -> None:
    """Raise for the first element, in file order, a PG cannot hold."""
    res, src, pad = (
        netlist.resistors, netlist.current_sources, netlist.voltage_sources
    )
    for name, a, b, ohms in zip(res.names, res.node_a, res.node_b, res.values.tolist()):
        if ohms == 0.0:
            raise ValueError(
                f"resistor {name!r} is a 0-ohm short; merge its nodes first"
            )
        if not 0.0 < ohms < np.inf:
            raise ValueError(
                f"resistor {name!r} has resistance {ohms}; a PG wire needs "
                "a finite value > 0"
            )
        if a == GROUND or b == GROUND:
            raise ValueError(
                f"resistor {name!r} touches ground; PG resistor networks "
                "connect to ground only through sources"
            )
        if a == b:
            raise ValueError(f"resistor {name!r} is a self-loop on {a!r}")
    for name, node, sink in zip(src.names, src.node_a, src.node_b):
        if sink != GROUND:
            raise ValueError(
                f"current source {name!r} must sink to ground, got {sink!r}"
            )
        if node == GROUND:
            raise ValueError("ground cannot be interned as a PG node")
    pinned: dict[str, float] = {}
    for name, node, ref, volts in zip(
        pad.names, pad.node_a, pad.node_b, pad.values.tolist()
    ):
        if ref != GROUND:
            raise ValueError(
                f"voltage source {name!r} must reference ground, got {ref!r}"
            )
        if node == GROUND:
            raise ValueError("ground cannot be interned as a PG node")
        if volts != volts:
            raise ValueError(f"voltage source {name!r} has a NaN voltage")
        if pinned.setdefault(node, volts) != volts:
            raise ValueError(
                f"node {node!r} pinned to two voltages ({pinned[node]} and {volts})"
            )


class PowerGrid:
    """Node table + wires map for one PG design.

    Build one from a parsed SPICE deck with :meth:`from_netlist`.  Nodes are
    indexed densely; ground is *not* a node (elements to ground record only
    their PG-side endpoint).  The columns are the state and what pickles:
    ``node_names`` / ``wire_names`` in id order, ``load_current`` (amps) and
    ``pad_voltage`` (volts, NaN where the node is not a pad) per node.  Read
    them freely; write only through :meth:`pin_pad`, :meth:`unpin_pad` and
    :meth:`set_load`.

    What depends on the grid alone (its validation, stamped system, layer
    list and per-layer pixel index, structural features, golden solution)
    is computed once per grid state
    through :meth:`memo`.  Each mutator starts an empty memo; :meth:`clone`
    and pickling carry none.
    """

    def __init__(
        self,
        node_names: list[str],
        load_current: np.ndarray,
        pad_voltage: np.ndarray,
        wire_names: list[str],
        wire_a: np.ndarray,
        wire_b: np.ndarray,
        wire_r: np.ndarray,
    ) -> None:
        self.node_names = node_names
        # The name -> id hash table, built on the first lookup by name: the
        # analyse path addresses nodes by id only.
        self._index_of: dict[str, int] | None = None
        self.load_current = load_current
        self.pad_voltage = pad_voltage
        self.wire_names = wire_names
        self._wire_a = wire_a
        self._wire_b = wire_b
        self._wire_r = wire_r
        # (net, layer, x, y) rows parsed from the names, zero where the
        # name is not in the contest grammar (layer -1 there).
        self._coords, self._structured = parse_node_names(node_names)
        self._coords[1, ~self._structured] = -1
        self._memo: dict = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "PowerGrid":
        """Build the node table and wires map from a parsed deck.

        Raises ``ValueError`` naming the first element, in file order, that
        a PG cannot hold: a resistor that is not a finite value > 0, touches
        ground (a static PG is floating from ground except through ideal
        sources) or loops on one node; a source not referenced to ground;
        a node pinned to two voltages.
        """
        res, src, pad = (
            netlist.resistors, netlist.current_sources, netlist.voltage_sources
        )
        # Intern every PG-side endpoint in the order a per-element walk
        # would meet them: resistor (a, b) pairs, then sources, then pads.
        ends: list[str] = [GROUND] * (2 * len(res))
        ends[0::2], ends[1::2] = res.node_a, res.node_b
        ends += src.node_a
        ends += pad.node_a
        # One hash pass: each endpoint gets the position where its name was
        # first seen; ranking the first sightings gives the dense ids.
        first_seen: dict[str, int] = {}
        seen_at = np.fromiter(
            map(first_seen.setdefault, ends, range(len(ends))), np.int64, len(ends)
        )
        node_names = list(first_seen)
        is_first = seen_at == np.arange(len(ends))
        ids = (np.cumsum(is_first) - 1)[seen_at]
        wire_a, wire_b = ids[0 : 2 * len(res) : 2].copy(), ids[1 : 2 * len(res) : 2].copy()
        load_ids, pad_ids = np.split(ids[2 * len(res) :], [len(src)])

        ohms, volts = res.values, pad.values
        pad_voltage = np.full(len(node_names), np.nan)
        pad_voltage[pad_ids] = volts
        if (
            GROUND in first_seen
            or not ((ohms > 0.0) & (ohms < np.inf)).all()
            or (wire_a == wire_b).any()
            or src.node_b.count(GROUND) != len(src)
            or pad.node_b.count(GROUND) != len(pad)
            or not np.array_equal(pad_voltage[pad_ids], volts)
        ):
            _reject_first(netlist)
        # bincount adds in input order: a node's sources sum as listed.
        load_current = np.bincount(
            load_ids, weights=src.values, minlength=len(node_names)
        )
        return cls(
            node_names, load_current, pad_voltage, res.names[:], wire_a, wire_b, ohms
        )

    # -- ECO mutation ------------------------------------------------------

    def _index(self, node: int | str) -> int:
        if isinstance(node, str):
            return self.index_of(node)
        return range(len(self.node_names))[node]

    def pin_pad(self, node: int | str, voltage: float) -> None:
        """Pin a node to a supply voltage (add a pad in place)."""
        index = self._index(node)
        current = self.pad_voltage[index]
        if current == current and current != voltage:
            raise ValueError(
                f"node {self.node_names[index]!r} already pinned to {float(current)}"
            )
        if voltage != voltage:
            raise ValueError("a pad voltage cannot be NaN")
        self.pad_voltage[index] = voltage
        self._memo = {}

    def unpin_pad(self, node: int | str) -> None:
        """Remove a pad pin, returning the node to the unknown set."""
        index = self._index(node)
        if np.isnan(self.pad_voltage[index]):
            raise ValueError(f"node {self.node_names[index]!r} is not a pad")
        self.pad_voltage[index] = np.nan
        self._memo = {}

    def set_load(self, node: int | str, amps: float) -> None:
        """Set a node's attached load current (absolute, not additive)."""
        self.load_current[self._index(node)] = amps
        self._memo = {}

    def clone(self) -> "PowerGrid":
        """Independent copy: the editable columns copied, the rest shared, no memo."""
        other = object.__new__(PowerGrid)
        other.__dict__.update(self.__dict__)
        other.load_current = self.load_current.copy()
        other.pad_voltage = self.pad_voltage.copy()
        other._memo = {}
        return other

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = {}

    # -- per-state memo ----------------------------------------------------

    def memo(self, key, build: Callable[[], object]):
        """``build()`` for the grid's current state, computed once per state.

        *key* names a value that depends on the columns alone; the caller
        hands out only what no reader can change (read-only arrays, or
        copies).  A mutator replaces the memo rather than clearing it, so a
        value built while one ran lands in the memo it discarded.  Two
        threads that miss together both build; the values are equal, and
        the later store wins.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    # -- queries -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_names)

    @property
    def num_wires(self) -> int:
        return len(self.wire_names)

    def node(self, key: str | int) -> PGNode:
        """Node record by name or dense index."""
        index = self._index(key)
        volts = self.pad_voltage[index]
        return PGNode(
            index,
            self.node_names[index],
            NodeName(*self._coords[:, index].tolist())
            if self._structured[index]
            else None,
            float(self.load_current[index]),
            None if volts != volts else float(volts),
        )

    def _name_table(self) -> dict[str, int]:
        if self._index_of is None:
            self._index_of = dict(zip(self.node_names, range(self.num_nodes)))
        return self._index_of

    def __contains__(self, name: str) -> bool:
        return name in self._name_table()

    def index_of(self, name: str) -> int:
        return self._name_table()[name]

    def pad_indices(self) -> np.ndarray:
        """Indices of all voltage-pinned nodes, ascending."""
        return np.flatnonzero(~np.isnan(self.pad_voltage))

    def pads(self) -> list[PGNode]:
        """All voltage-pinned nodes."""
        return [self.node(i) for i in self.pad_indices().tolist()]

    def supply_voltage(self) -> float:
        """The one level every pad is pinned to (``ValueError`` if there is none)."""
        levels = set(self.pad_voltage[self.pad_indices()].tolist())
        if len(levels) != 1:
            raise ValueError(
                f"cannot infer a single supply voltage from pads: {levels}"
            )
        return levels.pop()

    def layers_present(self) -> list[int]:
        """Sorted metal-layer indices that have at least one structured node."""
        return list(
            self.memo(
                "layers_present",
                lambda: tuple(np.unique(self._coords[1, self._structured]).tolist()),
            )
        )

    def nodes_on_layer(self, layer: int) -> list[PGNode]:
        """Structured nodes on a given metal layer."""
        on_layer = self._structured & (self._coords[1] == layer)
        return [self.node(i) for i in np.flatnonzero(on_layer).tolist()]

    # -- columnar views ----------------------------------------------------

    def node_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(x, y, layer, structured_mask)`` per-node arrays.

        Unstructured nodes carry ``x = y = 0`` and ``layer = -1`` with
        ``structured_mask`` False.  Callers must treat them as read-only.
        """
        _, layer, x, y = self._coords
        return x, y, layer, self._structured

    def wire_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(node_a, node_b, resistance)`` per-wire arrays (read-only)."""
        return self._wire_a, self._wire_b, self._wire_r
