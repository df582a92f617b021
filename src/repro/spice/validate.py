"""Netlist/grid validation and graceful-degradation repair.

A production analysis service cannot crash on a malformed deck: floating
nodes, disconnected islands, zero/negative resistances and a singular
conductance matrix must all be detected *before* solving and either
repaired (with a structured record of what was done) or rejected with a
precise diagnostic.

Two levels are covered:

- **Netlist level** (:func:`validate_netlist`, :func:`repair_netlist`) —
  element-value problems: non-positive resistances, 0-ohm shorts,
  duplicate pad pins.  Repair clamps sick resistances to a floor and
  collapses shorts via :func:`~repro.spice.preprocess.collapse_shorts`.
- **Grid level** (:func:`validate_grid`, :func:`repair_grid`) — topology
  problems: no pads at all, floating (pad-less) components.  Repair
  ground-ties one node of every floating component to the supply rail
  (``strategy="ground_tie"``: the island then reports zero drop, a
  conservative bounded answer) or drops the island's load currents
  (``strategy="isolate"``).

Every repair is an explicit :class:`RepairRecord`; nothing is silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro.spice.ast import ElementList, Netlist, Resistor
from repro.spice.preprocess import collapse_shorts, count_shorts

if TYPE_CHECKING:  # grid imports stay lazy: keep `import repro.spice` light
    from repro.grid.netlist import PowerGrid

#: Resistance floor used when clamping non-positive/sub-floor values (ohms).
MIN_RESISTANCE = 1e-6


class NetlistValidationError(ValueError):
    """An input deck/grid is unusable and could not be repaired."""


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found during validation.

    Attributes
    ----------
    kind:
        Machine-readable tag, e.g. ``"floating_nodes"``, ``"no_pads"``,
        ``"nonpositive_resistance"``, ``"short_resistor"``.
    message:
        Human-readable description.
    count:
        How many elements/nodes are affected.
    fatal:
        ``True`` when solving without repair would produce a singular or
        indefinite system.
    """

    kind: str
    message: str
    count: int = 1
    fatal: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "count": self.count,
            "fatal": self.fatal,
        }


@dataclass(frozen=True)
class RepairRecord:
    """One repair action applied during graceful degradation."""

    action: str
    detail: str
    count: int = 1

    def to_dict(self) -> dict:
        return {"action": self.action, "detail": self.detail, "count": self.count}


# -- netlist level ----------------------------------------------------------


def validate_netlist(netlist: Netlist) -> list[ValidationIssue]:
    """Element-value checks on a parsed deck (no topology analysis)."""
    issues: list[ValidationIssue] = []
    shorts = count_shorts(netlist)
    if shorts:
        issues.append(
            ValidationIssue(
                kind="short_resistor",
                message=f"{shorts} zero-ohm resistor(s); must be collapsed",
                count=shorts,
                fatal=True,
            )
        )
    values = netlist.resistors.values
    bad = np.flatnonzero((values < 0) | ~np.isfinite(values))
    if bad.size:
        sample = ", ".join(netlist.resistors.names[i] for i in bad[:3].tolist())
        issues.append(
            ValidationIssue(
                kind="nonpositive_resistance",
                message=(
                    f"{bad.size} resistor(s) with negative or non-finite "
                    f"value (e.g. {sample}); G would not be SPD"
                ),
                count=int(bad.size),
                fatal=True,
            )
        )
    if not netlist.voltage_sources:
        issues.append(
            ValidationIssue(
                kind="no_pads",
                message="deck has no voltage sources; Gx=I is singular",
                fatal=True,
            )
        )
    return issues


def repair_netlist(
    netlist: Netlist,
) -> tuple[Netlist, list[RepairRecord]]:
    """Fix element-value problems, returning a new deck + repair records.

    0-ohm shorts are contracted; negative/non-finite resistances are
    clamped to :data:`MIN_RESISTANCE` (magnitude preserved when finite).
    A deck with no voltage sources cannot be repaired here — that is a
    topology-level rejection.
    """
    repairs: list[RepairRecord] = []
    shorts = count_shorts(netlist)
    if shorts:
        netlist = collapse_shorts(netlist)
        repairs.append(
            RepairRecord(
                action="collapse_shorts",
                detail=f"contracted {shorts} zero-ohm resistor(s)",
                count=shorts,
            )
        )
    resistors = netlist.resistors
    values = resistors.values
    sick = (values < 0) | ~np.isfinite(values)
    clamped = int(np.count_nonzero(sick))
    if clamped:
        magnitude = np.where(np.isfinite(values), np.abs(values), MIN_RESISTANCE)
        values[sick] = np.maximum(magnitude[sick], MIN_RESISTANCE)
        netlist = Netlist(
            netlist.title,
            ElementList.from_columns(
                Resistor,
                resistors.names[:], resistors.node_a[:], resistors.node_b[:], values,
            ),
            netlist.current_sources.copy(),
            netlist.voltage_sources.copy(),
        )
        repairs.append(
            RepairRecord(
                action="clamp_resistance",
                detail=(
                    f"clamped {clamped} negative/non-finite resistance(s) "
                    f"to >= {MIN_RESISTANCE} ohm"
                ),
                count=clamped,
            )
        )
    return netlist, repairs


# -- grid level -------------------------------------------------------------


def _components(grid: "PowerGrid") -> tuple[int, list[set[int]]]:
    """``(component count, the floating ones)`` in one labelling pass."""
    from repro.grid.topology import component_labels

    labels = component_labels(grid)
    count = int(labels.max()) + 1 if labels.size else 0
    padless = np.setdiff1d(np.arange(count), labels[grid.pad_indices()])
    return count, [set(np.flatnonzero(labels == k).tolist()) for k in padless]


def floating_components(grid: "PowerGrid") -> list[set[int]]:
    """Connected components with no pad (each is exactly singular)."""
    return _components(grid)[1]


def validate_grid(grid: "PowerGrid") -> list[ValidationIssue]:
    """Topology checks mirroring what MNA stamping requires."""
    issues: list[ValidationIssue] = []
    if not grid.pad_indices().size:
        issues.append(
            ValidationIssue(
                kind="no_pads",
                message="power grid has no voltage pads; Gx=I is singular",
                fatal=True,
            )
        )
        return issues
    components, islands = _components(grid)
    if islands:
        total = sum(len(c) for c in islands)
        sample = [grid.node_names[min(c)] for c in islands[:3]]
        issues.append(
            ValidationIssue(
                kind="floating_nodes",
                message=(
                    f"{len(islands)} component(s) / {total} node(s) with no "
                    f"resistive path to a pad (e.g. {sample}); the reduced "
                    "system is singular"
                ),
                count=total,
                fatal=True,
            )
        )
    if components > 1:
        issues.append(
            ValidationIssue(
                kind="disconnected_grid",
                message=(
                    f"grid splits into {components} components; each is "
                    "solved independently (block-diagonal G)"
                ),
                count=components,
                fatal=False,
            )
        )
    return issues


def repair_grid(
    grid: "PowerGrid",
    supply_voltage: float,
    strategy: str = "ground_tie",
) -> tuple["PowerGrid", list[RepairRecord]]:
    """Make a grid solvable, returning a (possibly cloned) grid + records.

    Parameters
    ----------
    strategy:
        ``"ground_tie"`` pins the lowest-index node of each floating
        component to *supply_voltage* (the island then reads zero drop —
        a bounded, conservative answer).  ``"isolate"`` additionally zeroes
        the island's load currents so it draws nothing.

    Raises
    ------
    NetlistValidationError
        If the grid has no pads at all — there is no supply level to tie
        to and no meaningful IR-drop question to answer.
    """
    if strategy not in ("ground_tie", "isolate"):
        raise ValueError(f"unknown repair strategy {strategy!r}")
    if not grid.pad_indices().size:
        raise NetlistValidationError(
            "power grid has no voltage pads; cannot repair (exit: bad input)"
        )
    islands = floating_components(grid)
    if not islands:
        return grid, []
    repaired = grid.clone()
    repairs: list[RepairRecord] = []
    for component in sorted(islands, key=min):
        anchor = min(component)
        repaired.pin_pad(anchor, supply_voltage)
        detail = (
            f"tied node {grid.node_names[anchor]!r} of a {len(component)}-node "
            f"floating component to {supply_voltage} V"
        )
        if strategy == "isolate":
            loaded = [i for i in component if repaired.load_current[i]]
            for index in loaded:
                repaired.set_load(index, 0.0)
            detail += f"; zeroed {len(loaded)} load current(s)"
        repairs.append(
            RepairRecord(action=strategy, detail=detail, count=len(component))
        )
    return repaired, repairs


# -- system level -----------------------------------------------------------


def singular_rows(matrix) -> np.ndarray:
    """Row indices of a stamped reduced matrix with a non-positive diagonal.

    A healthy reduced conductance matrix is SPD with a strictly positive
    diagonal; zero rows betray a floating node that slipped past topology
    checks, negative entries betray bad element values.
    """
    diag = matrix.diagonal()
    return np.flatnonzero(~(diag > 0) | ~np.isfinite(diag))
