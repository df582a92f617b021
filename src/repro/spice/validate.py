"""Grid validation and graceful-degradation repair.

A production analysis service cannot crash on a malformed deck.  Element
values are settled before a grid exists: the parser refuses negative and
non-finite values with a line number, and
:meth:`~repro.grid.netlist.PowerGrid.from_netlist` refuses 0-ohm,
ground-touching and self-loop resistors, naming the element.  What is left
is topology, checked here on the built grid: no pads at all, floating
(pad-less) components.  :func:`repair_grid` ground-ties one node of every
floating component to the supply rail (the island then reports zero drop,
a conservative bounded answer) and records each tie as a
:class:`RepairRecord`; nothing is silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # grid imports stay lazy: keep `import repro.spice` light
    from repro.grid.netlist import PowerGrid


class NetlistValidationError(ValueError):
    """An input deck/grid is unusable and could not be repaired."""


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found during validation.

    Attributes
    ----------
    kind:
        Machine-readable tag: ``"no_pads"``, ``"floating_nodes"`` or
        ``"disconnected_grid"``.
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


def _padless(grid: "PowerGrid") -> tuple[int, np.ndarray, np.ndarray]:
    """``(component count, first node and size of each pad-less one)``.

    One labelling pass; components are labelled in order of first
    appearance, so the first nodes come out ascending.
    """
    from repro.grid.topology import component_labels

    labels = component_labels(grid)
    count = int(labels.max()) + 1 if labels.size else 0
    padless = np.setdiff1d(np.arange(count), labels[grid.pad_indices()])
    if not padless.size:
        return count, padless, padless
    first = np.unique(labels, return_index=True)[1]
    return count, first[padless], np.bincount(labels)[padless]


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
    components, anchors, sizes = _padless(grid)
    if anchors.size:
        total = int(sizes.sum())
        sample = [grid.node_names[i] for i in anchors[:3].tolist()]
        issues.append(
            ValidationIssue(
                kind="floating_nodes",
                message=(
                    f"{anchors.size} component(s) / {total} node(s) with no "
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
    grid: "PowerGrid", supply_voltage: float
) -> tuple["PowerGrid", list[RepairRecord]]:
    """Make a grid solvable, returning a (possibly cloned) grid + records.

    Pins the lowest-index node of each floating component to
    *supply_voltage*: the island then reads zero drop, a bounded,
    conservative answer.

    Raises
    ------
    NetlistValidationError
        If the grid has no pads at all — there is no supply level to tie
        to and no meaningful IR-drop question to answer.
    """
    if not grid.pad_indices().size:
        raise NetlistValidationError(
            "power grid has no voltage pads; cannot repair (exit: bad input)"
        )
    _, anchors, sizes = _padless(grid)
    if not anchors.size:
        return grid, []
    repaired = grid.clone()
    repairs: list[RepairRecord] = []
    for anchor, size in zip(anchors.tolist(), sizes.tolist()):
        repaired.pin_pad(anchor, supply_voltage)
        repairs.append(
            RepairRecord(
                action="ground_tie",
                detail=(
                    f"tied node {grid.node_names[anchor]!r} of a {size}-node "
                    f"floating component to {supply_voltage} V"
                ),
                count=size,
            )
        )
    return repaired, repairs
