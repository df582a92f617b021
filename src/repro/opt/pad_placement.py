"""Greedy power-pad placement.

A classic use of a fast IR-drop engine: given a PG whose worst drop
violates budget, where should extra pads go?  The greedy loop evaluates
each candidate top-layer node with a pad added there and commits the pad
that minimises the worst drop, repeating until the budget is met or the
pad budget is exhausted.

The sweep runs over :class:`~repro.solvers.incremental.IncrementalEngine`:
a pad is one constraint on the stamped system, so a round of candidates
is one :meth:`~repro.solvers.incremental.IncrementalEngine.preview_many`
batch — each candidate the committed solution plus one multiple of a
cached column ``G0⁻¹e_j``, certified by its residual — and the committed
pad is one more rank-1 term.  One stamping and one sparse LU of ``G0``
serve the entire sweep; a round's new columns are one block solve
against it, and the columns are cached across rounds.  The LU is the
one tier at every size; its measured envelope for a 384 px,
226k-unknown sweep is in docs/performance.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.grid.netlist import PGNode, PowerGrid
from repro.obs import counter_add, span
from repro.obs.registry import PAD_PLACEMENT, PAD_PLACEMENT_CANDIDATES
from repro.solvers.base import SolverOptions
from repro.solvers.incremental import AddPad, IncrementalEngine
from repro.spice.ast import Netlist, VoltageSource

#: Tolerance that certifies every committed solve and candidate preview.
_TOL = 1e-10


@dataclass
class PadPlacementResult:
    """Outcome of the greedy placement.

    Attributes
    ----------
    added_pads:
        Node names that received a new pad, in commit order.
    worst_drop_history:
        Worst drop before any addition and after each commit.
    final_netlist:
        The netlist with the new voltage sources appended.
    met_budget:
        Whether the final worst drop is within the requested budget.
    """

    added_pads: list[str]
    worst_drop_history: list[float]
    final_netlist: Netlist
    met_budget: bool

    @property
    def improvement(self) -> float:
        """Absolute worst-drop reduction achieved (volts)."""
        return self.worst_drop_history[0] - self.worst_drop_history[-1]


def _with_extra_pads(
    netlist: Netlist, pads: list[str], voltage: float
) -> Netlist:
    """*netlist* plus one source per pad, each named by the next free ``Vopt{k}``.

    SPICE instance names are unique and case-insensitive, so a deck that
    already went through a sweep gets ``Vopt3`` onward, not a second
    ``Vopt1``.
    """
    out = Netlist(
        title=netlist.title,
        resistors=netlist.resistors.copy(),
        current_sources=netlist.current_sources.copy(),
        voltage_sources=netlist.voltage_sources.copy(),
        capacitors=netlist.capacitors.copy(),
    )
    taken = {name.lower() for name in netlist.voltage_sources.names}
    free = (f"Vopt{k}" for k in count(1) if f"vopt{k}" not in taken)
    for node, name in zip(pads, free):
        out.voltage_sources.append(VoltageSource(name, node, "0", voltage))
    return out


def _top_layer_candidates(
    grid: PowerGrid, drops, max_candidates: int, exclude: set[str]
) -> list[PGNode]:
    """The most starved non-pad top-layer nodes, worst drop first.

    A deck whose node names carry no layer (outside the ``n*_m*_x_y``
    grammar) has no top layer and so no candidates.
    """
    _, _, layer, structured = grid.node_arrays()
    layers = grid.layers_present()
    if not layers:
        return []
    eligible = structured & (layer == layers[-1])
    eligible &= np.isnan(grid.pad_voltage)
    eligible[[grid.index_of(name) for name in exclude if name in grid]] = False
    pool = np.flatnonzero(eligible)
    # Stable on the negated key: ties keep node order, as a reversed sort does.
    order = pool[np.argsort(-np.asarray(drops)[pool], kind="stable")]
    return [grid.node(i) for i in order[:max_candidates].tolist()]


def greedy_pad_placement(
    netlist: Netlist,
    budget_volts: float,
    max_new_pads: int = 3,
    max_candidates: int = 24,
) -> PadPlacementResult:
    """Add pads greedily until the worst drop meets *budget_volts*.

    Parameters
    ----------
    netlist:
        The design to fix (must already contain at least one pad).
    budget_volts:
        Target worst-case drop.
    max_new_pads:
        Pad budget.
    max_candidates:
        Candidate pool size per round: the top-layer nodes with the
        largest current drop (the most starved regions).

    A candidate costs its column ``G0⁻¹e_j``, solved once per sweep in a
    multi-right-hand-side LU block with the rest of its round's new
    columns, plus elementwise algebra and one sparse residual.  Previews
    and committed solves
    are certified by their residuals at the same tolerance (``_TOL``),
    so the ranking and the reported drop history are solver-accurate.
    """
    if not budget_volts > 0:  # NaN fails this too
        raise ValueError(f"budget_volts must be positive, got {budget_volts}")
    if max_new_pads < 1:
        raise ValueError("max_new_pads must be >= 1")
    if max_candidates < 1:
        raise ValueError("max_candidates must be >= 1")
    grid = PowerGrid.from_netlist(netlist)
    supply_voltage = netlist.supply_voltage()
    engine = IncrementalEngine(
        grid,
        supply_voltage,
        options=SolverOptions(tol=_TOL, record_history=False),
    )

    added: list[str] = []
    with span(PAD_PLACEMENT):
        step = engine.solve()
        history = [float(step.drops.max())]
        for _ in range(max_new_pads):
            if history[-1] <= budget_volts:
                break
            candidates = _top_layer_candidates(
                engine.grid, step.drops, max_candidates, set(added)
            )
            if not candidates:
                break

            trials = engine.preview_many(
                [AddPad(candidate.name) for candidate in candidates]
            )
            counter_add(PAD_PLACEMENT_CANDIDATES, len(candidates))
            best_name: str | None = None
            best_worst = history[-1]
            for candidate, trial in zip(candidates, trials):
                worst = float(trial.drops.max())
                if worst < best_worst:
                    best_worst = worst
                    best_name = candidate.name
            if best_name is None:
                break  # no candidate improves; stop early
            engine.apply(AddPad(best_name))
            step = engine.solve()
            added.append(best_name)
            history.append(float(step.drops.max()))

    final = _with_extra_pads(netlist, added, supply_voltage)
    return PadPlacementResult(
        added_pads=added,
        worst_drop_history=history,
        final_netlist=final,
        met_budget=history[-1] <= budget_volts,
    )
