"""PowerRush-style end-to-end static PG simulator.

The paper's numerical baseline: SPICE deck in, per-node voltages and
IR-drop maps out, with AMG-PCG doing the solving.  Capping
``max_iterations`` reproduces the rough-solution regime the fusion
framework feeds into the ML model (and the Fig. 7 sweep).

The simulator is fault-tolerant: the input grid is validated (and, on a
fatal issue, repaired — floating islands ground-tied) before stamping,
and the solve runs through the :class:`~repro.solvers.guard.FallbackCascade`
(AMG-PCG → direct).  Everything non-nominal
is recorded on ``SimulationReport.diagnostics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.diagnostics import RunDiagnostics
from repro.grid.geometry import GridGeometry
from repro.obs import span
from repro.obs.registry import STAMP, VALIDATE
from repro.grid.netlist import PowerGrid
from repro.grid.raster import layer_values_image
from repro.mna.stamper import stamped_system
from repro.mna.system import ReducedSystem
from repro.solvers.amg import AMGOptions
from repro.solvers.base import SolveResult, SolverOptions
from repro.solvers.cache import setup_cache_stats
from repro.solvers.cycles import CycleOptions
from repro.solvers.guard import FallbackCascade, FaultHook
from repro.spice.ast import Netlist
from repro.spice.parser import parse_spice, parse_spice_file
from repro.spice.validate import repair_grid, validate_grid


@dataclass
class SimulationReport:
    """Everything a static IR-drop run produces.

    Attributes
    ----------
    grid:
        The analysed power grid (post-repair when repairs were needed).
    system:
        The reduced linear system that was solved (read-only: it is the
        grid's memoised stamp).
    voltages:
        Per-grid-node voltage vector (pads at their pinned value).
    ir_drop:
        Per-grid-node drop ``vdd - v``.
    solve:
        Solver statistics for the run.
    supply_voltage:
        The single supply level of the deck.
    diagnostics:
        Validation issues, repairs and solver fallback history for the
        run (empty record when everything was nominal).
    """

    grid: PowerGrid
    system: ReducedSystem
    voltages: np.ndarray
    ir_drop: np.ndarray
    solve: SolveResult
    supply_voltage: float
    diagnostics: RunDiagnostics = field(default_factory=RunDiagnostics)

    def worst_drop(self) -> float:
        """Maximum IR drop over all nodes (the signoff quantity)."""
        return float(self.ir_drop.max()) if self.ir_drop.size else 0.0

    def drop_image(
        self, geometry: GridGeometry, layer: int = 1, reduce: str = "max"
    ) -> np.ndarray:
        """IR-drop image for one metal layer (bottom layer by default)."""
        return layer_values_image(
            geometry, self.grid, self.ir_drop, layer=layer, reduce=reduce
        )

    def layer_drop_images(self, geometry: GridGeometry) -> dict[int, np.ndarray]:
        """IR-drop image per metal layer present in the grid."""
        return {
            layer: self.drop_image(geometry, layer=layer)
            for layer in self.grid.layers_present()
        }


#: Named solver configurations.  ``"quality"`` is the signoff setting
#: (double pairwise aggregation + K-cycle); ``"fast"`` trades per-iteration
#: cost for convergence rate (single-pass aggregation + damped-Jacobi
#: V-cycle), which is the configuration the fusion framework and the Fig. 7
#: trade-off sweep use for their 1-10 rough iterations.
#:
#: ``quality`` stops coarsening at 1000 unknowns: a K-cycle visits level
#: ``l`` up to ``2**(l-1)`` times per iteration, and one sparse LU solve on
#: the coarsest level is cheaper than that recursion over levels of a few
#: hundred unknowns (docs/solver_theory.md has the sweep).  ``fast`` keeps
#: the default 64: its V-cycle visits each level once, and a 16 px design
#: under a 1000 cutoff would be its own coarsest level, its rough solve
#: exact.
PRESETS: Mapping[str, tuple[AMGOptions, CycleOptions]] = MappingProxyType({
    "quality": (AMGOptions(max_coarse_size=1000), CycleOptions()),
    "fast": (
        AMGOptions(passes_per_level=1),
        CycleOptions(
            cycle="v", presmooth_sweeps=1, postsmooth_sweeps=0, smoother="jacobi"
        ),
    ),
})


class PowerRushSimulator:
    """SPICE → PowerGrid → MNA → AMG-PCG, packaged as one object.

    Parameters
    ----------
    max_iterations:
        Outer PCG iteration cap; small values give the rough solutions
        consumed by the fusion framework.
    tol:
        Relative-residual tolerance (reached ⇒ "golden-quality" solve).
    preset:
        ``"quality"`` or ``"fast"`` (see :data:`PRESETS`); ignored when
        explicit ``amg_options``/``cycle_options`` are given.
    amg_options, cycle_options:
        Forwarded to the underlying solver, overriding the preset.
    fault_hook:
        Forwarded to the :class:`FallbackCascade`; the hook the
        fault-injection harness uses.

    Iterations start from the flat guess ``v = vdd`` (zero drop), the
    natural operating-point estimate a production simulator uses.
    """

    def __init__(
        self,
        max_iterations: int = 1000,
        tol: float = 1e-10,
        preset: str = "quality",
        amg_options: AMGOptions | None = None,
        cycle_options: CycleOptions | None = None,
        fault_hook: FaultHook | None = None,
    ) -> None:
        if preset not in PRESETS:
            raise ValueError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
            )
        preset_amg, preset_cycle = PRESETS[preset]
        self.preset = preset
        self.fault_hook = fault_hook
        self.options = SolverOptions(tol=tol, max_iterations=max_iterations)
        self.amg_options = amg_options or preset_amg
        self.cycle_options = cycle_options or preset_cycle

    # -- entry points --------------------------------------------------------

    def simulate_file(self, path) -> SimulationReport:
        """Simulate a SPICE deck stored on disk."""
        return self.simulate_netlist(parse_spice_file(path))

    def simulate_text(self, text: str) -> SimulationReport:
        """Simulate a SPICE deck held in a string."""
        return self.simulate_netlist(parse_spice(text))

    def simulate_netlist(self, netlist: Netlist) -> SimulationReport:
        """Simulate a parsed deck."""
        grid = PowerGrid.from_netlist(netlist)
        return self.simulate_grid(grid, supply_voltage=netlist.supply_voltage())

    def simulate_grid(
        self, grid: PowerGrid, supply_voltage: float | None = None
    ) -> SimulationReport:
        """Simulate an already-built :class:`PowerGrid`.

        When *supply_voltage* is omitted it is taken from the pads (which
        must then agree on a single level).  The validation report and the
        stamped system, with its setup-cache fingerprint, come from the
        grid's memo: a repeat on an unedited grid pays only for the solve.
        """
        if supply_voltage is None:
            supply_voltage = grid.supply_voltage()

        diagnostics = RunDiagnostics()
        with span(VALIDATE):
            diagnostics.validation = list(
                grid.memo("validation", lambda: tuple(validate_grid(grid)))
            )
            # A healthy grid needs no repair, and repairing relabels its
            # components; only a fatal issue (no pads, islands) is repaired.
            if any(issue.fatal for issue in diagnostics.validation):
                grid, diagnostics.repairs = repair_grid(grid, supply_voltage)
        with span(STAMP):
            system = stamped_system(grid)

        flat_guess = np.full(system.size, supply_voltage, dtype=float)
        cache_before = setup_cache_stats()
        cascade = FallbackCascade(
            options=self.options,
            amg_options=self.amg_options,
            cycle_options=self.cycle_options,
            fault_hook=self.fault_hook,
        )
        result, diagnostics.solver = cascade.solve(
            system.matrix, system.rhs, x0=flat_guess, fingerprint=system.fingerprint
        )
        diagnostics.solver_cache = setup_cache_stats().delta(cache_before)

        voltages = system.scatter(result.x)
        ir_drop = supply_voltage - voltages
        return SimulationReport(
            grid=grid,
            system=system,
            voltages=voltages,
            ir_drop=ir_drop,
            solve=result,
            supply_voltage=supply_voltage,
            diagnostics=diagnostics,
        )
