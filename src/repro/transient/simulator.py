"""Backward-Euler transient simulator with a constant time step.

Semi-discretised PG dynamics over the reduced unknowns:

    C dv/dt + G v = b(t)

Backward Euler with step *h* gives ``(G + C/h) v_{n+1} = b(t_{n+1}) +
(C/h) v_n``.  ``G + C/h`` is SPD and constant, so one sparse factorisation
(our :class:`DirectSolver`, standing in for KLU/CHOLMOD) serves every
step — the "constant time step" usage the paper's introduction describes.

The RHS ``b(t)`` contains the pad-coupling terms (time-invariant, taken
from the static stamping) plus the load-current waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.grid.netlist import PowerGrid
from repro.mna.stamper import build_reduced_system
from repro.mna.system import ReducedSystem
from repro.solvers.direct import DirectSolver
from repro.spice.ast import Capacitor
from repro.transient.stamper import build_capacitance_matrix
from repro.transient.waveforms import Waveform


@dataclass
class TransientResult:
    """Simulation trace.

    Attributes
    ----------
    times:
        Time points (including t=0, the DC operating point).
    drops:
        ``(T, N)`` per-time, per-grid-node IR drop in volts.
    """

    times: np.ndarray
    drops: np.ndarray

    @property
    def num_steps(self) -> int:
        return len(self.times) - 1

    def worst_drop_over_time(self) -> np.ndarray:
        """``(T,)`` worst drop at each time point."""
        return self.drops.max(axis=1)

    def envelope(self) -> np.ndarray:
        """``(N,)`` per-node worst drop over the whole window (dynamic
        signoff quantity)."""
        return self.drops.max(axis=0)

    def peak(self) -> tuple[float, float, int]:
        """(drop, time, node index) of the global dynamic worst case."""
        flat = int(np.argmax(self.drops))
        step, node = np.unravel_index(flat, self.drops.shape)
        return (
            float(self.drops[step, node]),
            float(self.times[step]),
            int(node),
        )


class TransientSimulator:
    """Constant-step backward-Euler integration of a PG with decaps."""

    def __init__(
        self,
        grid: PowerGrid,
        capacitors: list[Capacitor],
        supply_voltage: float | None = None,
    ) -> None:
        if supply_voltage is None:
            supply_voltage = grid.supply_voltage()
        self.grid = grid
        self.supply_voltage = supply_voltage
        self.system: ReducedSystem = build_reduced_system(grid)
        self.capacitance = build_capacitance_matrix(grid, self.system, capacitors)
        # pad-coupling part of the RHS (loads stripped out)
        self._pad_rhs = (
            self.system.rhs + grid.load_current[self.system.unknown_indices]
        )
        self._row_of = self.system.row_map()

    def _load_rows(self, waveforms: dict[int, Waveform]) -> list[tuple[int, Waveform]]:
        rows = []
        for node_index, waveform in waveforms.items():
            row = self._row_of.get(node_index)
            if row is None:
                raise ValueError(
                    f"node {node_index} is a pad or unknown; cannot load it"
                )
            rows.append((row, waveform))
        return rows

    def dc_operating_point(self, waveforms: dict[int, Waveform], t: float = 0.0):
        """Static solve with the waveform currents frozen at time *t*."""
        rhs = self._pad_rhs.copy()
        for row, waveform in self._load_rows(waveforms):
            rhs[row] -= waveform(t)
        x = DirectSolver().solve(self.system.matrix, rhs).x
        return x

    def run(
        self,
        waveforms: dict[int, Waveform],
        t_end: float,
        dt: float,
    ) -> TransientResult:
        """Integrate from the t=0 operating point to *t_end*.

        Parameters
        ----------
        waveforms:
            ``{grid node index: waveform}``; unlisted loads draw zero.
        t_end, dt:
            Window length and (constant) step size.
        """
        if dt <= 0 or t_end <= 0:
            raise ValueError("t_end and dt must be positive")
        steps = int(round(t_end / dt))
        if steps < 1:
            raise ValueError("window shorter than one step")

        load_rows = self._load_rows(waveforms)
        lhs = sp.csr_matrix(self.system.matrix + self.capacitance / dt)
        solver = DirectSolver()

        x = self.dc_operating_point(waveforms, t=0.0)
        times = [0.0]
        drops = [self.supply_voltage - self.system.scatter(x)]
        c_over_h = self.capacitance / dt
        for n in range(1, steps + 1):
            t = n * dt
            rhs = self._pad_rhs + c_over_h @ x
            for row, waveform in load_rows:
                rhs[row] -= waveform(t)
            x = solver.solve(lhs, rhs).x
            times.append(t)
            drops.append(self.supply_voltage - self.system.scatter(x))
        return TransientResult(
            times=np.array(times), drops=np.stack(drops)
        )
