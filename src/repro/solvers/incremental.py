"""Incremental ECO re-solve engine: pad additions without restamping.

Pad placement re-analyses a grid after one edit at a time — one more
power pad (:class:`AddPad`).  Instead of a from-scratch analysis per
candidate, the engine keeps the stamped system, one sparse LU of its
base matrix ``G0`` and the committed solution alive across edits.  A pad
is one rank-1 term against ``G0``: the constraint ``x_j = V`` on
``G0``'s own unknown, its multiplier the current the pad injects.  Each
term keeps the column ``G0⁻¹e_j`` (cached by row for the whole sweep;
a call's uncached columns are solved together as zero-padded
multi-right-hand-side blocks) with the earlier terms projected out,
so the state's solution is
``G0⁻¹b`` corrected one term at a time, and a candidate is the
committed solution plus one multiple of its projected column.  Every
answer is certified by its residual on the pinned system, which a
committed pad patches in place (:func:`repro.mna.stamper.pin_row`) with
an exact undo.  More than ``_MAX_RANK`` committed pads, or a committed
solve over tolerance, fold the terms into a fresh stamp and LU.

The consumer is :mod:`repro.opt.pad_placement`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.diagnostics import RunDiagnostics
from repro.grid.netlist import PowerGrid
from repro.mna.stamper import SystemPatch, build_reduced_system, pin_row, revert_patch
from repro.mna.system import ReducedSystem
from repro.obs import counter_add, deadline_remaining, span
from repro.obs.registry import (
    INCREMENTAL_ABORTED,
    INCREMENTAL_BASE_SOLVES,
    INCREMENTAL_COLUMN_CACHE_HITS,
    INCREMENTAL_COLUMN_SOLVES,
    INCREMENTAL_DELTAS,
    INCREMENTAL_FACTORIZATIONS,
    INCREMENTAL_FACTORIZE,
    INCREMENTAL_PREVIEW_BATCH,
    INCREMENTAL_REBUILD,
    INCREMENTAL_REBUILDS,
    INCREMENTAL_SMW_SOLVES,
    INCREMENTAL_SOLVE,
    INCREMENTAL_SOLVES,
)
from repro.solvers.base import SolverOptions


@dataclass(frozen=True)
class AddPad:
    """Pin a (currently unknown) node to the supply: a new power pad.

    ``node`` is a grid node name or an index in ``[0, num_nodes)``;
    ``voltage=None`` uses the engine's supply voltage.  Numerically this
    is one exact constraint on the reduced system: rank 1.
    """

    node: int | str
    voltage: float | None = None


@dataclass(frozen=True)
class IncrementalOptions:
    """Inert: the columns are exact, so ``column_tol`` has no effect.

    Kept only for ``PadSweep.staged`` in the frozen benchmark suite,
    which passes one as ``incremental=``; the suite re-baseline that
    deletes the staged re-implementations deletes this class too.
    """

    column_tol: float | None = None


@dataclass
class IncrementalSolve:
    """One incremental step's outcome.

    Attributes
    ----------
    drops:
        Per-grid-node IR drop after the update (NaN when aborted).
    converged:
        Whether the returned solution's residual met the tolerance.
    strategy:
        ``direct`` (no pad term: the base solution itself), ``smw``
        (low-rank correction of it; every bordered preview), ``rebuild``
        (restamp + refactorisation first) or ``none`` (aborted).
    residual:
        Relative residual of the returned solution on the pinned
        system (for a bordered preview: the candidate-pinned system's
        residual over the committed right-hand side's norm).
    aborted:
        ``"deadline"`` when the deadline expired before the step's work
        started, else ``None``.
    """

    drops: np.ndarray
    converged: bool = True
    strategy: str = "direct"
    residual: float = float("nan")
    aborted: str | None = None


#: Committed pads the engine carries as low-rank terms; one more folds
#: them into a fresh stamp at the next committed solve (every solve,
#: preview and new column makes one pass per term).
_MAX_RANK = 24

#: Bytes one block of column right-hand sides may hold: the uncached
#: rows of a call are solved ``_COLUMN_BLOCK_BYTES // (8 n)`` at a time
#: (about 80 at 6k unknowns), rounded down to a multiple of
#: ``_COLUMN_WIDTH_STEP`` and never below it (8 at 226k, 14.5 MB).
_COLUMN_BLOCK_BYTES = 4 << 20

#: Every column block is zero-padded to a multiple of this width.  The
#: triangular solves run their right-hand sides through BLAS, whose
#: kernels take unrolled paths by column count.  Against one 64-wide
#: block, every width that is a multiple of 4 gave every column the same
#: bits at any position, while widths 1-3, 6-7 and some others between
#: 9 and 14 changed the last bits of 1-3 of 64 columns (OpenBLAS 0.3.30,
#: Haswell kernels, at 48, 64 and 96 px).  Padding to 8 makes a column's
#: bits independent of which columns shared its solve.
_COLUMN_WIDTH_STEP = 8

#: Bytes one block of :meth:`IncrementalEngine.preview_many` may hold:
#: candidates are bordered ``_PREVIEW_SCRATCH_BYTES // (8 n)`` at a time
#: (cache-sized at 6k unknowns; one by one at 120k, never an n x 32 block).
_PREVIEW_SCRATCH_BYTES = 512 << 10


class _DeadlineExpired(TimeoutError):
    pass


def _check_deadline() -> None:
    remaining = deadline_remaining()
    if remaining is not None and remaining <= 0:
        raise _DeadlineExpired("deadline expired")


@dataclass(eq=False)
class _Term:
    """One committed pad and everything needed to undo it.

    ``column`` is ``G0⁻¹e_row`` with every earlier term projected out,
    ``pivot = column[row]``, and the pin is ``x[row] = target``.  Terms
    compare by identity: a state is named by the term objects it carries.
    """

    index: int  # grid node
    row: int  # reduced-system row
    column: np.ndarray
    pivot: float
    target: float
    patch: SystemPatch


class IncrementalEngine:
    """Keeps system, factorisation and solution alive across added pads.

    The engine owns a private clone of the grid; the caller's object is
    never mutated.  ``apply`` commits a pad (returning a handle),
    ``revert`` undoes the *most recent* one (LIFO), ``solve`` produces
    the IR drop for the current state, and ``preview`` /
    ``preview_many`` evaluate candidate pads against it without
    committing anything.  ``incremental`` is accepted and ignored (see
    :class:`IncrementalOptions`).

    ``solve``, ``preview_many`` and ``apply`` check the ambient
    :func:`~repro.obs.deadline_scope` when they start, and again before
    factorising ``G0``.  Once it has expired, ``solve`` and
    ``preview_many`` return ``aborted="deadline"`` steps and ``apply``
    raises :class:`TimeoutError`, none of them factorising or changing
    the engine.  A factorisation that has started is not interrupted.
    """

    def __init__(
        self,
        grid: PowerGrid,
        supply_voltage: float | None = None,
        options: SolverOptions | None = None,
        incremental: IncrementalOptions | None = None,
    ) -> None:
        if supply_voltage is None:
            supply_voltage = grid.supply_voltage()
        self.supply_voltage = float(supply_voltage)
        self.options = options or SolverOptions()
        self.diagnostics = RunDiagnostics()

        self._grid = grid.clone()
        self._terms: list[_Term] = []
        self._w_cache: dict[int, np.ndarray] = {}  # row -> G0⁻¹e_row
        # (state, x) of the last converged committed solve, x in unknown space
        self._committed: tuple[tuple, np.ndarray] | None = None
        self._generation = 0
        self._steps = 0
        self._setup()

    def _setup(self) -> None:
        """(Re)stamp from the working grid; ``G0`` is factorised on first use."""
        base = build_reduced_system(self._grid)
        self._base_matrix = base.matrix  # unpatched: what the factor sees
        self._system = base.mutable_copy()
        # The RHS with no delta pin stamped into it (pins are constraints
        # on G0's own unknowns), fixed for the lifetime of the setup.
        self._free_rhs = base.rhs
        self._row_of = np.full(base.num_grid_nodes, -1, dtype=np.int64)
        self._row_of[base.unknown_indices] = np.arange(base.size)
        self._lu = None
        self._terms.clear()
        self._w_cache.clear()
        self._y: np.ndarray | None = None  # G0⁻¹ _free_rhs, solved once
        self._generation += 1

    def _state(self) -> tuple:
        """Names the pinned system: the stamp generation and its terms."""
        return self._generation, tuple(self._terms)

    # -- introspection -----------------------------------------------------

    @property
    def grid(self) -> PowerGrid:
        """The engine's working grid (treat as read-only)."""
        return self._grid

    @property
    def system(self) -> ReducedSystem:
        """The current (pinned) reduced system."""
        return self._system

    @property
    def rank(self) -> int:
        """Low-rank terms carried: the pads committed since the last (re)stamp."""
        return len(self._terms)

    # -- base solves (against the unpatched matrix) ------------------------

    def _base_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``G0⁻¹ rhs``; the sparse LU is built once per (re)stamp."""
        if self._lu is None:
            _check_deadline()
            with span(INCREMENTAL_FACTORIZE, size=self._system.size):
                # G0 is SPD and diagonally dominant: pivot on the
                # diagonal, which also shortens every later solve.
                self._lu = splu(
                    sp.csc_matrix(self._base_matrix),
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            counter_add(INCREMENTAL_FACTORIZATIONS)
        counter_add(INCREMENTAL_BASE_SOLVES)
        return self._lu.solve(rhs)

    def _columns(self, rows: Sequence[int]) -> list[np.ndarray]:
        """``G0⁻¹e_row`` per row, cached by row for the lifetime of the stamp.

        The uncached rows (each once, in request order) are solved as
        ``n × width`` blocks of unit right-hand sides, zero-padded to a
        multiple of ``_COLUMN_WIDTH_STEP``, so a column's bits do not
        depend on what shared its block.
        """
        missing = list(dict.fromkeys(row for row in rows if row not in self._w_cache))
        n = self._system.size
        step = _COLUMN_WIDTH_STEP
        width = max(step, _COLUMN_BLOCK_BYTES // (8 * max(n, 1)) // step * step)
        for start in range(0, len(missing), width):
            chunk = missing[start : start + width]
            rhs = np.zeros((n, -(-len(chunk) // step) * step), order="F")
            rhs[chunk, np.arange(len(chunk))] = 1.0
            block = self._base_solve(rhs)
            del rhs  # free it before the copies: at 226k unknowns it is 14.5 MB
            for i, row in enumerate(chunk):
                self._w_cache[row] = block[:, i].copy()
            counter_add(INCREMENTAL_COLUMN_SOLVES, len(chunk))
        if len(rows) > len(missing):
            counter_add(INCREMENTAL_COLUMN_CACHE_HITS, len(rows) - len(missing))
        return [self._w_cache[row] for row in rows]

    def _project(self, block: np.ndarray, targets: bool = False) -> np.ndarray:
        """Carry ``G0⁻¹`` images over to the current state, in place.

        One Sherman–Morrison step per committed pad, in apply order, its
        multiplier read off what the earlier steps left:
        ``block -= column (block[row] - target) / pivot``.  Raw columns
        ``G0⁻¹e_j`` take no targets (a response keeps every pin at zero);
        ``y = G0⁻¹b`` with them becomes the state's solution.  Each step
        is elementwise over *block* (a vector, or one candidate per row),
        so a row's numbers do not depend on what shares its block.
        """
        for term in self._terms:
            gap = block[..., term.row] - (term.target if targets else 0.0)
            block -= (gap / term.pivot)[..., None] * term.column
        return block

    # -- delta application -------------------------------------------------

    def _resolve_node(self, node: int | str) -> int:
        """Grid index of a node name, or of an index in ``[0, num_nodes)``."""
        if isinstance(node, str):
            index = self._grid.index_of(node) if node in self._grid else -1
        else:
            index = operator.index(node)
        if not 0 <= index < self._grid.num_nodes:
            raise ValueError(f"no grid node {node!r}")
        return index

    def _free_row(self, grid_index: int) -> int | None:
        """Reduced row of a node that is electrically unknown, else ``None``."""
        row = int(self._row_of[grid_index])
        pinned = self._grid.pad_voltage[grid_index] == self._grid.pad_voltage[grid_index]
        return None if row < 0 or pinned else row

    def apply(self, delta: AddPad) -> _Term:
        """Commit a pad; returns the handle :meth:`revert` accepts.

        The column is solved and every input checked before the first
        write, so an exception — a bad node, a pad already there, the
        :class:`TimeoutError` of an expired deadline — leaves the engine
        exactly as it was.
        """
        _check_deadline()
        index = self._resolve_node(delta.node)
        row = self._free_row(index)
        if row is None:
            raise ValueError(f"node {self._grid.node_names[index]!r} is already a pad")
        voltage = self.supply_voltage if delta.voltage is None else delta.voltage
        if not np.isfinite(voltage):
            raise ValueError(f"a pad voltage must be finite, got {voltage}")
        column = self._project(self._columns([row])[0].copy())

        patch = pin_row(self._system.matrix, self._system.rhs, row, voltage)
        self._grid.pin_pad(index, voltage)
        term = _Term(index, row, column, float(column[row]), voltage, patch)
        self._terms.append(term)
        counter_add(INCREMENTAL_DELTAS)
        return term

    def revert(self, term: _Term) -> None:
        """Undo the most recently applied pad (LIFO discipline)."""
        if not self._terms or self._terms[-1] is not term:
            raise ValueError("revert only accepts the most recently applied delta")
        self._terms.pop()
        revert_patch(self._system.matrix, self._system.rhs, term.patch)
        self._grid.unpin_pad(term.index)

    # -- previews ----------------------------------------------------------

    def preview(self, delta: AddPad, tol: float | None = None) -> IncrementalSolve:
        """Evaluate a candidate pad without committing it."""
        return self.preview_many([delta], tol)[0]

    def preview_many(
        self, deltas: Sequence[AddPad], tol: float | None = None
    ) -> list[IncrementalSolve]:
        """Evaluate candidate pads, each alone against the current state.

        A candidate on top of a committed :meth:`solve` is one more
        constraint bordered onto that solution, ``x + δ_j z̃_j``, read
        off cached columns without touching :attr:`system`; its relative
        residual on the pinned system is the certificate.  A candidate
        over *tol*, and every candidate when the state moved since the
        last ``solve()``, goes through apply → ``solve(commit=False)`` →
        revert instead.  A candidate's result does not depend on what
        else is in the batch.
        """
        tol = self.options.tol if tol is None else tol
        results: list[IncrementalSolve | None] = [None] * len(deltas)
        polished = 0
        with span(INCREMENTAL_PREVIEW_BATCH, candidates=len(deltas)) as batch:
            try:
                _check_deadline()
                self._border_pads(deltas, tol, results)
                for k, delta in enumerate(deltas):
                    if results[k] is None:
                        polished += 1
                        term = self.apply(delta)
                        try:
                            results[k] = self.solve(tol=tol, commit=False)
                        finally:
                            self.revert(term)
            except _DeadlineExpired:
                results = [step or self._aborted() for step in results]
            batch.attrs["polished"] = polished
        worst = max((step.residual for step in results), default=0.0)
        self.diagnostics.warnings.append(
            f"incremental preview batch: candidates={len(deltas)} "
            f"polished={polished} worst_residual={worst:.3e}"
        )
        return results

    def _border_pads(
        self,
        deltas: Sequence[AddPad],
        tol: float,
        results: list[IncrementalSolve | None],
    ) -> None:
        """Fill in the certified one-multiplier previews; others stay ``None``."""
        if self._committed is None or self._committed[0] != self._state():
            return
        lanes: list[tuple[int, int, float]] = []
        for k, delta in enumerate(deltas):
            row = self._free_row(self._resolve_node(delta.node))
            if row is None:
                continue  # apply() owns the error
            voltage = self.supply_voltage if delta.voltage is None else delta.voltage
            lanes.append((k, row, voltage))
        columns = self._columns([row for _, row, _ in lanes])

        x, system = self._committed[1], self._system
        denom = float(np.linalg.norm(system.rhs)) or 1.0
        pads = list(system.pad_voltages)
        chunk = max(1, _PREVIEW_SCRATCH_BYTES // (8 * max(system.size, 1)))
        for start in range(0, len(lanes), chunk):
            picks, rows, volts = zip(*lanes[start : start + chunk])
            block = self._project(np.array(columns[start : start + chunk]))
            scale = (np.array(volts) - x[list(rows)]) / block[range(len(rows)), rows]
            block *= scale[:, None]
            block += x
            drops = np.empty((len(rows), system.num_grid_nodes))
            drops[:, system.unknown_indices] = block
            drops[:, pads] = list(system.pad_voltages.values())
            np.subtract(self.supply_voltage, drops, out=drops)
            for i, (k, row) in enumerate(zip(picks, rows)):
                # Row j of the pinned system is d(V - x_j) = 0; every other
                # row is the committed matrix's, column j already carrying V.
                r = system.rhs - system.matrix @ block[i]
                r[row] = 0.0
                residual = float(np.sqrt(r @ r)) / denom
                if residual <= tol:
                    results[k] = IncrementalSolve(
                        drops=drops[i], strategy="smw", residual=residual
                    )

    # -- solving -----------------------------------------------------------

    def solve(self, tol: float | None = None, commit: bool = True) -> IncrementalSolve:
        """Solve the current state: the base solution, corrected per term.

        ``commit=False`` (the fallback path of :meth:`preview_many`)
        keeps the committed solution and the per-step diagnostics
        pointed at the last committed state, and never rebuilds.
        """
        tol = self.options.tol if tol is None else tol
        with span(INCREMENTAL_SOLVE, rank=self.rank) as solve_span:
            try:
                _check_deadline()
                step = self._solve(tol, commit)
            except _DeadlineExpired:
                step = self._aborted()
            solve_span.attrs["strategy"] = step.strategy
        counter_add(INCREMENTAL_SOLVES)
        if step.aborted is not None:
            counter_add(INCREMENTAL_ABORTED)
        if commit:
            self._steps += 1
            self.diagnostics.warnings.append(
                f"incremental step {self._steps}: strategy={step.strategy} "
                f"residual={step.residual:.3e} converged={step.converged}"
                + (f" aborted={step.aborted}" if step.aborted else "")
            )
        return step

    def _solve(self, tol: float, commit: bool) -> IncrementalSolve:
        # Previews must never rebuild: a rebuild folds the term stack
        # into the base system, and the caller still holds a term it is
        # about to revert.
        rebuilt = commit and self.rank > _MAX_RANK
        if not rebuilt:
            x, residual = self._corrected()
            # The one recovery path from a committed correction over
            # tolerance: the same fold, whose solution is a direct solve.
            rebuilt = commit and bool(self._terms) and residual > tol
        if rebuilt:
            with span(INCREMENTAL_REBUILD, rank=self.rank):
                self._setup()
            counter_add(INCREMENTAL_REBUILDS)
            x, residual = self._corrected()
        converged = residual <= tol
        if commit:
            self._committed = (self._state(), x) if converged else None
        return IncrementalSolve(
            drops=self.supply_voltage - self._system.scatter(x),
            converged=converged,
            strategy="rebuild" if rebuilt else "smw" if self._terms else "direct",
            residual=residual,
        )

    def _corrected(self) -> tuple[np.ndarray, float]:
        """The state's solution, ``G0⁻¹b`` with every term applied, and its residual."""
        if self._y is None:
            self._y = self._base_solve(self._free_rhs)
        if self._terms:
            counter_add(INCREMENTAL_SMW_SOLVES)
        x = self._project(self._y.copy(), targets=True)
        return x, self._system.relative_residual(x)

    def _aborted(self) -> IncrementalSolve:
        return IncrementalSolve(
            drops=np.full(self._grid.num_nodes, np.nan),
            converged=False,
            strategy="none",
            aborted="deadline",
        )
