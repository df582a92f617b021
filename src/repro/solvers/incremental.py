"""Incremental ECO re-solve engine: pad additions without restamping.

Pad placement re-analyses a grid after one small edit at a time — one
more power pad.  A from-scratch analysis would throw away the stamped
system, the AMG hierarchy and the previous solution on every
candidate.  This module keeps all three alive across edits:

- :class:`AddPad` describes the edit;
- every pad is one rank-1 term against the *unpatched* base matrix
  ``G0``: the constraint ``x_j = V`` on ``G0``'s own unknown, its
  multiplier the current the pad injects.  Each term keeps ``G0⁻¹e_j``
  with the earlier terms projected out, so the state's solution is the
  base solution ``G0⁻¹b`` corrected one term at a time, the raw columns
  are cached across the whole sweep, and a short warm-started PCG
  polish on the pinned matrix restores full solver tolerance wherever
  the cached columns were solved loosely;
- committing a pad pins its row of the reduced CSR system in place
  (:func:`repro.mna.stamper.pin_row`) with an undo record, so the most
  recent pad can be reverted exactly;
- a round of candidate pads is one batch
  (:meth:`IncrementalEngine.preview_many`): each candidate is the
  committed solution plus one multiple of its projected column, with
  its residual on the pinned system as certificate — nothing is
  stamped, solved iteratively or reverted;
- when the number of committed pads crosses ``max_rank`` the engine
  falls back to a full restamp + hierarchy rebuild, keyed into the
  process setup cache by a *delta-chain fingerprint* so revisited
  states rehit the cache without rehashing the matrix.

The consumer is :mod:`repro.opt.pad_placement`: a greedy pad sweep
evaluates hundreds of nearly identical systems, and with this engine
each candidate costs one cached column solve plus elementwise algebra
instead of a from-scratch simulation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.diagnostics import RunDiagnostics
from repro.grid.netlist import PowerGrid
from repro.mna.stamper import SystemPatch, build_reduced_system, pin_row, revert_patch
from repro.mna.system import ReducedSystem
from repro.obs import counter_add, deadline_active, span
from repro.obs.registry import (
    INCREMENTAL_ABORTED,
    INCREMENTAL_BASE_SOLVES,
    INCREMENTAL_COLUMN_CACHE_HITS,
    INCREMENTAL_COLUMN_SOLVES,
    INCREMENTAL_DELTAS,
    INCREMENTAL_DIRECT_SOLVES,
    INCREMENTAL_FACTORIZATIONS,
    INCREMENTAL_FACTORIZE,
    INCREMENTAL_FALLBACKS,
    INCREMENTAL_FULL_SOLVES,
    INCREMENTAL_POLISH_ITERATIONS,
    INCREMENTAL_PREVIEW_BATCH,
    INCREMENTAL_REBUILD,
    INCREMENTAL_REBUILDS,
    INCREMENTAL_SETUP_BUILDS,
    INCREMENTAL_SETUP_CACHE_HITS,
    INCREMENTAL_SMW_SOLVES,
    INCREMENTAL_SOLVE,
    INCREMENTAL_SOLVES,
    INCREMENTAL_WARM_SOLVES,
    PCG_ITERATIONS,
)
from repro.solvers.amg import AMGOptions
from repro.solvers.base import SolveResult, SolverOptions
from repro.solvers.cache import (
    chained_fingerprint,
    global_setup_cache,
    matrix_fingerprint,
)
from repro.solvers.cg import _pcg
from repro.solvers.cycles import CycleOptions, CyclePreconditioner
from repro.solvers.guard import FaultHook, IterationGuard


@dataclass(frozen=True)
class GridDelta:
    """Base class for grid edits."""

    def token(self) -> str:
        """Stable identity string for delta-chain fingerprints."""
        raise NotImplementedError


@dataclass(frozen=True)
class AddPad(GridDelta):
    """Pin a (currently unknown) node to the supply: a new power pad.

    ``node`` is a grid node name or an index in ``[0, num_nodes)``;
    ``voltage=None`` uses the engine's supply voltage.  Numerically this
    is one exact constraint on the reduced system: rank 1.
    """

    node: int | str
    voltage: float | None = None

    def token(self) -> str:
        return f"pad+:{self.node}:{self.voltage!r}"


@dataclass(frozen=True)
class IncrementalOptions:
    """Tuning knobs for the incremental engine.

    Attributes
    ----------
    max_rank:
        Committed pads the engine carries as low-rank terms; one more
        triggers a full restamp + hierarchy rebuild at the next solve
        (every solve, preview and new column makes one pass per term).
    polish_max_iterations:
        Iteration cap of the warm-started PCG polish that runs on the
        pinned matrix after the low-rank correction.  A polish that fails to
        converge within the cap falls back to a rebuild.
    column_tol:
        Relative tolerance of the cached factor-column solves
        (``G0⁻¹ e_j``) on the iterative tier.  ``None`` (default) uses
        the engine's solver tolerance — corrections are then accurate to
        full precision before any polish.  ECO sweeps that preview many
        candidates and only need to *rank* them can loosen this:
        column accuracy bounds preview accuracy, while committed solves
        are always polished on the pinned matrix to the requested
        tolerance regardless.  Ignored on the direct tier (columns are
        exact there).
    direct_max_size:
        Base-solve tier threshold.  The base matrix ``G0`` is fixed for
        the lifetime of a setup, so systems up to this many unknowns are
        factorised once (sparse LU) and every factor column and
        base-RHS solve becomes an exact pair of triangular solves —
        the decisive ECO advantage, since a from-scratch simulator
        cannot amortise anything across candidates.  Larger systems
        (LU fill-in memory) fall back to AMG-preconditioned CG against
        the cached hierarchy.  Set to ``0`` to force the iterative tier.
    """

    max_rank: int = 24
    polish_max_iterations: int = 50
    column_tol: float | None = None
    direct_max_size: int = 120_000

    def __post_init__(self) -> None:
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")


@dataclass
class IncrementalSolve:
    """One incremental step's outcome.

    Attributes
    ----------
    drops:
        Per-grid-node IR drop after the update.
    iterations:
        Inner PCG iterations this step needed (base solves + polish).
    converged:
        Whether the final iterate met the solver tolerance.
    strategy:
        How the step was solved: ``cold`` (first solve), ``warm``
        (warm-started re-solve, no pad terms), ``smw``
        (low-rank correction of the base solution, polished when over
        tolerance), ``rebuild`` (full restamp; includes threshold
        crossings and polish fallbacks).
    polish_iterations:
        PCG iterations spent polishing a low-rank correction.
    residual:
        Relative residual of the returned solution on the pinned
        system (for a bordered preview: the candidate-pinned system's
        residual over the committed right-hand side's norm).
    aborted:
        Guard trip reason (e.g. ``"deadline"``) or ``None``.
    """

    drops: np.ndarray
    iterations: int
    converged: bool = True
    strategy: str = "cold"
    polish_iterations: int = 0
    residual: float = float("nan")
    aborted: str | None = None


#: Bytes one block of :meth:`IncrementalEngine.preview_many` may hold:
#: candidates are bordered ``_PREVIEW_SCRATCH_BYTES // (8 n)`` at a time
#: (cache-sized at 6k unknowns; one by one at 120k, never an n x 32 block).
_PREVIEW_SCRATCH_BYTES = 512 << 10


@dataclass
class _Term:
    """One committed pad and everything needed to undo it.

    ``column`` is ``G0⁻¹e_row`` with every earlier term already projected
    out, i.e. the response of the state the pad was applied to;
    ``pivot = column[row]`` and ``target`` is the pad voltage, so the
    pin is the constraint ``x[row] = target``.
    """

    token: str
    prev_fingerprint: str
    index: int  # grid node
    row: int  # reduced-system row
    column: np.ndarray
    pivot: float
    target: float
    patch: SystemPatch


class IncrementalEngine:
    """Keeps system, hierarchy and solution alive across added pads.

    The engine owns a private clone of the grid; the caller's object is
    never mutated.  ``apply`` commits a pad (returning a handle),
    ``revert`` undoes the *most recent* one (LIFO), ``solve`` produces
    the IR drop for the current state, and ``preview`` /
    ``preview_many`` evaluate candidate pads against it without
    committing anything.
    """

    def __init__(
        self,
        grid: PowerGrid,
        supply_voltage: float | None = None,
        options: SolverOptions | None = None,
        incremental: IncrementalOptions | None = None,
        amg_options: AMGOptions | None = None,
        cycle_options: CycleOptions | None = None,
        fault_hook: FaultHook | None = None,
        validate: bool = True,
    ) -> None:
        if supply_voltage is None:
            supply_voltage = grid.supply_voltage()
        self.supply_voltage = float(supply_voltage)
        self.options = options or SolverOptions()
        self.incremental = incremental or IncrementalOptions()
        self.amg_options = amg_options or AMGOptions()
        self.cycle_options = cycle_options or CycleOptions()
        self.fault_hook = fault_hook
        self.diagnostics = RunDiagnostics()

        self._grid = grid.clone()
        self._terms: list[_Term] = []
        self._w_cache: dict[int, np.ndarray] = {}  # row -> G0⁻¹e_row
        self._x: np.ndarray | None = None  # last committed unknown-space solution
        self._x_fingerprint: str | None = None  # state _x converged on
        self._steps = 0
        self._setup(validate=validate, fingerprint=None)

    # -- setup / rebuild ---------------------------------------------------

    def _setup(self, validate: bool, fingerprint: str | None) -> None:
        """(Re)stamp from the working grid; base solvers are built on demand."""
        base = build_reduced_system(self._grid, validate=validate)
        self._base_matrix = base.matrix  # unpatched: what the AMG setup sees
        self._system = base.mutable_copy()
        # The RHS with no delta pin stamped into it (pins are constraints
        # on G0's own unknowns), fixed for the lifetime of the setup.
        self._free_rhs = base.rhs
        self._row_of = np.full(base.num_grid_nodes, -1, dtype=np.int64)
        self._row_of[base.unknown_indices] = np.arange(base.size)
        if fingerprint is None:
            fingerprint = matrix_fingerprint(base.matrix)
        self._fingerprint = fingerprint
        self._base_fingerprint = fingerprint  # later deltas chain _fingerprint on
        self._precond: CyclePreconditioner | None = None
        self._factor: Callable[[np.ndarray], np.ndarray] | None = None
        self._factor_skipped = False
        self._terms.clear()
        self._w_cache.clear()
        self._y: np.ndarray | None = None  # G0⁻¹ _free_rhs, solved once

    def _rebuild(self) -> None:
        with span(INCREMENTAL_REBUILD, rank=self.rank):
            previous = None if self._x is None else self._system.scatter(self._x)
            self._setup(validate=True, fingerprint=self._fingerprint)
            if previous is not None:
                # Re-gather the previous full-grid solution onto the new
                # unknown set: still an excellent warm start.
                self._x = self._system.gather(previous)
        counter_add(INCREMENTAL_REBUILDS)

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

    @property
    def fingerprint(self) -> str:
        """Delta-chain fingerprint of the current structural state."""
        return self._fingerprint

    # -- base solves (against the unpatched matrix + cached hierarchy) ----

    def _preconditioner(self) -> CyclePreconditioner:
        """K-cycle over ``G0``'s hierarchy, obtained at the first PCG use.

        While ``_base_factor`` answers every solve (small system, no
        deadline) the hierarchy is never applied, so it is never built.
        """
        if self._precond is None:
            hierarchy, hit = global_setup_cache().get_or_build(
                self._base_matrix,
                self.amg_options,
                fingerprint=self._base_fingerprint,
            )
            counter_add(
                INCREMENTAL_SETUP_CACHE_HITS if hit else INCREMENTAL_SETUP_BUILDS
            )
            self._precond = CyclePreconditioner(hierarchy, self.cycle_options)
        return self._precond

    def _base_factor(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """Sparse LU of ``G0``, built lazily once per (re)stamp.

        Skipped for systems above ``direct_max_size`` and while a
        deadline scope is active (a factorisation is not interruptible;
        the guarded PCG path is).
        """
        if deadline_active():
            return None
        if self._factor is None and not self._factor_skipped:
            if self._system.size > self.incremental.direct_max_size:
                self._factor_skipped = True
            else:
                import scipy.sparse as sp
                from scipy.sparse.linalg import splu

                with span(INCREMENTAL_FACTORIZE, size=self._system.size):
                    # G0 is SPD and diagonally dominant: pivot on the
                    # diagonal, which also shortens every later solve.
                    lu = splu(
                        sp.csc_matrix(self._base_matrix),
                        diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True},
                    )
                self._factor = lu.solve
                counter_add(INCREMENTAL_FACTORIZATIONS)
        return self._factor

    def _base_solve(
        self,
        rhs: np.ndarray,
        x0: np.ndarray | None,
        options: SolverOptions,
    ) -> SolveResult:
        counter_add(INCREMENTAL_BASE_SOLVES)
        factor = self._base_factor()
        if factor is not None:
            counter_add(INCREMENTAL_DIRECT_SOLVES)
            return SolveResult(x=factor(rhs), iterations=0, converged=True)
        return self._guarded_pcg(self._base_matrix, rhs, x0, options)

    def _guarded_pcg(self, matrix, rhs, x0, options: SolverOptions) -> SolveResult:
        """K-cycle PCG on *matrix* (``G0`` or the pinned system), deadline-guarded."""
        guard = None
        if deadline_active():
            guard = IterationGuard("incremental", self.fault_hook)
        result = _pcg(
            matrix,
            rhs,
            x0,
            preconditioner=self._preconditioner().apply,
            options=options,
            flexible=True,
            guard=guard,
        )
        counter_add(PCG_ITERATIONS, result.iterations)
        return result

    def _column_solve(self, row: int) -> tuple[np.ndarray, bool]:
        """``(G0⁻¹e_row, converged)``, one right-hand side at a time.

        Only a converged column is cached: one cut short by a deadline
        would otherwise be paid for, in polish iterations, by every
        later use of the row.
        """
        cached = self._w_cache.get(row)
        if cached is not None:
            counter_add(INCREMENTAL_COLUMN_CACHE_HITS)
            return cached, True
        u = np.zeros(self._system.size, dtype=float)
        u[row] = 1.0
        tol = self.incremental.column_tol
        column_options = replace(
            self.options,
            record_history=False,
            tol=self.options.tol if tol is None else tol,
        )
        result = self._base_solve(u, None, column_options)
        counter_add(INCREMENTAL_COLUMN_SOLVES)
        if result.converged:
            self._w_cache[row] = result.x
        return result.x, result.converged

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

    def apply(self, delta: GridDelta) -> _Term:
        """Commit a pad; returns the handle :meth:`revert` accepts.

        The column is solved and every input checked before the first
        write, so an exception leaves the engine exactly as it was.
        """
        if not isinstance(delta, AddPad):
            raise TypeError(f"unsupported delta {type(delta).__name__}")
        index = self._resolve_node(delta.node)
        row = self._free_row(index)
        if row is None:
            raise ValueError(
                f"node {self._grid.node_names[index]!r} is already a pad"
            )
        voltage = self.supply_voltage if delta.voltage is None else delta.voltage
        if not np.isfinite(voltage):
            raise ValueError(f"a pad voltage must be finite, got {voltage}")
        raw, _ = self._column_solve(row)
        column = self._project(raw.copy())

        patch = pin_row(self._system.matrix, self._system.rhs, row, voltage)
        self._grid.pin_pad(index, voltage)
        term = _Term(
            token=delta.token(),
            prev_fingerprint=self._fingerprint,
            index=index,
            row=row,
            column=column,
            pivot=float(column[row]),
            target=voltage,
            patch=patch,
        )
        self._terms.append(term)
        self._fingerprint = chained_fingerprint(term.prev_fingerprint, term.token)
        counter_add(INCREMENTAL_DELTAS)
        return term

    def revert(self, term: _Term) -> None:
        """Undo the most recently applied pad (LIFO discipline)."""
        if not self._terms or self._terms[-1] is not term:
            raise ValueError(
                "revert only accepts the most recently applied delta"
            )
        self._terms.pop()
        revert_patch(self._system.matrix, self._system.rhs, term.patch)
        self._grid.unpin_pad(term.index)
        self._fingerprint = term.prev_fingerprint

    # -- previews ----------------------------------------------------------

    def preview(self, delta: GridDelta, tol: float | None = None) -> IncrementalSolve:
        """Evaluate a candidate pad without committing it."""
        return self.preview_many([delta], tol)[0]

    def preview_many(
        self, deltas: Sequence[GridDelta], tol: float | None = None
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
        with span(
            INCREMENTAL_PREVIEW_BATCH, candidates=len(deltas)
        ) as batch:
            results = self._border_pads(deltas, self.options.tol if tol is None else tol)
            polished = 0
            for k, delta in enumerate(deltas):
                if results[k] is None:
                    polished += 1
                    term = self.apply(delta)
                    try:
                        results[k] = self.solve(tol=tol, commit=False)
                    finally:
                        self.revert(term)
            batch.attrs["polished"] = polished
        worst = max((step.residual for step in results), default=0.0)
        self.diagnostics.warnings.append(
            f"incremental preview batch: candidates={len(deltas)} "
            f"polished={polished} worst_residual={worst:.3e}"
        )
        return results

    def _border_pads(
        self, deltas: Sequence[GridDelta], tol: float
    ) -> list[IncrementalSolve | None]:
        """The certified one-multiplier previews; ``None`` where there is none."""
        results: list[IncrementalSolve | None] = [None] * len(deltas)
        if self._x_fingerprint != self._fingerprint:
            return results
        lanes: list[tuple[int, int, float, np.ndarray]] = []
        for k, delta in enumerate(deltas):
            row = (
                self._free_row(self._resolve_node(delta.node))
                if isinstance(delta, AddPad) else None
            )
            if row is None:
                continue  # apply() owns the error
            raw, converged = self._column_solve(row)
            if converged:
                voltage = self.supply_voltage if delta.voltage is None else delta.voltage
                lanes.append((k, row, voltage, raw))

        x, system = self._x, self._system
        denom = float(np.linalg.norm(system.rhs)) or 1.0
        pads = list(system.pad_voltages)
        chunk = max(1, _PREVIEW_SCRATCH_BYTES // (8 * max(system.size, 1)))
        for start in range(0, len(lanes), chunk):
            picks, rows, volts, columns = zip(*lanes[start : start + chunk])
            block = self._project(np.array(columns))
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
                        drops=drops[i], iterations=0, strategy="smw",
                        residual=residual,
                    )
        return results

    # -- solving -----------------------------------------------------------

    def solve(
        self, tol: float | None = None, commit: bool = True
    ) -> IncrementalSolve:
        """Solve the current state; warm-starts and corrects as possible.

        ``commit=False`` (the polish path of :meth:`preview_many`) keeps
        the cached solution trajectory and the per-step diagnostics
        pointed at the last committed state.
        """
        options = self.options if tol is None else replace(self.options, tol=tol)
        with span(INCREMENTAL_SOLVE, rank=self.rank) as solve_span:
            # Previews must never rebuild: a rebuild folds the term
            # stack into the base system, and the caller still holds a
            # term it is about to revert.
            rebuilt = commit and self.rank > self.incremental.max_rank
            if rebuilt:
                self._rebuild()
            if not self._terms:
                step = self._solve_direct(options, commit)
                if rebuilt:
                    step.strategy = "rebuild"
            else:
                step = self._solve_smw(options, commit)
            solve_span.attrs["strategy"] = step.strategy
            solve_span.attrs["iterations"] = step.iterations
        counter_add(INCREMENTAL_SOLVES)
        counter_add(INCREMENTAL_POLISH_ITERATIONS, step.polish_iterations)
        if step.aborted is not None:
            counter_add(INCREMENTAL_ABORTED)
        if commit:
            self._steps += 1
            self.diagnostics.warnings.append(
                f"incremental step {self._steps}: strategy={step.strategy} "
                f"iterations={step.iterations} polish={step.polish_iterations} "
                f"converged={step.converged}"
                + (f" aborted={step.aborted}" if step.aborted else "")
            )
        return step

    def _finish(
        self,
        x: np.ndarray,
        iterations: int,
        strategy: str,
        commit: bool,
        polish_iterations: int = 0,
        aborted: str | None = None,
        converged: bool = True,
        residual: float | None = None,
    ) -> IncrementalSolve:
        voltages = self._system.scatter(x)
        if commit:
            self._x = x
            self._x_fingerprint = self._fingerprint if converged else None
        if residual is None:
            residual = self._system.relative_residual(x)
        return IncrementalSolve(
            drops=self.supply_voltage - voltages,
            iterations=iterations,
            converged=converged,
            strategy=strategy,
            polish_iterations=polish_iterations,
            residual=residual,
            aborted=aborted,
        )

    def _solve_direct(self, options: SolverOptions, commit: bool) -> IncrementalSolve:
        """No active terms: matrix and RHS ARE ``G0`` and the pin-free ``b``."""
        if self._x is not None and self._x.shape == (self._system.size,):
            x0 = self._x
            strategy = "warm"
        else:
            x0 = np.full(self._system.size, self.supply_voltage)
            strategy = "cold" if self._steps == 0 else "rebuild"
        result = self._base_solve(self._free_rhs, x0, options)
        counter_add(
            INCREMENTAL_WARM_SOLVES if strategy == "warm" else INCREMENTAL_FULL_SOLVES
        )
        return self._finish(
            result.x,
            result.iterations,
            strategy,
            commit,
            aborted=result.aborted,
            converged=result.converged,
        )

    def _solve_smw(self, options: SolverOptions, commit: bool) -> IncrementalSolve:
        """Term-by-term correction of the base solution, then polish."""
        iterations = 0
        if self._y is None:
            result = self._base_solve(self._free_rhs, None, options)
            iterations += result.iterations
            if result.aborted is not None:
                return self._finish(
                    result.x, iterations, "smw", commit,
                    aborted=result.aborted, converged=False,
                )
            self._y = result.x
        x = self._project(self._y.copy(), targets=True)
        counter_add(INCREMENTAL_SMW_SOLVES)

        # Polish on the *pinned* matrix with the stale base
        # preconditioner: restores full tolerance whatever the accuracy
        # of the cached columns.
        residual: float | None = self._system.relative_residual(x)
        polish_iterations = 0
        aborted: str | None = None
        converged = residual <= options.tol
        if not converged:
            polish_options = replace(
                options,
                max_iterations=self.incremental.polish_max_iterations,
                record_history=False,
            )
            result = self._guarded_pcg(
                self._system.matrix, self._system.rhs, x, polish_options
            )
            polish_iterations = result.iterations
            iterations += result.iterations
            x, residual = result.x, None
            aborted = result.aborted
            converged = result.converged
            if not converged and aborted is None and commit:
                # Stale preconditioner not pulling its weight: rebuild.
                counter_add(INCREMENTAL_FALLBACKS)
                self._rebuild()
                return self._solve_direct(options, commit)
        return self._finish(
            x,
            iterations,
            "smw",
            commit,
            polish_iterations=polish_iterations,
            aborted=aborted,
            converged=converged,
            residual=residual,
        )
