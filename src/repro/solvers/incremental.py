"""Incremental ECO re-solve engine: structural deltas without restamping.

ECO loops re-analyse a grid after small edits — loads revised, a wire
resized, a pad added or removed.  The original analyzer could only
warm-start when the conductance matrix was *unchanged*; any structural
edit threw away the stamped system, the AMG hierarchy and the previous
solution.  This module keeps all three alive across edits:

- :class:`GridDelta` subclasses describe the edits
  (:class:`AddPad` / :class:`RemovePad` / :class:`ScaleWire` /
  :class:`SetWireResistance` / :class:`ReviseLoads`);
- delta stamping (:mod:`repro.mna.stamper`) patches the reduced CSR
  system in place, with undo records so candidate edits can be
  speculatively applied and reverted;
- every low-rank edit is one rank-1 term against the *unpatched* base
  matrix ``G0``: a wire resize is ``G0 + Δg u uᵀ``, and a pad pin is the
  constraint ``x_j = V`` on ``G0``'s own unknown — its multiplier the
  current the pad injects.  Each term keeps ``G0⁻¹u`` with the earlier
  terms projected out, so the state's solution is the base solution
  ``G0⁻¹b`` corrected one term at a time, the raw columns are cached
  across the whole sweep, and a short warm-started PCG polish on the
  patched matrix restores full solver tolerance wherever the cached
  columns were solved loosely;
- a round of candidate pads is one batch
  (:meth:`IncrementalEngine.preview_many`): each candidate is the
  committed solution plus one multiple of its projected column, with
  its residual on the pinned system as certificate — nothing is
  stamped, solved iteratively or reverted;
- when the accumulated delta rank or the stencil churn crosses a
  threshold (or a dimension-changing edit arrives), the engine falls
  back to a full restamp + hierarchy rebuild, keyed into the process
  setup cache by a *delta-chain fingerprint* so revisited structural
  states rehit the cache without rehashing the matrix.

The classic consumer is :mod:`repro.opt.pad_placement`: a greedy pad
sweep evaluates hundreds of nearly identical systems, and with this
engine each candidate costs one cached column solve plus elementwise
algebra instead of a from-scratch simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.diagnostics import RunDiagnostics
from repro.grid.netlist import PowerGrid
from repro.mna.stamper import (
    SystemPatch,
    build_reduced_system,
    patch_conductance,
    patch_rhs,
    pin_row,
    revert_patch,
)
from repro.mna.system import ReducedSystem
from repro.obs import counter_add, deadline_active, span
from repro.solvers.amg import AMGOptions
from repro.solvers.base import SolveResult, SolverOptions
from repro.solvers.cache import (
    chained_fingerprint,
    global_setup_cache,
    matrix_fingerprint,
)
from repro.solvers.cg import _pcg
from repro.solvers.cycles import CycleOptions, CyclePreconditioner
from repro.solvers.guard import GuardrailOptions, IterationGuard


# ---------------------------------------------------------------------------
# Deltas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridDelta:
    """Base class for structural/electrical grid edits."""

    def token(self) -> str:
        """Stable identity string for delta-chain fingerprints."""
        raise NotImplementedError


@dataclass(frozen=True)
class AddPad(GridDelta):
    """Pin a (currently unknown) node to the supply: a new power pad.

    ``voltage=None`` uses the engine's supply voltage.  Numerically this
    is one exact constraint on the reduced system: rank 1.
    """

    node: int | str
    voltage: float | None = None

    def token(self) -> str:
        return f"pad+:{self.node}:{self.voltage!r}"


@dataclass(frozen=True)
class RemovePad(GridDelta):
    """Un-pin a pad.

    Removing a pad that an earlier :class:`AddPad` delta created is the
    exact low-rank reversal when it is the most recent edit; any other
    removal changes the unknown set and forces a structural rebuild at
    the next solve.
    """

    node: int | str

    def token(self) -> str:
        return f"pad-:{self.node}"


@dataclass(frozen=True)
class ScaleWire(GridDelta):
    """Multiply one wire's resistance by ``factor`` (ECO resize)."""

    wire: int
    factor: float

    def token(self) -> str:
        return f"wire*:{self.wire}:{self.factor!r}"

    def __post_init__(self) -> None:
        if self.factor <= 0 or not np.isfinite(self.factor):
            raise ValueError(f"factor must be positive, got {self.factor}")


@dataclass(frozen=True)
class SetWireResistance(GridDelta):
    """Set one wire's resistance to an absolute value."""

    wire: int
    resistance: float

    def token(self) -> str:
        return f"wire=:{self.wire}:{self.resistance!r}"

    def __post_init__(self) -> None:
        if self.resistance <= 0 or not np.isfinite(self.resistance):
            raise ValueError(
                f"resistance must be positive, got {self.resistance}"
            )


@dataclass(frozen=True)
class ReviseLoads(GridDelta):
    """Set per-node load currents (RHS-only edit).

    ``currents`` maps grid node (index or name) to the node's *new*
    absolute load; with ``additive=True`` values are added to the
    current loads instead.
    """

    currents: tuple[tuple[int | str, float], ...]
    additive: bool = False

    @classmethod
    def of(
        cls, currents: Mapping[int | str, float], additive: bool = False
    ) -> "ReviseLoads":
        return cls(currents=tuple(sorted(currents.items(), key=repr)),
                   additive=additive)

    def token(self) -> str:
        return f"loads:{self.additive}:{self.currents!r}"


@dataclass(frozen=True)
class IncrementalOptions:
    """Tuning knobs for the incremental engine.

    Attributes
    ----------
    max_rank:
        Accumulated low-rank budget — one per pad pin, one per wire
        resize; exceeding it triggers a full restamp + hierarchy rebuild
        at the next solve (every solve, preview and new column makes one
        pass per active term).
    max_stencil_churn:
        Fraction of reduced-system rows the accumulated structural
        patches may touch before the stale base preconditioner is
        presumed ineffective and a rebuild is forced.
    polish_max_iterations:
        Iteration cap of the warm-started PCG polish that runs on the
        patched matrix after the low-rank correction.  A polish that fails to
        converge within the cap falls back to a rebuild.
    column_tol:
        Relative tolerance of the cached factor-column solves
        (``G0⁻¹ e_j``) on the iterative tier.  ``None`` (default) uses
        the engine's solver tolerance — corrections are then accurate to
        full precision before any polish.  ECO sweeps that preview many
        candidates and only need to *rank* them can loosen this:
        column accuracy bounds preview accuracy, while committed solves
        are always polished on the patched matrix to the requested
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
    max_stencil_churn: float = 0.25
    polish_max_iterations: int = 50
    column_tol: float | None = None
    direct_max_size: int = 120_000

    def __post_init__(self) -> None:
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if not 0.0 < self.max_stencil_churn <= 1.0:
            raise ValueError("max_stencil_churn must be in (0, 1]")


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
        (warm-started re-solve, no structural terms), ``smw``
        (low-rank correction of the base solution, polished when over
        tolerance), ``rebuild`` (full restamp; includes threshold
        crossings and polish fallbacks).
    polish_iterations:
        PCG iterations spent polishing a low-rank correction.
    residual:
        Relative residual of the returned solution on the patched
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

#: A low-rank factor ``u = e[plus] - e[minus]`` (``minus`` None: ``e[plus]``).
_Ends = tuple[int, int | None]


def _across(ends: _Ends, block: np.ndarray) -> np.ndarray:
    """``u^T`` applied along the last axis of a vector or a row block."""
    plus, minus = ends
    picked = block[..., plus]
    return picked if minus is None else picked - block[..., minus]


@dataclass
class _Term:
    """One committed delta and everything needed to undo it.

    A rank-1 term holds ``column`` — ``G0⁻¹u`` with every earlier term
    already projected out, i.e. the response of the state it was applied
    to — the scalar ``pivot = 1/c + uᵀ column`` (``1/c`` is ``1/Δg`` for
    a wire and 0 for a pad: a pin is the constraint ``uᵀx = target``),
    and ``target`` (the pad voltage; 0 for a wire).
    """

    token: str
    prev_fingerprint: str
    ends: _Ends | None = None
    column: np.ndarray | None = None
    pivot: float = 0.0
    target: float = 0.0
    patch: SystemPatch = field(default_factory=SystemPatch.empty)
    free_patch: SystemPatch = field(default_factory=SystemPatch.empty)
    y_delta: np.ndarray | None = None
    grid_undo: Callable[[], None] | None = None
    pinned_row: int | None = None
    prev_structural_dirty: bool | None = None  # set by a structural delta

    @property
    def rank(self) -> int:
        return 0 if self.column is None else 1


class IncrementalEngine:
    """Keeps system, hierarchy and solution alive across grid deltas.

    The engine owns a private clone of the grid; the caller's object is
    never mutated.  ``apply`` commits a delta (returning a handle),
    ``revert`` undoes the *most recent* one (LIFO — candidate
    evaluation), ``solve`` produces the IR drop for the current state,
    and ``preview`` / ``preview_many`` evaluate candidate edits against
    it without committing anything.
    """

    def __init__(
        self,
        grid: PowerGrid,
        supply_voltage: float | None = None,
        options: SolverOptions | None = None,
        incremental: IncrementalOptions | None = None,
        amg_options: AMGOptions | None = None,
        cycle_options: CycleOptions | None = None,
        guard_options: GuardrailOptions | None = None,
        validate: bool = True,
    ) -> None:
        if supply_voltage is None:
            supply_voltage = grid.supply_voltage()
        self.supply_voltage = float(supply_voltage)
        self.options = options or SolverOptions()
        self.incremental = incremental or IncrementalOptions()
        self.amg_options = amg_options or AMGOptions()
        self.cycle_options = cycle_options or CycleOptions()
        self.guard_options = guard_options or GuardrailOptions()
        self.diagnostics = RunDiagnostics()

        self._grid = grid.clone()
        self._terms: list[_Term] = []
        self._w_cache: dict[_Ends, np.ndarray] = {}
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
        # on G0's own unknowns): loads and pad-side wire couplings only.
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
        self._y: np.ndarray | None = None  # G0⁻¹ _free_rhs
        self._y_guess: np.ndarray | None = None  # last valid _y: warm start
        self._structural_dirty = False

    def _rebuild(self) -> None:
        with span("incremental.rebuild", rank=self.rank):
            previous = None if self._x is None else self._system.scatter(self._x)
            self._setup(validate=True, fingerprint=self._fingerprint)
            if previous is not None:
                # Re-gather the previous full-grid solution onto the new
                # unknown set: still an excellent warm start.
                self._x = self._system.gather(previous)
        counter_add("incremental.rebuilds")

    # -- introspection -----------------------------------------------------

    @property
    def grid(self) -> PowerGrid:
        """The engine's working grid (treat as read-only)."""
        return self._grid

    @property
    def system(self) -> ReducedSystem:
        """The current (patched) reduced system."""
        return self._system

    @property
    def rank(self) -> int:
        """Accumulated low-rank budget consumed by active deltas."""
        return sum(t.rank for t in self._terms)

    @property
    def fingerprint(self) -> str:
        """Delta-chain fingerprint of the current structural state."""
        return self._fingerprint

    @property
    def current_loads(self) -> dict[int, float]:
        """Per-node load currents of the current state (nonzero only)."""
        loads = self._grid.load_current
        nonzero = np.flatnonzero(loads)
        return dict(zip(nonzero.tolist(), loads[nonzero].tolist()))

    def _stencil_churn(self) -> float:
        touched = {row for term in self._terms for row in term.ends or ()}
        return len(touched - {None}) / max(self._system.size, 1)

    def _needs_rebuild(self) -> bool:
        return (
            self._structural_dirty
            or self.rank > self.incremental.max_rank
            or self._stencil_churn() > self.incremental.max_stencil_churn
        )

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
            counter_add("incremental.setup_cache_hits" if hit else
                        "incremental.setup_builds")
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

                with span("incremental.factorize", size=self._system.size):
                    # G0 is SPD and diagonally dominant: pivot on the
                    # diagonal, which also shortens every later solve.
                    lu = splu(
                        sp.csc_matrix(self._base_matrix),
                        diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True},
                    )
                self._factor = lu.solve
                counter_add("incremental.factorizations")
        return self._factor

    def _base_solve(
        self,
        rhs: np.ndarray,
        x0: np.ndarray | None,
        options: SolverOptions,
    ) -> SolveResult:
        counter_add("incremental.base_solves")
        factor = self._base_factor()
        if factor is not None:
            counter_add("incremental.direct_solves")
            return SolveResult(x=factor(rhs), iterations=0, converged=True)
        return self._guarded_pcg(self._base_matrix, rhs, x0, options)

    def _guarded_pcg(self, matrix, rhs, x0, options: SolverOptions) -> SolveResult:
        """K-cycle PCG on *matrix* (``G0`` or the patched system), deadline-guarded."""
        guard = None
        if deadline_active():
            guard = IterationGuard(self.guard_options, solver_name="incremental")
        result = _pcg(
            matrix,
            rhs,
            x0,
            preconditioner=self._preconditioner().apply,
            options=options,
            flexible=True,
            guard=guard,
        )
        counter_add("pcg.iterations", result.iterations)
        return result

    def _column_solve(self, ends: _Ends) -> tuple[np.ndarray, bool]:
        """``(G0⁻¹u, converged)``, one right-hand side at a time.

        Only a converged column is cached: one cut short by a deadline
        would otherwise be paid for, in polish iterations, by every
        later use of the row.
        """
        cached = self._w_cache.get(ends)
        if cached is not None:
            counter_add("incremental.column_cache_hits")
            return cached, True
        plus, minus = ends
        u = np.zeros(self._system.size, dtype=float)
        u[plus] = 1.0
        if minus is not None:
            u[minus] = -1.0
        tol = self.incremental.column_tol
        column_options = replace(
            self.options,
            record_history=False,
            tol=self.options.tol if tol is None else tol,
        )
        result = self._base_solve(u, None, column_options)
        counter_add("incremental.column_solves")
        if result.converged:
            self._w_cache[ends] = result.x
        return result.x, result.converged

    def _project(self, block: np.ndarray, targets: bool = False) -> np.ndarray:
        """Carry ``G0⁻¹`` images over to the current state, in place.

        One Sherman–Morrison step per active term, in apply order, its
        multiplier read off what the earlier steps left:
        ``block -= column (uᵀblock - target) / pivot``.  Raw columns
        ``G0⁻¹u`` take no targets (a response keeps every pin at zero);
        ``y = G0⁻¹b`` with them becomes the state's solution.  Each step
        is elementwise over *block* (a vector, or one candidate per row),
        so a row's numbers do not depend on what shares its block.
        """
        for term in self._terms:
            if term.column is not None:
                gap = _across(term.ends, block) - (term.target if targets else 0.0)
                block -= (gap / term.pivot)[..., None] * term.column
        return block

    # -- delta application -------------------------------------------------

    def _resolve_node(self, node: int | str) -> int:
        return self._grid.index_of(node) if isinstance(node, str) else int(node)

    def _free_row(self, grid_index: int) -> int | None:
        """Reduced row of a node that is electrically unknown, else ``None``."""
        row = int(self._row_of[grid_index])
        pinned = self._grid.pad_voltage[grid_index] == self._grid.pad_voltage[grid_index]
        return None if row < 0 or pinned else row

    def _resolve_endpoint(
        self, grid_index: int
    ) -> tuple[int | None, float | None]:
        """Map a grid node to (reduced row, pinned voltage).

        Original pads have no row; delta-pinned nodes have a row but are
        electrically pads, so both report ``row=None`` + their voltage —
        :func:`patch_conductance` mirrors the full stamp's elimination
        rules, and the pin constraint makes the same form exact for the
        low-rank factor.
        """
        row = self._free_row(grid_index)
        if row is not None:
            return row, None
        return None, float(self._grid.pad_voltage[grid_index])

    def apply(self, delta: GridDelta) -> _Term:
        """Commit a delta; returns the handle :meth:`revert` accepts.

        Every column is solved and every input checked before the first
        write, so an exception leaves the engine exactly as it was.
        """
        if isinstance(delta, AddPad):
            term = self._apply_add_pad(delta)
        elif isinstance(delta, RemovePad):
            term = self._apply_remove_pad(delta)
        elif isinstance(delta, (ScaleWire, SetWireResistance)):
            term = self._apply_wire(delta)
        elif isinstance(delta, ReviseLoads):
            term = self._apply_loads(delta)
        else:
            raise TypeError(f"unsupported delta {type(delta).__name__}")
        self._fingerprint = chained_fingerprint(
            term.prev_fingerprint, term.token
        )
        counter_add("incremental.deltas")
        return term

    def _apply_add_pad(self, delta: AddPad) -> _Term:
        index = self._resolve_node(delta.node)
        row = self._free_row(index)
        if row is None:
            raise ValueError(
                f"node {self._grid.node_names[index]!r} is already a pad"
            )
        voltage = self.supply_voltage if delta.voltage is None else delta.voltage
        if not np.isfinite(voltage):
            raise ValueError(f"a pad voltage must be finite, got {voltage}")
        raw, _ = self._column_solve((row, None))
        column = self._project(raw.copy())

        patch = pin_row(self._system.matrix, self._system.rhs, row, voltage)
        self._grid.pin_pad(index, voltage)
        term = _Term(
            token=delta.token(),
            prev_fingerprint=self._fingerprint,
            ends=(row, None),
            column=column,
            pivot=float(column[row]),
            target=voltage,
            patch=patch,
            grid_undo=lambda: self._grid.unpin_pad(index),
            pinned_row=row,
        )
        self._terms.append(term)
        return term

    def _apply_remove_pad(self, delta: RemovePad) -> _Term:
        index = self._resolve_node(delta.node)
        voltage = float(self._grid.pad_voltage[index])
        if voltage != voltage:
            raise ValueError(
                f"node {self._grid.node_names[index]!r} is not a pad"
            )
        if self._terms and self._terms[-1].pinned_row == self._row_of[index]:
            # Exact reversal of the most recent AddPad: pop it.
            self.revert(self._terms[-1])
            # Re-chain so the fingerprint reflects "add then remove"
            # rather than silently rewinding (apply() chains on top).
            return _Term(token=delta.token(), prev_fingerprint=self._fingerprint)
        # Anything else changes the unknown set: structural rebuild.
        self._grid.unpin_pad(index)
        prev_dirty = self._structural_dirty
        self._structural_dirty = True
        counter_add("incremental.structural_deltas")
        term = _Term(
            token=delta.token(),
            prev_fingerprint=self._fingerprint,
            grid_undo=lambda: self._grid.pin_pad(index, voltage),
            prev_structural_dirty=prev_dirty,
        )
        self._terms.append(term)
        return term

    def _apply_wire(self, delta: ScaleWire | SetWireResistance) -> _Term:
        wire_index = int(delta.wire)
        wire = self._grid.wires[wire_index]
        old_resistance = wire.resistance
        if isinstance(delta, ScaleWire):
            new_resistance = old_resistance * delta.factor
        else:
            new_resistance = delta.resistance
        if not (new_resistance > 0 and np.isfinite(new_resistance)):
            raise ValueError(f"resistance must be positive, got {new_resistance}")
        delta_g = 1.0 / new_resistance - 1.0 / old_resistance

        row_a, voltage_a = self._resolve_endpoint(wire.node_a)
        row_b, voltage_b = self._resolve_endpoint(wire.node_b)
        term = _Term(
            token=delta.token(),
            prev_fingerprint=self._fingerprint,
            grid_undo=lambda: self._grid.set_wire_resistance(
                wire_index, old_resistance
            ),
        )
        rhs_shift = 0.0  # what the pinned side's coupling adds to the live row
        if delta_g != 0.0 and (row_a is not None or row_b is not None):
            if row_a is not None and row_b is not None:
                term.ends = (row_a, row_b)
            else:
                term.ends = (row_a if row_a is not None else row_b, None)
                rhs_shift = delta_g * (voltage_b if row_a is not None else voltage_a)
            raw, _ = self._column_solve(term.ends)
            term.column = self._project(raw.copy())
            term.pivot = 1.0 / delta_g + float(_across(term.ends, term.column))
            if rhs_shift:
                term.y_delta = rhs_shift * raw

        term.patch = patch_conductance(
            self._system.matrix, self._system.rhs,
            row_a, row_b, delta_g, voltage_a, voltage_b,
        )
        if rhs_shift:
            term.free_patch = patch_rhs(
                self._free_rhs, np.array([term.ends[0]]), np.array([rhs_shift])
            )
            if self._y is not None:
                self._y = self._y + term.y_delta
        self._grid.set_wire_resistance(wire_index, new_resistance)
        self._terms.append(term)
        return term

    def _apply_loads(self, delta: ReviseLoads) -> _Term:
        resolved: list[tuple[int, int, float]] = []
        for node, amps in delta.currents:
            index = self._resolve_node(node)
            row = self._free_row(index)
            if row is None:
                raise ValueError(
                    f"node {self._grid.node_names[index]!r} ({index}) is a pad "
                    "or unknown; cannot load it"
                )
            resolved.append((index, row, amps))
        rows: list[int] = []
        rhs_deltas: list[float] = []
        old_loads: list[tuple[int, float]] = []
        for index, row, amps in resolved:
            old = float(self._grid.load_current[index])
            new = old + amps if delta.additive else amps
            if new == old:
                continue
            rows.append(row)
            # Loads enter the stamped RHS with a negative sign.
            rhs_deltas.append(-(new - old))
            old_loads.append((index, old))
            self._grid.set_load(index, new)
        shifts = (np.asarray(rows, dtype=np.int64), np.asarray(rhs_deltas, dtype=float))

        def undo() -> None:
            for index, old in old_loads:
                self._grid.set_load(index, old)

        term = _Term(
            token=delta.token(),
            prev_fingerprint=self._fingerprint,
            patch=patch_rhs(self._system.rhs, *shifts),
            free_patch=patch_rhs(self._free_rhs, *shifts),
            grid_undo=undo,
        )
        if rows:
            self._y = None  # general RHS move: re-solve (warm) on demand
        self._terms.append(term)
        return term

    def revert(self, term: _Term) -> None:
        """Undo the most recently applied delta (LIFO discipline)."""
        if not self._terms or self._terms[-1] is not term:
            raise ValueError(
                "revert only accepts the most recently applied delta"
            )
        self._terms.pop()
        revert_patch(self._system.matrix, self._system.rhs, term.patch)
        self._free_rhs[term.free_patch.rhs_rows] = term.free_patch.rhs_old
        if term.grid_undo is not None:
            term.grid_undo()
        if term.prev_structural_dirty is not None:
            self._structural_dirty = term.prev_structural_dirty
        if term.y_delta is None and term.free_patch.rhs_rows.size:
            self._y = None  # a load revision: nothing algebraic to take back
        elif term.y_delta is not None and self._y is not None:
            self._y = self._y - term.y_delta
        self._fingerprint = term.prev_fingerprint

    # -- previews ----------------------------------------------------------

    def preview(self, delta: GridDelta, tol: float | None = None) -> IncrementalSolve:
        """Evaluate a candidate edit without committing it."""
        return self.preview_many([delta], tol)[0]

    def preview_many(
        self, deltas: Sequence[GridDelta], tol: float | None = None
    ) -> list[IncrementalSolve]:
        """Evaluate candidate edits, each alone against the current state.

        An :class:`AddPad` on top of a committed :meth:`solve` is one
        more constraint bordered onto that solution, ``x + δ_j z̃_j``,
        read off cached columns without touching :attr:`system`; its
        relative residual on the pinned system is the certificate.  A
        candidate over *tol*, any other delta kind, and every candidate
        when the state moved since the last ``solve()``, goes through
        apply → ``solve(commit=False)`` → revert instead.  A candidate's
        result does not depend on what else is in the batch.
        """
        with span("incremental.preview_batch", candidates=len(deltas)) as batch:
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
                continue  # not a pad, or apply() owns the error
            raw, converged = self._column_solve((row, None))
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

    def set_loads(self, currents: Mapping[int | str, float]) -> _Term:
        """Replace the whole load vector (unmentioned loads go to zero)."""
        merged: dict[int | str, float] = dict.fromkeys(self.current_loads, 0.0)
        merged.update(currents)
        return self.apply(ReviseLoads.of(merged))

    def solve(
        self, tol: float | None = None, commit: bool = True
    ) -> IncrementalSolve:
        """Solve the current state; warm-starts and corrects as possible.

        ``commit=False`` (the polish path of :meth:`preview_many`) keeps
        the cached solution trajectory and the per-step diagnostics
        pointed at the last committed state.
        """
        options = self.options if tol is None else replace(self.options, tol=tol)
        with span("incremental.solve", rank=self.rank) as solve_span:
            # Previews must never rebuild: a rebuild folds the term
            # stack into the base system, and the caller still holds a
            # term it is about to revert.
            rebuilt = commit and self._needs_rebuild()
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
        counter_add("incremental.solves")
        counter_add("incremental.polish_iterations", step.polish_iterations)
        if step.aborted is not None:
            counter_add("incremental.aborted")
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
        counter_add("incremental.warm_solves" if strategy == "warm" else
                    "incremental.full_solves")
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
        # y = G0⁻¹ b with no pin in b; shifted algebraically by pad-side
        # wire edits, re-solved (warm) after a general RHS move.
        if self._y is None:
            result = self._base_solve(self._free_rhs, self._y_guess, options)
            iterations += result.iterations
            if result.aborted is not None:
                return self._finish(
                    result.x, iterations, "smw", commit,
                    aborted=result.aborted, converged=False,
                )
            self._y = result.x
        self._y_guess = self._y
        x = self._project(self._y.copy(), targets=True)
        counter_add("incremental.smw_solves")

        # Polish on the *patched* matrix with the stale base
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
                counter_add("incremental.fallbacks")
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


class IncrementalAnalyzer:
    """Warm-started load re-analysis (the classic ECO loop front-end).

    A thin wrapper over :class:`IncrementalEngine` for the common case
    of revising load currents only.  Accepts caller-supplied
    :class:`SolverOptions`, honours an ambient
    :func:`repro.obs.deadline_scope`, and surfaces per-step
    iteration/strategy records through :attr:`diagnostics`.
    """

    def __init__(
        self,
        grid: PowerGrid,
        supply_voltage: float | None = None,
        tol: float = 1e-8,
        options: SolverOptions | None = None,
        incremental: IncrementalOptions | None = None,
    ) -> None:
        if options is None:
            options = SolverOptions(tol=tol, max_iterations=500)
        self._engine = IncrementalEngine(
            grid,
            supply_voltage,
            options=options,
            incremental=incremental,
        )
        self._currents: dict[int, float] = {}

    @property
    def engine(self) -> IncrementalEngine:
        """The underlying incremental engine (for structural deltas)."""
        return self._engine

    @property
    def grid(self) -> PowerGrid:
        return self._engine.grid

    @property
    def supply_voltage(self) -> float:
        return self._engine.supply_voltage

    @property
    def options(self) -> SolverOptions:
        return self._engine.options

    @property
    def diagnostics(self) -> RunDiagnostics:
        """Per-step strategy/iteration records for the whole session."""
        return self._engine.diagnostics

    @property
    def current_loads(self) -> dict[int, float]:
        """The load vector of the most recent solve."""
        return dict(self._currents)

    def set_loads(self, currents: Mapping[int, float]) -> IncrementalSolve:
        """Replace the full load vector and (re)solve.

        The first call is a cold solve from the flat guess; later calls
        warm-start from the previous solution.
        """
        self._engine.set_loads(currents)
        self._currents = dict(currents)
        return self._engine.solve()

    def update_loads(self, delta: Mapping[int, float]) -> IncrementalSolve:
        """Apply additive current changes to the current vector and re-solve."""
        merged = dict(self._currents)
        for node_index, amps in delta.items():
            merged[node_index] = merged.get(node_index, 0.0) + amps
        return self.set_loads(merged)
