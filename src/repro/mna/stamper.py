"""Conductance-matrix stamping.

"Using this link table, the circuit generator constructs the circuit
topology graph, enabling the extraction of the conductance matrix G for
simulation" (Section III-B).  Stamping follows the classic MNA rules: a
resistor of conductance g between nodes *a* and *b* adds ``+g`` to the two
diagonal entries and ``-g`` to the two off-diagonals; a current source adds
to the RHS; ideal voltage sources are eliminated (reduced form).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from repro.grid.netlist import PowerGrid
from repro.grid.topology import validate_connectivity
from repro.mna.system import ReducedSystem


def build_reduced_system(
    grid: PowerGrid, validate: bool = True, check_diagonal: bool = True
) -> ReducedSystem:
    """Assemble the SPD reduced system ``G x = b`` over non-pad nodes.

    Pad nodes are eliminated: their known voltage ``v_p`` moves coupling
    terms ``g * v_p`` to the right-hand side.  Load currents enter the RHS
    with a negative sign (current leaves the node into the cells).

    Parameters
    ----------
    grid:
        The power grid to stamp.
    validate:
        Run connectivity validation first (recommended; guarantees the
        result is nonsingular).
    check_diagonal:
        After stamping, verify every diagonal entry is positive and finite
        (cheap) and raise :class:`ValueError` naming the offending nodes
        otherwise — a singular/indefinite ``G`` must never reach a solver
        silently.
    """
    if validate:
        validate_connectivity(grid)

    n = grid.num_nodes
    pads = grid.pad_indices()
    pad_voltage = grid.pad_voltage
    unknown_indices = np.flatnonzero(np.isnan(pad_voltage))
    n_unknown = unknown_indices.size
    row_of = np.full(n, -1, dtype=np.int64)
    row_of[unknown_indices] = np.arange(n_unknown)

    node_a, node_b, resistance = grid.wire_arrays()
    g = 1.0 / resistance
    a_row, b_row = row_of[node_a], row_of[node_b]
    a_free, b_free = a_row >= 0, b_row >= 0

    # Every sum below adds in the order a per-wire loop would: bincount
    # accumulates in input order, and a wire's two ends are interleaved.
    end_rows = np.stack([a_row, b_row], axis=1).ravel()
    end_free = end_rows >= 0
    diag = np.bincount(
        end_rows[end_free], weights=np.repeat(g, 2)[end_free], minlength=n_unknown
    )
    # A wire with one pad end moves its coupling ``g * v_pad`` to the free
    # end's RHS; pad-to-pad wires contribute nothing to the reduced system.
    coupled = a_free ^ b_free
    pad_end = np.where(a_free, node_b, node_a)[coupled]
    rhs = np.bincount(
        np.where(a_free, a_row, b_row)[coupled],
        weights=g[coupled] * pad_voltage[pad_end],
        minlength=n_unknown,
    )
    rhs -= grid.load_current[unknown_indices]

    both = a_free & b_free
    pair = np.stack([a_row[both], b_row[both]], axis=1)
    diagonal = np.arange(n_unknown)
    matrix = sp.csr_matrix(
        (
            np.concatenate([np.repeat(-g[both], 2), diag]),
            (
                np.concatenate([pair.ravel(), diagonal]),
                np.concatenate([pair[:, ::-1].ravel(), diagonal]),
            ),
        ),
        shape=(n_unknown, n_unknown),
        dtype=float,
    )
    matrix.sum_duplicates()
    if check_diagonal:
        bad = np.flatnonzero(~(diag > 0) | ~np.isfinite(diag))
        if bad.size:
            names = [grid.node_names[i] for i in unknown_indices[bad[:5]].tolist()]
            raise ValueError(
                f"stamped G has {bad.size} non-positive/non-finite diagonal "
                f"entries (e.g. nodes {names}); the system is singular or "
                "indefinite — repair the netlist first"
            )
    return ReducedSystem(
        matrix=matrix,
        rhs=rhs,
        unknown_indices=unknown_indices,
        pad_voltages=dict(zip(pads.tolist(), pad_voltage[pads].tolist())),
        num_grid_nodes=n,
    )


def stamped_system(grid: PowerGrid) -> ReducedSystem:
    """:func:`build_reduced_system` of *grid*, stamped once per grid state.

    The arrays are shared by every caller until the grid is next edited,
    so they refuse writes, and the system carries its matrix fingerprint,
    hashed once here instead of on every AMG setup-cache lookup; each call
    gets its own copy of the pad map.  Connectivity is the caller's to
    check first; a system to delta-stamp in place is
    :meth:`ReducedSystem.mutable_copy`.
    """
    system = grid.memo("reduced_system", lambda: _frozen_stamp(grid))
    return replace(system, pad_voltages=dict(system.pad_voltages))


def _frozen_stamp(grid: PowerGrid) -> ReducedSystem:
    # Deferred: repro.solvers imports this module.
    from repro.solvers.cache import matrix_fingerprint

    system = build_reduced_system(grid, validate=False)
    matrix = system.matrix
    for array in (
        matrix.data, matrix.indices, matrix.indptr, system.rhs, system.unknown_indices
    ):
        array.flags.writeable = False
    return replace(system, fingerprint=matrix_fingerprint(matrix))


# ---------------------------------------------------------------------------
# Delta stamping: patch an already-reduced CSR system in place.
#
# An added pad changes one row and column of the matrix; re-running the
# full stamp throws away the CSR structure, the RHS and — further
# downstream — the AMG hierarchy.  ``pin_row`` edits ``matrix.data``/
# ``rhs`` directly and returns an undo record, so a caller can apply a
# pad, solve, and revert.  The sparsity *pattern* never changes: every
# update touches entries the symmetric stamp already materialised.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemPatch:
    """Undo record for one in-place reduced-system edit.

    ``data_indices`` index straight into ``matrix.data`` (CSR storage
    order); ``rhs_rows`` index into the RHS vector.  Reverting writes the
    saved old values back, restoring the system bitwise.
    """

    data_indices: np.ndarray
    data_old: np.ndarray
    rhs_rows: np.ndarray
    rhs_old: np.ndarray


def csr_entry(matrix: sp.csr_matrix, row: int, col: int) -> int:
    """Position of entry ``(row, col)`` in ``matrix.data``.

    Requires canonical CSR (sorted indices, duplicates summed) — which
    :func:`build_reduced_system` guarantees.  Raises ``KeyError`` when
    the entry is not materialised: delta stamping never creates fill-in.
    """
    lo, hi = int(matrix.indptr[row]), int(matrix.indptr[row + 1])
    pos = lo + int(np.searchsorted(matrix.indices[lo:hi], col))
    if pos >= hi or matrix.indices[pos] != col:
        raise KeyError(f"entry ({row}, {col}) is not stored in the CSR pattern")
    return pos


def revert_patch(
    matrix: sp.csr_matrix, rhs: np.ndarray, patch: SystemPatch
) -> None:
    """Undo an in-place edit, restoring matrix and RHS bitwise."""
    matrix.data[patch.data_indices] = patch.data_old
    rhs[patch.rhs_rows] = patch.rhs_old


def pin_row(
    matrix: sp.csr_matrix, rhs: np.ndarray, row: int, voltage: float
) -> SystemPatch:
    """Pin unknown ``row`` to ``voltage`` by in-place row/column surgery.

    The constraint ``x[row] = voltage`` is imposed *exactly* while
    keeping the matrix dimension (and SPD-ness): row and column ``row``
    are zeroed, the diagonal keeps its old value ``d`` (scale
    preserving), ``rhs[row]`` becomes ``d * voltage``, and every
    neighbour ``r`` gets the eliminated coupling ``q_r * voltage`` moved
    onto its RHS.  After the permutation separating ``row`` the system
    is block-diagonal ``diag(G_rr, d)`` — the remaining unknowns satisfy
    precisely the system a from-scratch stamp with one more pad yields.
    Every position is looked up before anything is written, so a
    ``KeyError`` leaves matrix and RHS untouched.
    """
    lo, hi = int(matrix.indptr[row]), int(matrix.indptr[row + 1])
    neighbours = matrix.indices[lo:hi].astype(np.int64, copy=True)
    couplings = matrix.data[lo:hi].copy()
    diag_pos = lo + int(np.searchsorted(matrix.indices[lo:hi], row))
    if diag_pos >= hi or matrix.indices[diag_pos] != row:
        raise KeyError(f"row {row} has no stored diagonal")
    diag = float(matrix.data[diag_pos])

    # Positions of the symmetric column entries (r, row) for r != row.
    off_diagonal = neighbours != row
    col_positions = np.asarray(
        [csr_entry(matrix, r, row) for r in neighbours[off_diagonal].tolist()],
        dtype=np.int64,
    )
    data_indices = np.concatenate([np.arange(lo, hi, dtype=np.int64), col_positions])
    patch = SystemPatch(
        data_indices=data_indices,
        data_old=matrix.data[data_indices].copy(),
        rhs_rows=neighbours,  # the pinned row itself included
        rhs_old=rhs[neighbours].copy(),
    )

    matrix.data[data_indices] = 0.0
    matrix.data[diag_pos] = diag
    # A canonical CSR row lists each neighbour once: no duplicate targets.
    rhs[neighbours[off_diagonal]] -= couplings[off_diagonal] * voltage
    rhs[row] = diag * voltage
    return patch
