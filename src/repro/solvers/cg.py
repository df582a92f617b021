"""Conjugate-gradient solvers: plain CG and Jacobi-preconditioned CG.

These are the classical Krylov baselines (Chen & Chen, DAC'01 lineage) that
AMG-PCG is compared against; they share the iteration skeleton used by
:class:`~repro.solvers.amg_pcg.AMGPCGSolver`.  Every solver accepts an
optional :class:`~repro.solvers.guard.IterationGuard` watchdog that can
abort a sick iteration (NaN residual, divergence, stagnation, expired
deadline) without raising.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.solvers.base import SolveResult, SolverOptions, Timer, check_system
from repro.solvers.guard import IterationGuard


class CGSolver:
    """Unpreconditioned conjugate gradients for SPD systems."""

    def __init__(self, options: SolverOptions | None = None) -> None:
        self.options = options or SolverOptions()

    def solve(
        self,
        matrix: sp.spmatrix,
        rhs: np.ndarray,
        x0: np.ndarray | None = None,
        guard: IterationGuard | None = None,
    ) -> SolveResult:
        csr = check_system(matrix, rhs)
        return _pcg(
            csr, rhs, x0, preconditioner=None, options=self.options, guard=guard
        )


class JacobiPCGSolver:
    """CG preconditioned by the inverse diagonal (point Jacobi)."""

    def __init__(self, options: SolverOptions | None = None) -> None:
        self.options = options or SolverOptions()

    def solve(
        self,
        matrix: sp.spmatrix,
        rhs: np.ndarray,
        x0: np.ndarray | None = None,
        guard: IterationGuard | None = None,
    ) -> SolveResult:
        csr = check_system(matrix, rhs)
        diag = csr.diagonal()
        if np.any(diag <= 0.0):
            raise ValueError("Jacobi preconditioning needs a positive diagonal")
        inv_diag = 1.0 / diag

        def precondition(r: np.ndarray) -> np.ndarray:
            return inv_diag * r

        return _pcg(
            csr, rhs, x0, preconditioner=precondition, options=self.options,
            guard=guard,
        )


def _pcg(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    x0: np.ndarray | None,
    preconditioner,
    options: SolverOptions,
    flexible: bool = False,
    guard: IterationGuard | None = None,
) -> SolveResult:
    """Shared (optionally flexible) PCG iteration.

    With ``flexible=True`` the Polak-Ribiere form of beta is used,
    ``beta = z_{k+1}^T (r_{k+1} - r_k) / (z_k^T r_k)``, which tolerates a
    preconditioner that varies between iterations (the K-cycle does).

    When a *guard* is supplied every residual norm flows through
    :meth:`IterationGuard.observe`; a tripped guard stops the loop and the
    trip reason lands in ``SolveResult.aborted``.

    ``setup_seconds`` is left at zero here: preconditioner setup belongs
    to whoever built the preconditioner, and callers add their own cost
    on top (a reused setup therefore reports exactly zero).
    """
    timer = Timer()
    n = rhs.shape[0]
    x = np.zeros(n, dtype=float) if x0 is None else np.asarray(x0, dtype=float).copy()
    r = rhs - matrix @ x
    rhs_norm = float(np.linalg.norm(rhs))
    target = options.tol * rhs_norm if rhs_norm > 0 else options.tol
    initial_norm = float(np.linalg.norm(r))
    if guard is not None:
        initial_norm = guard.observe(0, initial_norm)
    history = [initial_norm] if options.record_history else []
    aborted = guard.tripped if guard is not None else None

    if aborted is None and initial_norm <= target:
        return SolveResult(
            x=x,
            iterations=0,
            converged=True,
            residual_norms=history,
            solve_seconds=timer.lap(),
        )

    converged = False
    iterations = 0
    if aborted is None:
        z = preconditioner(r) if preconditioner is not None else r.copy()
        p = z.copy()
        rz = float(r @ z)

        for _ in range(options.max_iterations):
            ap = matrix @ p
            pap = float(p @ ap)
            if not np.isfinite(pap):
                aborted = "nan_residual"
                break
            if pap <= 0.0:
                # A lost positive-definiteness numerically; stop with the
                # best iterate (aborted so the cascade can degrade).
                aborted = "indefinite_matrix"
                break
            alpha = rz / pap
            x += alpha * p
            r_new = r - alpha * ap
            iterations += 1
            res_norm = float(np.linalg.norm(r_new))
            if guard is not None:
                res_norm = guard.observe(iterations, res_norm)
            if options.record_history:
                history.append(res_norm)
            if guard is not None and guard.tripped is not None:
                aborted = guard.tripped
                r = r_new
                break
            if res_norm <= target:
                r = r_new
                converged = True
                break
            z_new = preconditioner(r_new) if preconditioner is not None else r_new.copy()
            if flexible:
                beta = float(z_new @ (r_new - r)) / rz
            else:
                beta = float(r_new @ z_new) / rz
            rz = float(r_new @ z_new)
            p = z_new + beta * p
            r = r_new

    return SolveResult(
        x=x,
        iterations=iterations,
        converged=converged,
        residual_norms=history,
        solve_seconds=timer.lap(),
        aborted=aborted,
    )
