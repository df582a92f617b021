"""Multigrid cycling: V- and K-cycle preconditioner application.

Preconditioning phase of AMG-PCG (Fig. 3): the hierarchy plays the role of
``M^{-1}``; applying a cycle to a residual returns the multilevel
correction.  The K-cycle (Notay) accelerates each coarse-level correction
with one or two steps of *flexible* conjugate gradients, themselves
preconditioned by the next coarser cycle — "a multigrid cycling strategy
that efficiently balances convergence speed and computational cost".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solvers.amg import AMGHierarchy


@dataclass(frozen=True)
class CycleOptions:
    """Cycle shape and smoothing controls.

    Attributes
    ----------
    cycle:
        ``"v"`` or ``"k"``.
    presmooth_sweeps, postsmooth_sweeps:
        Relaxation sweeps before restriction / after prolongation.
    smoother:
        ``"gauss_seidel"`` (symmetrised automatically) or ``"jacobi"``.
    kcycle_steps:
        Maximum inner Krylov steps per coarse correction in the K-cycle.
    kcycle_tol:
        Relative residual at which the inner K-cycle iteration stops early
        (Notay recommends a loose 0.25).
    """

    cycle: str = "k"
    presmooth_sweeps: int = 1
    postsmooth_sweeps: int = 1
    smoother: str = "gauss_seidel"
    kcycle_steps: int = 2
    kcycle_tol: float = 0.25

    def __post_init__(self) -> None:
        if self.cycle not in ("v", "k"):
            raise ValueError(f"cycle must be 'v' or 'k', got {self.cycle!r}")
        if self.smoother not in ("gauss_seidel", "jacobi"):
            raise ValueError(f"unsupported smoother {self.smoother!r}")
        if self.kcycle_steps < 1:
            raise ValueError("kcycle_steps must be >= 1")


class CyclePreconditioner:
    """Applies one multigrid cycle as ``M^{-1} r``.

    The application is (approximately) a fixed symmetric positive operator
    for V-cycles; the K-cycle varies between applications, which is why the
    outer Krylov loop must use the flexible CG update.

    Construction asks the hierarchy for its level relaxations (built once
    per smoother kind, then shared), so an application is arithmetic
    only: it splits, factors and checks nothing.
    """

    def __init__(
        self, hierarchy: AMGHierarchy, options: CycleOptions | None = None
    ) -> None:
        self.hierarchy = hierarchy
        self.options = options or CycleOptions()
        self._relax = hierarchy.relaxations(self.options.smoother)

    # -- public API ---------------------------------------------------------

    def apply(self, r: np.ndarray) -> np.ndarray:
        """One cycle on the finest level with zero initial guess."""
        return self._solve_level(0, np.asarray(r, dtype=float))

    __call__ = apply

    # -- internals -----------------------------------------------------------

    def _cycle_once(self, level: int, rhs: np.ndarray) -> np.ndarray:
        """One cycle at *level*: smooth, coarse-correct, smooth."""
        fine = self.hierarchy.levels[level]
        if fine.prolongation is None or fine.restriction is None:
            raise ValueError(
                f"corrupted AMG hierarchy: level {level} is not the "
                "coarsest but has no prolongation"
            )
        relax = self._relax[level]

        # None is the zero initial guess: its A @ 0 product is skipped.
        x = relax(rhs, None, self.options.presmooth_sweeps)
        coarse_rhs = fine.restriction @ (rhs - fine.matrix @ x)
        coarse_x = self._solve_level(level + 1, coarse_rhs)
        x = x + fine.prolongation @ coarse_x
        return relax(rhs, x, self.options.postsmooth_sweeps)

    def _solve_level(self, level: int, rhs: np.ndarray) -> np.ndarray:
        """Coarse correction strategy at *level* according to cycle type."""
        levels = self.hierarchy.levels
        if level == len(levels) - 1:
            return self.hierarchy.coarse_solve(rhs)
        if level == 0 or self.options.cycle == "v":
            return self._cycle_once(level, rhs)
        return self._kcycle_correction(level, rhs)

    def _kcycle_correction(self, level: int, rhs: np.ndarray) -> np.ndarray:
        """Up to ``kcycle_steps`` flexible-CG steps on ``A_level e = rhs``.

        Each step is preconditioned by one cycle at this level (which in
        turn recurses) — the defining K-cycle structure.
        """
        matrix = self.hierarchy.levels[level].matrix
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm == 0.0:
            return np.zeros_like(rhs)
        target = self.options.kcycle_tol * rhs_norm

        x = np.zeros_like(rhs)
        r = rhs.copy()
        z = self._cycle_once(level, r)
        p = z.copy()
        rz = float(r @ z)
        for step in range(self.options.kcycle_steps):
            ap = matrix @ p
            pap = float(p @ ap)
            if pap <= 0.0 or rz == 0.0:
                break
            alpha = rz / pap
            x += alpha * p
            r_new = r - alpha * ap
            if float(np.linalg.norm(r_new)) <= target:
                break
            if step == self.options.kcycle_steps - 1:
                break
            z_new = self._cycle_once(level, r_new)
            beta = float(z_new @ (r_new - r)) / rz  # flexible (Polak-Ribiere)
            rz = float(r_new @ z_new)
            r = r_new
            p = z_new + beta * p
        return x
