"""Direct sparse solver — the golden reference.

EDA signoff flows treat a converged direct factorisation (KLU / CHOLMOD)
as ground truth.  Here sparse LU from SuperLU (via scipy) plays that role;
for the SPD reduced systems it is numerically equivalent to a Cholesky
solve and is used to produce golden IR-drop labels for the dataset.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.solvers.base import SolveResult, Timer, check_system


class DirectSolver:
    """Sparse-LU solver: each solve factors the matrix it is given."""

    def solve(
        self,
        matrix: sp.spmatrix,
        rhs: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        """Factor and solve exactly.

        ``x0`` is accepted for interface compatibility and ignored.
        """
        csr = check_system(matrix, rhs)
        timer = Timer()
        factor = splu(csr.tocsc())
        setup = timer.lap()
        x = factor.solve(rhs)
        solve = timer.lap()
        residual = float(np.linalg.norm(rhs - csr @ x))
        return SolveResult(
            x=np.asarray(x, dtype=float),
            iterations=1,
            converged=True,
            residual_norms=[float(np.linalg.norm(rhs)), residual],
            setup_seconds=setup,
            solve_seconds=solve,
        )
