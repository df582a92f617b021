"""Per-call reference smoothers (moved verbatim from ``repro.solvers.smoothers``).

The functions operate in-place-style on a copy: ``smooth(A, b, x, sweeps)``
returns an improved iterate, deriving the triangular splits from ``A`` on
every call.  scipy spends far longer building and validating those splits
than solving with them, so the functions are the *reference* the tests
compare against; a multigrid cycle runs a
:class:`repro.solvers.smoothers.Relaxation`, which pays for structure once
per AMG level.  Nothing in ``src/`` calls these.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

_JACOBI_WEIGHT = 2.0 / 3.0


def jacobi(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    x: np.ndarray,
    sweeps: int = 1,
    weight: float = _JACOBI_WEIGHT,
) -> np.ndarray:
    """Weighted (damped) Jacobi relaxation.

    ``x <- x + w D^{-1} (b - A x)``; the classic 2/3 damping is optimal for
    the Laplacian-like operators PG conductance matrices resemble.
    """
    diag = matrix.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("Jacobi smoother requires a nonzero diagonal")
    with np.errstate(divide="raise"):
        inv_diag = weight / diag
    out = x.copy()
    for _ in range(sweeps):
        out += inv_diag * (rhs - matrix @ out)
    return out


def _split_triangular(matrix: sp.csr_matrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Lower (with diagonal) and strictly-upper parts of a CSR matrix."""
    lower = sp.tril(matrix, k=0, format="csr")
    upper = sp.triu(matrix, k=1, format="csr")
    return lower, upper


def gauss_seidel(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    x: np.ndarray,
    sweeps: int = 1,
    direction: str = "forward",
) -> np.ndarray:
    """Gauss-Seidel relaxation (forward, backward or symmetric).

    Forward: ``(D + L) x_{k+1} = b - U x_k``.  The symmetric variant does a
    forward then a backward sweep, preserving the symmetry needed when the
    smoother sits inside a CG preconditioner.
    """
    if direction not in ("forward", "backward", "symmetric"):
        raise ValueError(f"unknown direction {direction!r}")
    lower, strict_upper = _split_triangular(matrix)
    upper = sp.triu(matrix, k=0, format="csr")
    strict_lower = sp.tril(matrix, k=-1, format="csr")
    out = x.copy()
    for _ in range(sweeps):
        if direction in ("forward", "symmetric"):
            out = spsolve_triangular(lower, rhs - strict_upper @ out, lower=True)
        if direction in ("backward", "symmetric"):
            out = spsolve_triangular(upper, rhs - strict_lower @ out, lower=False)
    return np.asarray(out, dtype=float)


def sor(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    x: np.ndarray,
    sweeps: int = 1,
    omega: float = 1.5,
) -> np.ndarray:
    """Successive over-relaxation: ``(D/w + L) x_{k+1} = b - (U + (1-1/w) D) x_k``."""
    if not 0.0 < omega < 2.0:
        raise ValueError(f"SOR requires 0 < omega < 2, got {omega}")
    diag = sp.diags(matrix.diagonal(), format="csr")
    strict_lower = sp.tril(matrix, k=-1, format="csr")
    strict_upper = sp.triu(matrix, k=1, format="csr")
    with np.errstate(divide="raise"):
        m_left = sp.csr_matrix(diag / omega + strict_lower)
        m_right = sp.csr_matrix(strict_upper + (1.0 - 1.0 / omega) * diag)
    out = x.copy()
    for _ in range(sweeps):
        out = spsolve_triangular(m_left, rhs - m_right @ out, lower=True)
    return np.asarray(out, dtype=float)


SMOOTHERS = {
    "jacobi": jacobi,
    "gauss_seidel": gauss_seidel,
    "sor": sor,
}


def get_smoother(name: str):
    """Look up a smoother callable by name."""
    try:
        return SMOOTHERS[name]
    except KeyError:
        raise ValueError(
            f"unknown smoother {name!r}; choose from {sorted(SMOOTHERS)}"
        ) from None
