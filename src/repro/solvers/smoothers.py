"""Stationary relaxation methods used as AMG smoothers.

The functions operate in-place-style on a copy: ``smooth(A, b, x, sweeps)``
returns an improved iterate, deriving the triangular splits from ``A`` on
every call.  scipy spends far longer building and validating those splits
than solving with them, so the functions are the *reference* the tests
compare against; a multigrid cycle runs a :class:`Relaxation`, which pays
for structure (factor, scaled diagonal, zero-diagonal check) once per AMG
level and for arithmetic only per application.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve_triangular

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


class Relaxation:
    """Setup-once smoother: ``x += M⁻¹ (b - A x)`` per approximate inverse.

    *steps* are applied in order on each sweep.  ``x=None`` is the zero
    initial guess, whose first step is ``M⁻¹ b`` with no ``A @ 0`` product.
    """

    def __init__(self, matrix: sp.csr_matrix, steps: tuple) -> None:
        self.matrix = matrix
        self.steps = steps

    def __call__(self, rhs: np.ndarray, x: np.ndarray | None, sweeps: int) -> np.ndarray:
        for _ in range(sweeps):
            for step in self.steps:
                x = step(rhs) if x is None else x + step(rhs - self.matrix @ x)
        return np.zeros_like(rhs) if x is None else x


def _nonzero_diagonal(matrix: sp.csr_matrix, level: int) -> np.ndarray:
    diag = matrix.diagonal()
    zero_rows = np.flatnonzero(diag == 0.0)
    if zero_rows.size:
        raise ValueError(
            f"relaxation on AMG level {level} needs a nonzero diagonal; "
            f"first zero entry at row {int(zero_rows[0])}"
        )
    return diag


def jacobi_relaxation(matrix: sp.csr_matrix, level: int = 0) -> Relaxation:
    """Setup-once :func:`jacobi` (default damping): holds ``weight / diag``."""
    with np.errstate(divide="raise"):
        scaled = _JACOBI_WEIGHT / _nonzero_diagonal(matrix, level)
    return Relaxation(matrix, (scaled.__mul__,))


def symmetric_gauss_seidel(matrix: sp.csr_matrix, level: int = 0) -> Relaxation:
    """Setup-once ``gauss_seidel(..., direction="symmetric")``.

    Holds one sparse factor of the lower triangle ``L`` (diagonal
    included): the matrix is symmetric, so the upper triangle is ``Lᵀ`` and
    the backward half-sweep solves with the same factor transposed — no
    strict halves are stored.  Natural ordering and a zero pivot threshold
    keep SuperLU from permuting, so each solve is a plain substitution.
    """
    _nonzero_diagonal(matrix, level)
    lower = splu(
        sp.tril(matrix, k=0, format="csc"),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
    )
    return Relaxation(matrix, (lower.solve, partial(lower.solve, trans="T")))


#: ``CycleOptions.smoother`` -> builder ``(matrix, level) -> Relaxation``.
RELAXATIONS = {"jacobi": jacobi_relaxation, "gauss_seidel": symmetric_gauss_seidel}

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
