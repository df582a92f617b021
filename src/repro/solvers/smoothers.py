"""Setup-once relaxation methods used as AMG smoothers.

A multigrid cycle runs a :class:`Relaxation`, which pays for structure
(factor, scaled diagonal, zero-diagonal check) once per AMG level and for
arithmetic only per application.  The per-call Jacobi / Gauss-Seidel / SOR
functions these replaced are the oracle in ``tests/reference_smoothers.py``.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

_JACOBI_WEIGHT = 2.0 / 3.0


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
    """Damped (2/3) Jacobi, ``x += w D⁻¹ (b - A x)``: holds ``weight / diag``."""
    with np.errstate(divide="raise"):
        scaled = _JACOBI_WEIGHT / _nonzero_diagonal(matrix, level)
    return Relaxation(matrix, (scaled.__mul__,))


def symmetric_gauss_seidel(matrix: sp.csr_matrix, level: int = 0) -> Relaxation:
    """Symmetric Gauss-Seidel: a forward then a backward sweep.

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
RELAXATIONS = MappingProxyType(
    {"jacobi": jacobi_relaxation, "gauss_seidel": symmetric_gauss_seidel}
)
