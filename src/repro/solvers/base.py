"""Common solver interfaces and result containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np
import scipy.sparse as sp

from repro.obs import monotonic


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls shared by every iterative solver.

    Attributes
    ----------
    tol:
        Relative-residual convergence tolerance (``||r||/||b||``).
    max_iterations:
        Hard iteration cap.  The fusion framework deliberately sets this
        low (1-10) to obtain rough solutions quickly.
    record_history:
        Record the residual norm after every iteration (small overhead).
    """

    tol: float = 1e-8
    max_iterations: int = 1000
    record_history: bool = True

    def __post_init__(self) -> None:
        if not self.tol >= 0:
            raise ValueError(f"tol must be non-negative, got {self.tol}")
        if self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must be non-negative, got {self.max_iterations}"
            )


@dataclass
class SolveResult:
    """Outcome of one linear solve.

    Attributes
    ----------
    x:
        The (possibly rough) solution vector.
    iterations:
        Iterations actually performed.
    converged:
        Whether the relative residual dropped below the tolerance.
    residual_norms:
        ``||b - Ax_k||`` after each iteration (index 0 = initial residual)
        when history recording is on.
    setup_seconds, solve_seconds:
        Wall-clock split between preconditioner setup and iteration.
    aborted:
        ``None`` for a clean run; otherwise the guardrail trip reason
        (``"nan_residual"``, ``"diverged"``, ``"stagnated"``,
        ``"deadline"``, ``"indefinite_matrix"``) that stopped iteration
        early.  A non-``None`` value means the iterate should not be
        trusted and the fallback cascade treats the attempt as failed.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list[float] = field(default_factory=list)
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    aborted: str | None = None

    @property
    def final_residual(self) -> float:
        """Last recorded residual norm (``nan`` when history is off)."""
        if not self.residual_norms:
            return float("nan")
        return self.residual_norms[-1]

    def convergence_factor(self) -> float:
        """Geometric-mean per-iteration residual reduction factor."""
        if len(self.residual_norms) < 2 or self.residual_norms[0] == 0.0:
            return float("nan")
        first, last = self.residual_norms[0], self.residual_norms[-1]
        if last == 0.0:
            return 0.0
        steps = len(self.residual_norms) - 1
        return float((last / first) ** (1.0 / steps))


class Solver(Protocol):
    """Common protocol: solve ``A x = b`` from an optional initial guess."""

    def solve(
        self,
        matrix: sp.csr_matrix,
        rhs: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult: ...


class Timer:
    """Tiny context-free stopwatch used for setup/solve accounting.

    Built on :func:`repro.obs.monotonic` — the observability layer owns
    the timing primitive; this class just keeps the lap arithmetic the
    inner PCG loop needs without opening a span per iteration.
    """

    def __init__(self) -> None:
        self._start = monotonic()

    def lap(self) -> float:
        """Seconds since construction or the previous lap."""
        now = monotonic()
        elapsed = now - self._start
        self._start = now
        return elapsed


def check_system(matrix: sp.spmatrix, rhs: np.ndarray) -> sp.csr_matrix:
    """Validate shapes and normalise the matrix to CSR."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    if rhs.ndim != 1 or rhs.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"rhs shape {rhs.shape} incompatible with matrix {matrix.shape}"
        )
    return sp.csr_matrix(matrix)
