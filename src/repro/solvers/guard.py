"""Solver guardrails and the automatic fallback cascade.

The fusion framework tolerates *rough* solutions but not *broken* ones: a
NaN residual, a diverging Krylov iteration or a stalled preconditioner all
poison the numerical feature maps downstream.  This module adds two layers
of protection:

- :class:`IterationGuard` — per-iteration watchdog hooked into the shared
  PCG loop: NaN/Inf residual detection, divergence and stagnation
  detectors, and the cooperative deadline.
- :class:`FallbackCascade` — tries AMG-PCG first and, if it fails, the
  sparse-LU direct solve (the golden reference).  Every attempt and every
  fallback is recorded in a :class:`SolverDiagnostics`, never silent.

A cap-limited non-converged solve is *not* a failure — the paper's rough
regime deliberately stops after 1-10 iterations.  Failure means the guard
tripped, the solver raised, or the iterate contains non-finite entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.obs import counter_add, deadline_remaining, span
from repro.obs.registry import (
    SOLVE_ATTEMPT,
    SOLVER_ATTEMPTS,
    SOLVER_DEADLINE_SKIPS,
    SOLVER_FALLBACKS,
)
from repro.solvers.base import SolveResult, SolverOptions
from repro.solvers.direct import DirectSolver

#: Signature of a fault hook: ``(solver_name, iteration, residual) -> residual``.
#: Used by the deterministic fault-injection harness to corrupt the residual
#: stream a guard observes; production code leaves it ``None``.
FaultHook = Callable[[str, int, float], float]


#: Divergence detector: trip when the residual norm exceeds this multiple
#: of the initial residual (the iteration is exploding, not converging).
DIVERGENCE_FACTOR = 1e6
#: Stagnation detector: trip when the residual fell by less than
#: ``STAGNATION_IMPROVEMENT`` (relative) over ``STAGNATION_WINDOW``
#: consecutive iterations.
STAGNATION_WINDOW = 25
STAGNATION_IMPROVEMENT = 1e-4


class IterationGuard:
    """Stateful per-iteration watchdog for one solve attempt.

    The PCG loop calls :meth:`observe` with each new residual norm; the
    (possibly fault-corrupted) value is returned for the convergence test
    and :attr:`tripped` holds the abort reason once a detector fires.
    *fault_hook* is the fault-injection seam (see :data:`FaultHook`).
    """

    def __init__(
        self, solver_name: str = "solver", fault_hook: FaultHook | None = None
    ) -> None:
        self.solver_name = solver_name
        self.fault_hook = fault_hook
        self.tripped: str | None = None
        self._initial: float | None = None
        self._window: list[float] = []

    def observe(self, iteration: int, residual_norm: float) -> float:
        """Feed one residual norm; returns it (after any fault injection)."""
        if self.fault_hook is not None:
            residual_norm = float(
                self.fault_hook(self.solver_name, iteration, residual_norm)
            )
        if self.tripped is not None:
            return residual_norm
        if not np.isfinite(residual_norm):
            self.tripped = "nan_residual"
            return residual_norm
        if self._initial is None:
            self._initial = max(residual_norm, np.finfo(float).tiny)
            return residual_norm
        if residual_norm > DIVERGENCE_FACTOR * self._initial:
            self.tripped = "diverged"
            return residual_norm
        self._window.append(residual_norm)
        if len(self._window) > STAGNATION_WINDOW:
            oldest = self._window.pop(0)
            if oldest > 0 and (
                1.0 - min(self._window) / oldest
            ) < STAGNATION_IMPROVEMENT:
                self.tripped = "stagnated"
                return residual_norm
        remaining = deadline_remaining()
        if remaining is not None and remaining <= 0.0:
            # The cooperative deadline (batch budget handed down by the
            # worker pool) expired mid-solve: abort this attempt so the
            # cascade can decide what still fits in zero budget.
            self.tripped = "deadline"
        return residual_norm


@dataclass(frozen=True)
class AttemptRecord:
    """One solve attempt inside the cascade (success or failure)."""

    solver: str
    converged: bool
    iterations: int
    final_residual: float
    seconds: float
    aborted: str | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.aborted is not None or self.error is not None

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "converged": self.converged,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "seconds": self.seconds,
            "aborted": self.aborted,
            "error": self.error,
        }


@dataclass
class SolverDiagnostics:
    """Everything the cascade did for one linear system."""

    attempts: list[AttemptRecord] = field(default_factory=list)

    @property
    def fallbacks(self) -> list[str]:
        """The stage handed over to after each failed attempt, in order."""
        return [a.solver for a in self.attempts[1:]]

    @property
    def final_solver(self) -> str | None:
        """Name of the attempt that produced the returned solution."""
        for attempt in reversed(self.attempts):
            if not attempt.failed:
                return attempt.solver
        return None

    @property
    def num_fallbacks(self) -> int:
        return len(self.fallbacks)

    @property
    def budget_seconds(self) -> float:
        """Total wall clock consumed across every attempt."""
        return sum(a.seconds for a in self.attempts)

    def to_dict(self) -> dict:
        return {
            "attempts": [a.to_dict() for a in self.attempts],
            "fallbacks": self.fallbacks,
            "final_solver": self.final_solver,
            "budget_seconds": self.budget_seconds,
        }

    def summary(self) -> str:
        """One-line human-readable record for CLI output."""
        chain = " -> ".join(a.solver for a in self.attempts) or "none"
        return (
            f"solver_chain={chain} final={self.final_solver} "
            f"fallbacks={self.num_fallbacks}"
        )


class SolverFailure(RuntimeError):
    """Raised when both stages of the fallback cascade failed."""

    def __init__(self, message: str, diagnostics: SolverDiagnostics) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


def _attempt_failed(result: SolveResult) -> str | None:
    """Classify a completed solve: abort reason, non-finite iterate, or OK."""
    if result.aborted is not None:
        return result.aborted
    if not np.all(np.isfinite(result.x)):
        return "non_finite_solution"
    return None


class FallbackCascade:
    """AMG-PCG, then sparse LU, guarded.

    Parameters
    ----------
    options:
        Iteration controls for the AMG-PCG attempt.
    amg_options, cycle_options:
        AMG-PCG configuration (defaults used when omitted).
    fault_hook:
        The residual corrupter handed to the AMG-PCG attempt's
        :class:`IterationGuard` (the fault-injection seam).

    The direct stage starts as soon as AMG-PCG fails: both run in this
    process on the same matrix, and whether one fails depends only on its
    inputs, so waiting in between could not change the outcome.
    """

    def __init__(
        self,
        options: SolverOptions | None = None,
        amg_options=None,
        cycle_options=None,
        fault_hook: FaultHook | None = None,
    ) -> None:
        self.options = options or SolverOptions()
        self.amg_options = amg_options
        self.cycle_options = cycle_options
        self.fault_hook = fault_hook

    def solve(
        self,
        matrix: sp.spmatrix,
        rhs: np.ndarray,
        x0: np.ndarray | None = None,
        fingerprint: str | None = None,
    ) -> tuple[SolveResult, SolverDiagnostics]:
        """Solve with automatic degradation; never returns a broken iterate.

        Returns the first healthy :class:`SolveResult` plus the diagnostics
        of every attempt made.  Raises :class:`SolverFailure` only when the
        direct stage also fails (e.g. an exactly singular matrix that
        upstream repair did not catch).  *fingerprint*, the matrix's AMG
        setup-cache key when the caller holds it, goes to AMG-PCG.
        """
        from repro.solvers.amg_pcg import AMGPCGSolver  # lazy: it imports us

        diagnostics = SolverDiagnostics()
        remaining = deadline_remaining()
        if remaining is not None and remaining <= 0.0:
            # The cooperative deadline is already gone: an iterative
            # attempt cannot finish in the remaining budget, so go straight
            # to the direct stage (returning *something* beats nothing).
            counter_add(SOLVER_DEADLINE_SKIPS)
            diagnostics.attempts.append(
                AttemptRecord(
                    solver="amg_pcg",
                    converged=False,
                    iterations=0,
                    final_residual=float("nan"),
                    seconds=0.0,
                    aborted="deadline_skipped",
                )
            )
        else:
            primary = AMGPCGSolver(
                options=self.options,
                amg_options=self.amg_options,
                cycle_options=self.cycle_options,
            )
            guard = IterationGuard("amg_pcg", self.fault_hook)
            result = _attempt(
                diagnostics,
                "amg_pcg",
                lambda: primary.solve(
                    matrix, rhs, x0=x0, guard=guard, fingerprint=fingerprint
                ),
            )
            if result is not None:
                return result, diagnostics
        counter_add(SOLVER_FALLBACKS)
        result = _attempt(
            diagnostics, "direct", lambda: DirectSolver().solve(matrix, rhs, x0=x0)
        )
        if result is not None:
            return result, diagnostics
        raise SolverFailure(
            "all solver stages failed: "
            + "; ".join(
                f"{a.solver}={a.aborted or a.error}" for a in diagnostics.attempts
            ),
            diagnostics,
        )


def _attempt(
    diagnostics: SolverDiagnostics, name: str, run: Callable[[], SolveResult]
) -> SolveResult | None:
    """Run one stage under its span; record it; return it if healthy."""
    counter_add(SOLVER_ATTEMPTS)
    with span(SOLVE_ATTEMPT, solver=name) as attempt_span:
        try:
            result = run()
        except Exception as exc:  # noqa: BLE001 — any stage error degrades
            attempt_span.close()
            attempt_span.attrs["outcome"] = "error"
            diagnostics.attempts.append(
                AttemptRecord(
                    solver=name,
                    converged=False,
                    iterations=0,
                    final_residual=float("nan"),
                    seconds=attempt_span.duration,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            return None
        reason = _attempt_failed(result)
        attempt_span.close()
        attempt_span.attrs["outcome"] = reason or "ok"
        diagnostics.attempts.append(
            AttemptRecord(
                solver=name,
                converged=result.converged,
                iterations=result.iterations,
                final_residual=result.final_residual,
                seconds=attempt_span.duration,
                aborted=reason,
            )
        )
    return None if reason is not None else result
