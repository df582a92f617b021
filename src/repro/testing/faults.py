"""Deterministic fault-injection harness.

Every degradation path in the runtime — NaN residuals, diverging
iterations, singular matrices, NaN losses — must be exercisable on
schedule so tests can assert the *exact* fallback/recovery behaviour.
A :class:`FaultPlan` is an explicit, deterministic schedule (no RNG, no
globals): it is handed to the component under test and records every
injection it performs, so a test can assert both that the fault fired and
that the runtime absorbed it.

Usage::

    plan = FaultPlan(nan_residual={"amg_pcg": 2})
    cascade = FallbackCascade(fault_hook=plan.residual_hook)
    # ... run the cascade; AMG-PCG sees NaN at iteration 2, falls back.
    assert plan.injections == [("amg_pcg", "nan_residual", 2)]

:class:`WorkerFaultPlan` is the process-level counterpart for the
:mod:`repro.core.pool` runtime: it rides into pool workers (pickled with
the job payload) and kills, hangs, slows or transiently fails chosen
items *inside* the worker, so supervision paths — respawn, timeout,
retry, quarantine — are deterministically testable.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

import scipy.sparse as sp


@dataclass
class FaultPlan:
    """Schedule of faults to inject, keyed by component and step.

    Attributes
    ----------
    nan_residual:
        ``{solver_name: iteration}`` — replace the residual norm that the
        guard observes with NaN at the given iteration of that solver.
    divergence:
        ``{solver_name: iteration}`` — from that iteration on, multiply
        the observed residual by an exploding factor so the divergence
        detector trips.
    fail_stage:
        Solver stage names that should raise an injected ``RuntimeError``
        as soon as they observe a residual (simulates a crashing stage,
        e.g. a preconditioner setup bug).
    nan_loss_epochs:
        Training epochs whose mean loss is replaced with NaN (exercises
        NaN-loss recovery in the trainer).
    injections:
        Log of ``(component, kind, step)`` for every fault actually fired.
    """

    nan_residual: dict[str, int] = field(default_factory=dict)
    divergence: dict[str, int] = field(default_factory=dict)
    fail_stage: frozenset[str] | set[str] = field(default_factory=frozenset)
    nan_loss_epochs: frozenset[int] | set[int] = field(default_factory=frozenset)
    injections: list[tuple[str, str, int]] = field(default_factory=list)

    # -- solver-side hooks --------------------------------------------------

    def residual_hook(self, solver: str, iteration: int, value: float) -> float:
        """`FaultHook`-compatible residual corrupter."""
        if solver in self.fail_stage:
            self.injections.append((solver, "stage_error", iteration))
            raise RuntimeError(f"injected failure in stage {solver!r}")
        at = self.nan_residual.get(solver)
        if at is not None and iteration >= at:
            self.injections.append((solver, "nan_residual", iteration))
            return float("nan")
        at = self.divergence.get(solver)
        if at is not None and iteration >= at:
            self.injections.append((solver, "divergence", iteration))
            # Absolute floor: even a nearly-converged residual must read as
            # exploding, or fast solvers would dodge the injection.
            return max(value, 1.0) * 10.0 ** (4 + 2 * (iteration - at))
        return value

    # -- trainer-side hooks -------------------------------------------------

    def loss_hook(self, epoch: int, value: float) -> float:
        """Replace the epoch loss with NaN on scheduled epochs."""
        if epoch in self.nan_loss_epochs:
            self.injections.append(("trainer", "nan_loss", epoch))
            return float("nan")
        return value

    # -- bookkeeping --------------------------------------------------------

    def fired(self, kind: str) -> int:
        """How many injections of *kind* have fired so far."""
        return sum(1 for _, k, _ in self.injections if k == kind)


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Deterministic worker-level chaos for the :mod:`repro.core.pool`.

    All schedules are keyed by the item's submission *index*; attempts
    are 1-based, and every fault except ``slow`` fires on matching
    attempts only (so ``flaky`` with ``attempts={1}`` is "flaky once":
    the retry succeeds).

    Attributes
    ----------
    kill:
        ``{index: attempts}`` — SIGKILL the worker process while it runs
        the item on those attempts (``None`` = every attempt, which
        drives the item to quarantine).
    hang:
        ``{index: attempts}`` — sleep ``hang_seconds`` inside the item,
        far past any sane task timeout (exercises timeout-kill).
    slow:
        ``{index: seconds}`` — sleep that many seconds on every attempt
        (a slow-but-healthy item; must *not* be killed under a generous
        timeout).
    flaky:
        ``{index: attempts}`` — raise a retryable
        :class:`~repro.core.pool.TransientTaskError` on those attempts.
    hang_seconds:
        Sleep used by ``hang`` entries (default 3600 — the pool must
        kill the worker long before it wakes).
    """

    kill: dict[int, frozenset[int] | None] = field(default_factory=dict)
    hang: dict[int, frozenset[int] | None] = field(default_factory=dict)
    slow: dict[int, float] = field(default_factory=dict)
    flaky: dict[int, frozenset[int] | None] = field(default_factory=dict)
    hang_seconds: float = 3600.0

    @staticmethod
    def _matches(attempts: frozenset[int] | None, attempt: int) -> bool:
        return attempts is None or attempt in attempts

    def apply(self, index: int, attempt: int) -> str | None:
        """Fire the scheduled fault for (*index*, *attempt*), if any.

        Runs inside the pool worker just before the item's function.
        Returns the name of a survivable injected fault (``"slow"``,
        ``"hang"`` if it ever returns) so the pool can record it; raises
        for ``flaky``; never returns for a fired ``kill``.
        """
        if index in self.kill and self._matches(self.kill[index], attempt):
            os.kill(os.getpid(), signal.SIGKILL)
        if index in self.flaky and self._matches(self.flaky[index], attempt):
            from repro.core.pool import TransientTaskError  # lazy: no cycle

            raise TransientTaskError(
                f"injected flaky failure (item {index}, attempt {attempt})"
            )
        if index in self.hang and self._matches(self.hang[index], attempt):
            time.sleep(self.hang_seconds)
            return "hang"
        if index in self.slow:
            time.sleep(self.slow[index])
            return "slow"
        return None

    @classmethod
    def from_spec(cls, spec: str) -> "WorkerFaultPlan":
        """Parse a compact chaos spec (the ``REPRO_CHAOS`` format).

        Comma-separated entries, one fault each::

            kill@2        SIGKILL the worker on item 2, every attempt
            kill@2x1      ... on attempt 1 only (the retry survives)
            hang@5        hang item 5 (every attempt)
            flaky@0x1     transient failure on item 0's first attempt
            slow@3:0.5    item 3 sleeps 0.5 s per attempt

        ``WorkerFaultPlan.from_spec("kill@1x1,flaky@3x1")`` is the shape
        CI's chaos-smoke job injects.
        """
        kill: dict[int, frozenset[int] | None] = {}
        hang: dict[int, frozenset[int] | None] = {}
        slow: dict[int, float] = {}
        flaky: dict[int, frozenset[int] | None] = {}
        for raw in spec.split(","):
            entry = raw.strip()
            if not entry:
                continue
            try:
                kind, rest = entry.split("@", 1)
            except ValueError:
                raise ValueError(
                    f"bad chaos entry {entry!r}: expected kind@index"
                ) from None
            kind = kind.strip()
            if kind == "slow":
                index_text, _, seconds_text = rest.partition(":")
                slow[int(index_text)] = float(seconds_text or 1.0)
                continue
            index_text, _, attempt_text = rest.partition("x")
            index = int(index_text)
            attempts = (
                frozenset(int(a) for a in attempt_text.split("+"))
                if attempt_text
                else None
            )
            if kind == "kill":
                kill[index] = attempts
            elif kind == "hang":
                hang[index] = attempts
            elif kind == "flaky":
                flaky[index] = attempts
            else:
                raise ValueError(
                    f"unknown chaos fault {kind!r} in entry {entry!r}"
                )
        return cls(kill=kill, hang=hang, slow=slow, flaky=flaky)


def corrupt_matrix(matrix: sp.spmatrix, row: int = 0) -> sp.csr_matrix:
    """Copy of *matrix* with NaN poisoning one diagonal entry.

    Any mat-vec touching the row propagates NaN into the residual, which
    the guard must catch on the first observation.
    """
    poisoned = sp.csr_matrix(matrix, copy=True).tolil()
    poisoned[row, row] = float("nan")
    return poisoned.tocsr()


def make_singular(matrix: sp.spmatrix, row: int = 0) -> sp.csr_matrix:
    """Copy of *matrix* with one row/column zeroed (exactly singular)."""
    singular = sp.csr_matrix(matrix, copy=True).tolil()
    singular[row, :] = 0.0
    singular[:, row] = 0.0
    return singular.tocsr()
