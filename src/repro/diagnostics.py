"""Run-level diagnostics: what the fault-tolerant runtime did and why.

Aggregates the records produced by the individual protection layers —
validation issues found in the input, repairs applied to make it solvable,
and the solver cascade's attempt/fallback history — into one structure
that rides on :class:`~repro.solvers.powerrush.SimulationReport` and
:class:`~repro.core.pipeline.AnalysisResult` and is surfaced by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import Span
from repro.obs import summary_lines as _span_summary_lines
from repro.solvers.cache import CacheStats
from repro.solvers.guard import SolverDiagnostics
from repro.spice.validate import RepairRecord, ValidationIssue


@dataclass
class RunDiagnostics:
    """Everything non-nominal that happened during one analysis run.

    Attributes
    ----------
    validation:
        Issues detected in the input deck/grid before solving.
    repairs:
        Repairs applied to make the input solvable.
    solver:
        The fallback cascade's attempt history (``None`` when the
        numerical stage was ablated).
    solver_cache:
        AMG setup-cache counter movement attributable to this run
        (``None`` when no solve happened).  ``hits > 0`` means the run
        reused a previously built hierarchy and skipped the setup stage.
    warnings:
        Free-form notes from other stages (feature guards, trainer).
    trace:
        Serialized :class:`repro.obs.Span` tree for the run (the
        ``analyze`` span and its children), as produced by
        ``Span.to_dict``; ``None`` for records that predate the run or
        were built outside the pipeline.
    """

    validation: list[ValidationIssue] = field(default_factory=list)
    repairs: list[RepairRecord] = field(default_factory=list)
    solver: SolverDiagnostics | None = None
    solver_cache: CacheStats | None = None
    warnings: list[str] = field(default_factory=list)
    trace: dict | None = None

    @property
    def degraded(self) -> bool:
        """True when any repair or solver fallback was needed."""
        return bool(self.repairs) or (
            self.solver is not None and self.solver.num_fallbacks > 0
        )

    def to_dict(self) -> dict:
        return {
            "validation": [i.to_dict() for i in self.validation],
            "repairs": [r.to_dict() for r in self.repairs],
            "solver": self.solver.to_dict() if self.solver is not None else None,
            "solver_cache": (
                self.solver_cache.to_dict()
                if self.solver_cache is not None
                else None
            ),
            "warnings": list(self.warnings),
            "degraded": self.degraded,
            "trace": self.trace,
        }

    def summary_lines(self) -> list[str]:
        """Human-readable block for CLI output (always non-empty)."""
        lines = [
            f"diagnostics: degraded={str(self.degraded).lower()} "
            f"issues={len(self.validation)} repairs={len(self.repairs)}"
        ]
        for issue in self.validation:
            lines.append(f"  issue[{issue.kind}]: {issue.message}")
        for repair in self.repairs:
            lines.append(f"  repair[{repair.action}]: {repair.detail}")
        if self.solver is not None:
            lines.append(f"  {self.solver.summary()}")
        if self.solver_cache is not None:
            lines.append(
                f"  amg_setup_cache: hits={self.solver_cache.hits} "
                f"misses={self.solver_cache.misses}"
            )
        for note in self.warnings:
            lines.append(f"  warning: {note}")
        if self.trace is not None:
            for line in _span_summary_lines(Span.from_dict(self.trace)):
                lines.append(f"  {line}")
        return lines
