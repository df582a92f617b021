"""Numerical linear solvers for power-grid systems.

The centrepiece is :class:`~repro.solvers.amg_pcg.AMGPCGSolver`, the
algebraic-multigrid preconditioned conjugate-gradient method the paper
adopts from PowerRush (Fig. 3): aggregation-based AMG with a K-cycle acting
as an implicit preconditioner for CG.  Supporting pieces:

- :mod:`repro.solvers.smoothers` — setup-once Jacobi / symmetric Gauss-Seidel relaxations.
- :mod:`repro.solvers.cg` — plain CG and Jacobi-preconditioned CG.
- :mod:`repro.solvers.amg` — pairwise-aggregation AMG hierarchy.
- :mod:`repro.solvers.cycles` — V-, W- and K-cycle preconditioner application.
- :mod:`repro.solvers.cache` — process-wide AMG setup cache keyed by matrix fingerprint.
- :mod:`repro.solvers.direct` — sparse-LU golden reference solver.
- :mod:`repro.solvers.guard` — iteration guards and the fallback cascade.
- :mod:`repro.solvers.powerrush` — the end-to-end PowerRush-style simulator.
- :mod:`repro.solvers.incremental` — low-rank pad previews and commits for
  :mod:`repro.opt.pad_placement`.
"""

from repro.solvers.amg import AMGHierarchy, AMGLevel, build_hierarchy
from repro.solvers.amg_pcg import AMGPCGSolver
from repro.solvers.base import SolveResult, SolverOptions
from repro.solvers.cg import CGSolver, JacobiPCGSolver
from repro.solvers.cycles import CyclePreconditioner
from repro.solvers.direct import DirectSolver
from repro.solvers.guard import (
    FallbackCascade,
    IterationGuard,
    SolverDiagnostics,
    SolverFailure,
)
from repro.solvers.powerrush import PowerRushSimulator, SimulationReport
from repro.solvers.incremental import (
    AddPad,
    IncrementalEngine,
    IncrementalSolve,
)

__all__ = [
    "AMGHierarchy",
    "AMGLevel",
    "AMGPCGSolver",
    "CGSolver",
    "CyclePreconditioner",
    "DirectSolver",
    "FallbackCascade",
    "IterationGuard",
    "SolverDiagnostics",
    "SolverFailure",
    "AddPad",
    "IncrementalEngine",
    "IncrementalSolve",
    "JacobiPCGSolver",
    "PowerRushSimulator",
    "SimulationReport",
    "SolveResult",
    "SolverOptions",
    "build_hierarchy",
]
