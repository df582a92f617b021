"""Numerical linear solvers for power-grid systems.

The centrepiece is :class:`~repro.solvers.amg_pcg.AMGPCGSolver`, the
algebraic-multigrid preconditioned conjugate-gradient method the paper
adopts from PowerRush (Fig. 3): aggregation-based AMG with a K-cycle acting
as an implicit preconditioner for CG.  Supporting pieces:

- :mod:`repro.solvers.smoothers` — setup-once Jacobi / symmetric Gauss-Seidel relaxations.
- :mod:`repro.solvers.cg` — plain CG and Jacobi-preconditioned CG.
- :mod:`repro.solvers.amg` — pairwise-aggregation AMG hierarchy.
- :mod:`repro.solvers.cycles` — V-, W- and K-cycle preconditioner application.
- :mod:`repro.solvers.direct` — sparse-LU golden reference solver.
- :mod:`repro.solvers.powerrush` — the end-to-end PowerRush-style simulator.
"""

from repro.solvers.amg import AMGHierarchy, AMGLevel, build_hierarchy
from repro.solvers.amg_pcg import AMGPCGSolver
from repro.solvers.base import SolveResult, SolverOptions
from repro.solvers.cg import CGSolver, JacobiPCGSolver
from repro.solvers.cycles import CyclePreconditioner
from repro.solvers.direct import DirectSolver
from repro.solvers.guard import (
    FallbackCascade,
    GuardrailOptions,
    IterationGuard,
    SolverDiagnostics,
    SolverFailure,
)
from repro.solvers.powerrush import PowerRushSimulator, SimulationReport
from repro.solvers.incremental import (
    AddPad,
    GridDelta,
    IncrementalAnalyzer,
    IncrementalEngine,
    IncrementalOptions,
    IncrementalSolve,
    RemovePad,
    ReviseLoads,
    ScaleWire,
    SetWireResistance,
)
from repro.solvers.macromodel import SchurReduction, layer_port_rows
from repro.solvers.schwarz import AdditiveSchwarzPreconditioner, SchwarzPCGSolver
from repro.solvers.random_walk import RandomWalkOptions, RandomWalkSolver
from repro.solvers.vectored import VectoredAnalyzer, VectoredResult

__all__ = [
    "AMGHierarchy",
    "AMGLevel",
    "AMGPCGSolver",
    "CGSolver",
    "CyclePreconditioner",
    "DirectSolver",
    "FallbackCascade",
    "GuardrailOptions",
    "IterationGuard",
    "SolverDiagnostics",
    "SolverFailure",
    "AddPad",
    "GridDelta",
    "IncrementalAnalyzer",
    "IncrementalEngine",
    "IncrementalOptions",
    "IncrementalSolve",
    "RemovePad",
    "ReviseLoads",
    "ScaleWire",
    "SetWireResistance",
    "JacobiPCGSolver",
    "PowerRushSimulator",
    "RandomWalkOptions",
    "RandomWalkSolver",
    "AdditiveSchwarzPreconditioner",
    "SchurReduction",
    "SchwarzPCGSolver",
    "layer_port_rows",
    "SimulationReport",
    "SolveResult",
    "SolverOptions",
    "VectoredAnalyzer",
    "VectoredResult",
    "build_hierarchy",
]
