"""Supporting study (Fig. 3 context) — solver convergence comparison.

The residual norm by iteration for CG, Jacobi-PCG and AMG-PCG on one PG
system.  Expected shape: AMG-PCG converges in an order of magnitude
fewer iterations than plain CG — the property that makes rough-but-useful
solutions available after 1-2 iterations.
"""

from __future__ import annotations

from common import bench_config, save_artifact
from repro.core.pipeline import IRFusionPipeline
from repro.eval.report import format_sweep_table
from repro.mna.stamper import build_reduced_system
from repro.solvers.amg_pcg import AMGPCGSolver
from repro.solvers.base import SolverOptions
from repro.solvers.cg import CGSolver, JacobiPCGSolver


def test_solver_convergence_comparison(capsys):
    train_designs, _ = IRFusionPipeline(bench_config()).generate_designs()
    pg_system = build_reduced_system(train_designs[0].grid)
    options = SolverOptions(tol=1e-10, max_iterations=2000)
    solvers = {"CG": CGSolver, "Jacobi-PCG": JacobiPCGSolver, "AMG-PCG": AMGPCGSolver}
    results = {
        name: solver(options).solve(pg_system.matrix, pg_system.rhs)
        for name, solver in solvers.items()
    }
    lines = [
        f"PG system: n={pg_system.size}, nnz={pg_system.matrix.nnz}",
        f"{'solver':<12s} {'iters':>6s} {'relres':>10s}",
    ]
    for name, result in results.items():
        relres = pg_system.relative_residual(result.x)
        lines.append(f"{name:<12s} {result.iterations:>6d} {relres:>10.2e}")
    # residual decay table over the first 12 iterations
    depth = 12
    series = {
        name: (result.residual_norms + [result.residual_norms[-1]] * depth)[
            : depth
        ]
        for name, result in results.items()
    }
    table = format_sweep_table(
        list(range(depth)),
        series,
        title="Residual norm by iteration",
        value_format="{:>10.2e}",
    )
    text = "\n".join(lines) + "\n\n" + table
    save_artifact("solver_convergence.txt", text)
    with capsys.disabled():
        print("\n" + text)

    assert results["AMG-PCG"].converged
    assert results["AMG-PCG"].iterations * 2 < results["CG"].iterations

