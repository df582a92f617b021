"""Unit tests for the AMG-PCG solver (the PowerRush core)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.mna.stamper import build_reduced_system
from repro.solvers.amg import AMGOptions
from repro.solvers.amg_pcg import AMGPCGSolver
from repro.solvers.base import SolverOptions
from repro.solvers.cache import clear_setup_cache
from repro.solvers.cg import CGSolver


def _tridiag(n: int, scale: float = 1.0) -> sp.coo_matrix:
    """SPD tridiagonal system in COO form.

    COO on purpose: the hierarchy stores the CSR conversion, so the COO
    wrapper itself is collectable — which is what lets the address-reuse
    regression test below actually recreate the stale-``id`` scenario.
    """
    main = np.full(n, 2.0 * scale)
    off = np.full(n - 1, -scale)
    return sp.coo_matrix(sp.diags([off, main, off], [-1, 0, 1]))


@pytest.fixture(scope="module")
def pg_system(fake_design):
    return build_reduced_system(fake_design.grid)


class TestAMGPCG:
    def test_converges_to_tight_tolerance(self, pg_system):
        solver = AMGPCGSolver(SolverOptions(tol=1e-12))
        result = solver.solve(pg_system.matrix, pg_system.rhs)
        assert result.converged
        assert pg_system.relative_residual(result.x) < 1e-10

    def test_far_fewer_iterations_than_cg(self, pg_system):
        options = SolverOptions(tol=1e-10, max_iterations=10_000)
        cg = CGSolver(options).solve(pg_system.matrix, pg_system.rhs)
        amg = AMGPCGSolver(options).solve(pg_system.matrix, pg_system.rhs)
        assert amg.converged and cg.converged
        assert amg.iterations < cg.iterations / 2

    def test_rough_solution_at_two_iterations(self, pg_system):
        solver = AMGPCGSolver(SolverOptions(max_iterations=2, tol=1e-14))
        result = solver.solve(pg_system.matrix, pg_system.rhs)
        assert result.iterations == 2
        # rough but meaningful: at least two orders below the initial residual
        assert result.residual_norms[-1] < result.residual_norms[0] * 1e-1

    def test_monotone_error_with_iterations(self, pg_system):
        import scipy.sparse.linalg as sla

        exact = np.asarray(sla.spsolve(pg_system.matrix.tocsc(), pg_system.rhs))
        errors = []
        for budget in (1, 3, 6):
            solver = AMGPCGSolver(SolverOptions(max_iterations=budget, tol=1e-16))
            result = solver.solve(pg_system.matrix, pg_system.rhs)
            errors.append(np.linalg.norm(result.x - exact))
        assert errors[0] > errors[1] > errors[2]

    def test_hierarchy_cached_between_solves(self, pg_system):
        solver = AMGPCGSolver(SolverOptions(max_iterations=2))
        solver.solve(pg_system.matrix, pg_system.rhs)
        first = solver.hierarchy
        solver.solve(pg_system.matrix, pg_system.rhs)
        assert solver.hierarchy is first

    def test_hierarchy_rebuilt_for_new_matrix(self, pg_system, real_design):
        solver = AMGPCGSolver(SolverOptions(max_iterations=2))
        solver.solve(pg_system.matrix, pg_system.rhs)
        first = solver.hierarchy
        other = build_reduced_system(real_design.grid)
        solver.solve(other.matrix, other.rhs)
        assert solver.hierarchy is not first

    def test_setup_time_accounted(self, pg_system):
        solver = AMGPCGSolver(SolverOptions(max_iterations=2))
        result = solver.solve(pg_system.matrix, pg_system.rhs)
        assert result.setup_seconds >= 0.0

    def test_custom_amg_options(self, pg_system):
        solver = AMGPCGSolver(
            SolverOptions(tol=1e-10),
            amg_options=AMGOptions(max_coarse_size=16, passes_per_level=1),
        )
        result = solver.solve(pg_system.matrix, pg_system.rhs)
        assert result.converged

    def test_initial_guess_respected(self, pg_system):
        import scipy.sparse.linalg as sla

        exact = np.asarray(sla.spsolve(pg_system.matrix.tocsc(), pg_system.rhs))
        solver = AMGPCGSolver(SolverOptions(tol=1e-8))
        result = solver.solve(pg_system.matrix, pg_system.rhs, x0=exact)
        assert result.iterations == 0


class TestSetupReuse:
    """The identity fast path and the setup-seconds accounting contract."""

    def test_address_reuse_never_resurrects_stale_setup(self):
        # Regression: the fast path used to key on the raw ``id()`` of
        # the last matrix without holding a reference.  Once that matrix
        # was garbage collected, CPython could hand its address to a
        # *different* matrix, silently reusing the stale preconditioner.
        clear_setup_cache()
        solver = AMGPCGSolver(SolverOptions(max_iterations=2))
        matrix = _tridiag(48, scale=1.0)
        solver.setup(matrix)
        first_hierarchy = solver.hierarchy
        stale_id = id(matrix)
        del matrix
        # Recreate the address-reuse scenario: allocate equal-shaped
        # matrices until one lands on the dead wrapper's address.  With
        # the fix the solver keeps the original alive, so a collision is
        # impossible and the loop falls through to a plain fresh matrix —
        # either way, setup must rebuild for the new values.
        candidate = None
        for _ in range(4096):
            candidate = _tridiag(48, scale=3.0)
            if id(candidate) == stale_id:
                break
            candidate = None
        if candidate is None:
            candidate = _tridiag(48, scale=3.0)
        preconditioner = solver.setup(candidate)
        assert solver.hierarchy is not first_hierarchy
        np.testing.assert_array_equal(
            preconditioner.hierarchy.levels[0].matrix.toarray(),
            candidate.toarray(),
        )

    def test_setup_seconds_zero_on_same_object_reuse(self, pg_system):
        # Accounting contract: a reused setup costs nothing, so it must
        # report nothing — the old code re-billed the original build to
        # every subsequent solve.
        clear_setup_cache()
        solver = AMGPCGSolver(SolverOptions(max_iterations=2))
        first = solver.solve(pg_system.matrix, pg_system.rhs)
        second = solver.solve(pg_system.matrix, pg_system.rhs)
        assert first.setup_seconds > 0.0
        assert second.setup_seconds == 0.0

    def test_fingerprint_hit_reports_lookup_not_build(self):
        clear_setup_cache()
        matrix = _tridiag(400).tocsr()
        rhs = np.ones(400)
        try:
            cold = AMGPCGSolver(SolverOptions(max_iterations=2))
            cold_result = cold.solve(matrix, rhs)
            assert not cold.last_setup_was_cache_hit

            warm = AMGPCGSolver(SolverOptions(max_iterations=2))
            warm_result = warm.solve(matrix.copy(), rhs)
            assert warm.last_setup_was_cache_hit
            # A hit reports just the hash-and-lookup time: positive, but
            # well under the cold build it skipped.
            assert 0.0 < warm_result.setup_seconds < cold_result.setup_seconds
        finally:
            clear_setup_cache()
