"""Tests for solver guardrails and the fallback cascade (fault-injected)."""

import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.mna.stamper import build_reduced_system
from repro.solvers import guard as guard_module
from repro.solvers.cg import CGSolver, JacobiPCGSolver
from repro.solvers.direct import DirectSolver
from repro.solvers.guard import FallbackCascade, IterationGuard, SolverFailure
from repro.testing.faults import FaultPlan, corrupt_matrix, make_singular


def small_spd(n: int = 12) -> tuple[sp.csr_matrix, np.ndarray]:
    """A small SPD tridiagonal system (1D resistor chain)."""
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    matrix = sp.diags([off, main, off], offsets=(-1, 0, 1)).tocsr()
    rhs = np.linspace(0.1, 1.0, n)
    return matrix, rhs


class TestIterationGuard:
    def test_nan_residual_trips(self):
        guard = IterationGuard()
        guard.observe(0, 1.0)
        guard.observe(1, float("nan"))
        assert guard.tripped == "nan_residual"

    def test_divergence_trips(self, monkeypatch):
        monkeypatch.setattr(guard_module, "DIVERGENCE_FACTOR", 10.0)
        guard = IterationGuard()
        guard.observe(0, 1.0)
        guard.observe(1, 5.0)
        assert guard.tripped is None
        guard.observe(2, 100.0)
        assert guard.tripped == "diverged"

    def test_stagnation_trips(self, monkeypatch):
        monkeypatch.setattr(guard_module, "STAGNATION_WINDOW", 3)
        monkeypatch.setattr(guard_module, "STAGNATION_IMPROVEMENT", 0.01)
        guard = IterationGuard()
        guard.observe(0, 1.0)
        for i in range(1, 10):
            guard.observe(i, 0.5)  # zero progress forever
            if guard.tripped:
                break
        assert guard.tripped == "stagnated"

    def test_healthy_convergence_never_trips(self):
        guard = IterationGuard()
        norms = [10.0 * 0.5**k for k in range(30)]
        for i, norm in enumerate(norms):
            guard.observe(i, norm)
        assert guard.tripped is None

    def test_expired_deadline_trips(self):
        from repro.obs import deadline_scope

        with deadline_scope(0.0):
            guard = IterationGuard()
            guard.observe(0, 1.0)
            guard.observe(1, 0.9)
        assert guard.tripped == "deadline"

    def test_nan_budget_cannot_loosen_an_expired_deadline(self):
        from repro.obs import deadline_remaining, deadline_scope

        with deadline_scope(0.0):
            with pytest.raises(ValueError, match="nan"):
                with deadline_scope(float("nan")):
                    pass
            assert deadline_remaining() <= 0.0

    def test_generous_deadline_never_trips(self):
        from repro.obs import deadline_scope

        with deadline_scope(3600.0):
            guard = IterationGuard()
            for i, norm in enumerate(10.0 * 0.5 ** np.arange(20)):
                guard.observe(i, float(norm))
        assert guard.tripped is None


class TestGuardedPCG:
    def test_nan_matrix_aborts_not_raises(self):
        matrix, rhs = small_spd()
        poisoned = corrupt_matrix(matrix, row=3)
        result = CGSolver().solve(poisoned, rhs, guard=IterationGuard())
        assert result.aborted == "nan_residual"
        assert not result.converged

    def test_clean_solve_unaffected_by_guard(self):
        matrix, rhs = small_spd()
        guarded = JacobiPCGSolver().solve(matrix, rhs, guard=IterationGuard())
        plain = JacobiPCGSolver().solve(matrix, rhs)
        assert guarded.aborted is None
        assert guarded.converged
        np.testing.assert_allclose(guarded.x, plain.x)

    def test_fault_hook_corrupts_on_schedule(self):
        matrix, rhs = small_spd()
        plan = FaultPlan(nan_residual={"cg": 2})
        guard = IterationGuard("cg", fault_hook=plan.residual_hook)
        result = CGSolver().solve(matrix, rhs, guard=guard)
        assert result.aborted == "nan_residual"
        assert result.iterations == 2
        assert plan.fired("nan_residual") == 1


def assert_every_named_stage_fired(plan: FaultPlan) -> None:
    """A plan naming a stage the cascade never runs must fail, not pass."""
    named = set(plan.nan_residual) | set(plan.divergence) | set(plan.fail_stage)
    assert {stage for stage, _, _ in plan.injections} == named


class TestFallbackCascade:
    def test_healthy_system_single_attempt(self):
        matrix, rhs = small_spd()
        result, diagnostics = FallbackCascade().solve(matrix, rhs)
        assert result.converged
        assert [a.solver for a in diagnostics.attempts] == ["amg_pcg"]
        assert diagnostics.fallbacks == []
        assert diagnostics.final_solver == "amg_pcg"

    def test_forced_amg_divergence_falls_back_to_direct(self, monkeypatch):
        matrix, rhs = small_spd()
        plan = FaultPlan(divergence={"amg_pcg": 1})
        monkeypatch.setattr(guard_module, "DIVERGENCE_FACTOR", 10.0)
        cascade = FallbackCascade(fault_hook=plan.residual_hook)
        result, diagnostics = cascade.solve(matrix, rhs)
        assert_every_named_stage_fired(plan)
        assert result.converged
        assert np.all(np.isfinite(result.x))
        # The degradation chain is observable, in order.
        assert [a.solver for a in diagnostics.attempts] == ["amg_pcg", "direct"]
        assert diagnostics.fallbacks == ["direct"]
        assert diagnostics.final_solver == "direct"
        assert diagnostics.num_fallbacks == 1
        assert diagnostics.attempts[0].aborted == "diverged"

    def test_nan_residual_fault_degrades(self):
        matrix, rhs = small_spd()
        plan = FaultPlan(nan_residual={"amg_pcg": 1})
        cascade = FallbackCascade(fault_hook=plan.residual_hook)
        result, diagnostics = cascade.solve(matrix, rhs)
        assert_every_named_stage_fired(plan)
        assert result.converged
        assert [a.solver for a in diagnostics.attempts] == ["amg_pcg", "direct"]
        assert diagnostics.attempts[0].aborted == "nan_residual"
        assert diagnostics.final_solver == "direct"

    def test_injected_stage_error_recorded(self):
        matrix, rhs = small_spd()
        plan = FaultPlan(fail_stage={"amg_pcg"})
        cascade = FallbackCascade(fault_hook=plan.residual_hook)
        result, diagnostics = cascade.solve(matrix, rhs)
        assert_every_named_stage_fired(plan)
        assert result.converged
        assert [a.solver for a in diagnostics.attempts] == ["amg_pcg", "direct"]
        assert diagnostics.attempts[0].error is not None
        assert "injected" in diagnostics.attempts[0].error

    def test_zero_diagonal_is_one_value_error_and_degrades(self):
        # 100 unknowns: above max_coarse_size, so the hierarchy has levels
        # to relax on and the check runs when their smoothers are built.
        n = 100
        matrix = sp.diags(
            [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], offsets=(-1, 0, 1)
        ).tolil()
        matrix[7, 7] = 0.0
        matrix = matrix.tocsr()
        rhs = np.linspace(0.1, 1.0, n)
        result, diagnostics = FallbackCascade().solve(matrix, rhs)
        assert [a.solver for a in diagnostics.attempts] == ["amg_pcg", "direct"]
        error = diagnostics.attempts[0].error
        assert error.startswith("ValueError: relaxation on AMG level 0")
        assert error.endswith("row 7")
        assert diagnostics.fallbacks == ["direct"]
        assert diagnostics.final_solver == "direct"
        assert np.allclose(matrix @ result.x, rhs)

    def test_singular_system_raises_solver_failure_with_diagnostics(self):
        matrix, rhs = small_spd()
        singular = make_singular(matrix, row=0)
        rhs = rhs.copy()
        rhs[0] = 1.0  # inconsistent: no solution exists
        with pytest.raises(SolverFailure) as excinfo:
            FallbackCascade().solve(singular, rhs)
        diagnostics = excinfo.value.diagnostics
        assert [a.solver for a in diagnostics.attempts] == ["amg_pcg", "direct"]
        assert all(a.failed for a in diagnostics.attempts)

    def test_diagnostics_serialise(self):
        matrix, rhs = small_spd()
        _, diagnostics = FallbackCascade().solve(matrix, rhs)
        payload = diagnostics.to_dict()
        assert payload["final_solver"] == "amg_pcg"
        assert payload["fallbacks"] == []
        assert "solver_chain=" in diagnostics.summary()

    def test_fallback_stages_start_without_waiting(self, monkeypatch):
        # Both stages run in this process on the same matrix and fail only
        # on their inputs, so a wait between them cannot change the chain;
        # it would only spend the caller's deadline.
        caller = threading.get_ident()
        sleeps = []
        real_sleep = time.sleep

        def recording_sleep(seconds):
            if threading.get_ident() == caller:
                sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", recording_sleep)
        matrix, rhs = small_spd()
        plan = FaultPlan(nan_residual={"amg_pcg": 1})
        cascade = FallbackCascade(fault_hook=plan.residual_hook)
        result, diagnostics = cascade.solve(matrix, rhs)
        assert_every_named_stage_fired(plan)
        assert [a.solver for a in diagnostics.attempts] == ["amg_pcg", "direct"]
        assert diagnostics.final_solver == "direct"
        assert np.allclose(matrix @ result.x, rhs)
        assert sleeps == []
        assert diagnostics.budget_seconds == sum(
            a.seconds for a in diagnostics.attempts
        )

    def test_expired_deadline_short_circuits_to_direct(self):
        from repro.obs import deadline_scope

        matrix, rhs = small_spd()
        with deadline_scope(0.0):
            result, diagnostics = FallbackCascade().solve(matrix, rhs)
        assert np.all(np.isfinite(result.x))
        # AMG-PCG is skipped without running; the direct stage always runs
        # so the caller still gets a solution.
        assert [a.solver for a in diagnostics.attempts] == ["amg_pcg", "direct"]
        skipped = diagnostics.attempts[0]
        assert skipped.aborted == "deadline_skipped"
        assert skipped.seconds == 0.0
        assert diagnostics.final_solver == "direct"

    def test_live_deadline_runs_normally(self):
        from repro.obs import deadline_scope

        matrix, rhs = small_spd()
        with deadline_scope(3600.0):
            result, diagnostics = FallbackCascade().solve(matrix, rhs)
        assert result.converged
        assert [a.solver for a in diagnostics.attempts] == ["amg_pcg"]


class TestSimulatorIntegration:
    def test_robust_simulation_with_all_krylov_stages_failing(self, tiny_netlist):
        from repro.solvers.powerrush import PowerRushSimulator

        plan = FaultPlan(nan_residual={"amg_pcg": 1})
        simulator = PowerRushSimulator(fault_hook=plan.residual_hook)
        report = simulator.simulate_netlist(tiny_netlist)
        assert_every_named_stage_fired(plan)
        assert np.all(np.isfinite(report.ir_drop))
        solver_diag = report.diagnostics.solver
        assert solver_diag.final_solver == "direct"
        assert solver_diag.num_fallbacks == 1
        assert report.diagnostics.degraded

    def test_faulted_rough_solve_gets_the_direct_answer(self, tiny_netlist):
        # A k-capped rough solve whose AMG-PCG attempt faults is answered
        # by sparse LU: exact, not k iterations.
        from repro.solvers.powerrush import PowerRushSimulator

        plan = FaultPlan(nan_residual={"amg_pcg": 1})
        simulator = PowerRushSimulator(
            max_iterations=3, fault_hook=plan.residual_hook
        )
        report = simulator.simulate_netlist(tiny_netlist)
        assert_every_named_stage_fired(plan)
        system = report.system
        exact = DirectSolver().solve(system.matrix, system.rhs)
        assert report.diagnostics.solver.final_solver == "direct"
        assert report.solve.converged
        assert np.array_equal(report.solve.x, exact.x)

    def test_limit_grid_the_primary_cannot_solve_gets_the_lu_answer(self):
        # Near-shorted vias (1e-4 ohm) beside 400 ohm/um wires jittered by
        # up to 99%: AMG-PCG stagnates at tol 1e-10.  The answer must be
        # sparse LU's, bit for bit, not a loosened iterative one.
        from repro.data.synthetic import generate_design, make_real_spec
        from repro.solvers.powerrush import PowerRushSimulator

        design = generate_design(make_real_spec(
            "limit", 1, pixels=48, resistance_jitter=0.99,
            via_resistance=1e-4, resistance_per_um=400.0, stripe_dropout=0.0,
        ))
        report = PowerRushSimulator(preset="quality", tol=1e-10).simulate_grid(
            design.grid
        )
        diagnostics = report.diagnostics.solver
        assert [a.solver for a in diagnostics.attempts] == ["amg_pcg", "direct"]
        assert diagnostics.attempts[0].aborted == "stagnated"
        assert report.solve.converged
        system = report.system
        exact = DirectSolver().solve(system.matrix, system.rhs)
        assert np.array_equal(report.solve.x, exact.x)
        assert np.array_equal(report.voltages, system.scatter(exact.x))

    def test_reduced_system_solution_matches_strict(self, tiny_netlist):
        from repro.grid.netlist import PowerGrid
        from repro.solvers.powerrush import PowerRushSimulator

        report = PowerRushSimulator().simulate_netlist(tiny_netlist)
        system = build_reduced_system(PowerGrid.from_netlist(tiny_netlist))
        exact = DirectSolver().solve(system.matrix, system.rhs)
        np.testing.assert_allclose(report.voltages, system.scatter(exact.x))
