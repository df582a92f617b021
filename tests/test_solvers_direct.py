"""Unit tests for the direct (golden) solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.mna.stamper import build_reduced_system
from repro.solvers.direct import DirectSolver


class TestDirectSolver:
    def test_exact_on_pg_system(self, fake_design):
        system = build_reduced_system(fake_design.grid)
        result = DirectSolver().solve(system.matrix, system.rhs)
        assert result.converged
        assert system.relative_residual(result.x) < 1e-12

    def test_refactors_for_new_matrix(self, fake_design, real_design):
        a = build_reduced_system(fake_design.grid)
        b = build_reduced_system(real_design.grid)
        solver = DirectSolver()
        solver.solve(a.matrix, a.rhs)
        assert b.relative_residual(solver.solve(b.matrix, b.rhs).x) < 1e-12

    def test_matrix_changed_in_place_is_refactored(self, fake_design):
        """One instance, one matrix object, new values: the second solve
        must see them (a factor keyed by ``id(matrix)`` would not)."""
        system = build_reduced_system(fake_design.grid)
        matrix = system.matrix.copy()
        solver = DirectSolver()
        x1 = solver.solve(matrix, system.rhs).x
        matrix.data *= 2.0
        x2 = solver.solve(matrix, system.rhs).x
        np.testing.assert_allclose(x2, x1 / 2.0, rtol=1e-10)
        assert np.linalg.norm(matrix @ x2 - system.rhs) < 1e-10 * np.linalg.norm(
            system.rhs
        )

    def test_linear_in_rhs(self, fake_design):
        system = build_reduced_system(fake_design.grid)
        solver = DirectSolver()
        x1 = solver.solve(system.matrix, system.rhs).x
        x2 = solver.solve(system.matrix, 2.0 * system.rhs).x
        assert np.allclose(x2, 2.0 * x1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DirectSolver().solve(sp.eye(3, format="csr"), np.ones(2))
