"""Unit tests for V/W/K multigrid cycles."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers.amg import AMGOptions, build_hierarchy
from repro.solvers.cycles import CycleOptions, CyclePreconditioner


def laplacian_2d(n: int) -> sp.csr_matrix:
    eye = sp.identity(n)
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    one_d = sp.diags([off, main, off], [-1, 0, 1])
    return sp.csr_matrix(sp.kron(eye, one_d) + sp.kron(one_d, eye))


@pytest.fixture(scope="module")
def problem():
    matrix = laplacian_2d(16)
    rng = np.random.default_rng(3)
    x_true = rng.standard_normal(matrix.shape[0])
    return matrix, x_true, matrix @ x_true


@pytest.fixture(scope="module")
def hierarchy(problem):
    matrix, _, _ = problem
    return build_hierarchy(matrix, AMGOptions(max_coarse_size=30))


def error_after_cycles(hierarchy, problem, options, n_cycles=5):
    matrix, x_true, rhs = problem
    preconditioner = CyclePreconditioner(hierarchy, options)
    x = np.zeros_like(rhs)
    for _ in range(n_cycles):
        x = x + preconditioner.apply(rhs - matrix @ x)
    return float(np.linalg.norm(x - x_true) / np.linalg.norm(x_true))


class TestCycles:
    @pytest.mark.parametrize("cycle", ["v", "k"])
    def test_stationary_iteration_converges(self, hierarchy, problem, cycle):
        err = error_after_cycles(hierarchy, problem, CycleOptions(cycle=cycle))
        assert err < 1e-3

    def test_k_at_least_as_good_as_v(self, hierarchy, problem):
        err_v = error_after_cycles(hierarchy, problem, CycleOptions(cycle="v"), 3)
        err_k = error_after_cycles(hierarchy, problem, CycleOptions(cycle="k"), 3)
        assert err_k <= err_v * 1.05

    def test_zero_residual_maps_to_zero(self, hierarchy, problem):
        matrix, _, _ = problem
        preconditioner = CyclePreconditioner(hierarchy, CycleOptions())
        out = preconditioner.apply(np.zeros(matrix.shape[0]))
        assert np.allclose(out, 0.0)

    def test_jacobi_smoother_works(self, hierarchy, problem):
        err = error_after_cycles(
            hierarchy,
            problem,
            CycleOptions(cycle="v", smoother="jacobi", presmooth_sweeps=2,
                         postsmooth_sweeps=2),
            n_cycles=10,
        )
        assert err < 1e-2

    def test_v_cycle_linear_operator(self, hierarchy, problem):
        """A V-cycle with fixed smoothing is a linear operator."""
        matrix, _, _ = problem
        rng = np.random.default_rng(0)
        preconditioner = CyclePreconditioner(hierarchy, CycleOptions(cycle="v"))
        a = rng.standard_normal(matrix.shape[0])
        b = rng.standard_normal(matrix.shape[0])
        combined = preconditioner.apply(2.0 * a + 3.0 * b)
        separate = 2.0 * preconditioner.apply(a) + 3.0 * preconditioner.apply(b)
        assert np.allclose(combined, separate, atol=1e-10)

    def test_single_level_hierarchy_is_direct_solve(self):
        matrix = laplacian_2d(4)
        hierarchy = build_hierarchy(matrix, AMGOptions(max_coarse_size=10**6))
        assert hierarchy.num_levels == 1
        preconditioner = CyclePreconditioner(hierarchy)
        rhs = np.ones(matrix.shape[0])
        x = preconditioner.apply(rhs)
        assert np.allclose(matrix @ x, rhs, atol=1e-10)


class TestCycleOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [{"cycle": "x"}, {"smoother": "nope"}, {"kcycle_steps": 0}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CycleOptions(**kwargs)
