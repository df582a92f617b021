"""Unit tests for relaxation smoothers."""

import numpy as np
import pytest
import scipy.sparse as sp

from tests.reference_smoothers import gauss_seidel, get_smoother, jacobi, sor


@pytest.fixture()
def spd_system(rng):
    n = 30
    main = 4.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    matrix = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    x_true = rng.standard_normal(n)
    return matrix, matrix @ x_true, x_true


def error(matrix, rhs, x, x_true):
    return np.linalg.norm(x - x_true)


class TestJacobi:
    def test_reduces_error(self, spd_system):
        matrix, rhs, x_true = spd_system
        x0 = np.zeros_like(rhs)
        x1 = jacobi(matrix, rhs, x0, sweeps=5)
        assert error(matrix, rhs, x1, x_true) < error(matrix, rhs, x0, x_true)

    def test_more_sweeps_better(self, spd_system):
        matrix, rhs, x_true = spd_system
        x0 = np.zeros_like(rhs)
        e1 = error(matrix, rhs, jacobi(matrix, rhs, x0, 2), x_true)
        e2 = error(matrix, rhs, jacobi(matrix, rhs, x0, 10), x_true)
        assert e2 < e1

    def test_fixed_point_is_solution(self, spd_system):
        matrix, rhs, x_true = spd_system
        out = jacobi(matrix, rhs, x_true.copy(), sweeps=3)
        assert np.allclose(out, x_true)

    def test_zero_diagonal_rejected(self):
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ValueError):
            jacobi(matrix, np.ones(2), np.zeros(2))

    def test_does_not_mutate_input(self, spd_system):
        matrix, rhs, _ = spd_system
        x0 = np.zeros_like(rhs)
        jacobi(matrix, rhs, x0, sweeps=1)
        assert np.all(x0 == 0.0)


class TestGaussSeidel:
    @pytest.mark.parametrize("direction", ["forward", "backward", "symmetric"])
    def test_reduces_error(self, spd_system, direction):
        matrix, rhs, x_true = spd_system
        x0 = np.zeros_like(rhs)
        x1 = gauss_seidel(matrix, rhs, x0, sweeps=3, direction=direction)
        assert error(matrix, rhs, x1, x_true) < error(matrix, rhs, x0, x_true)

    def test_converges_to_solution(self, spd_system):
        matrix, rhs, x_true = spd_system
        x = np.zeros_like(rhs)
        x = gauss_seidel(matrix, rhs, x, sweeps=200)
        assert np.allclose(x, x_true, atol=1e-8)

    def test_faster_than_jacobi(self, spd_system):
        matrix, rhs, x_true = spd_system
        x0 = np.zeros_like(rhs)
        e_gs = error(matrix, rhs, gauss_seidel(matrix, rhs, x0, 5), x_true)
        e_j = error(matrix, rhs, jacobi(matrix, rhs, x0, 5), x_true)
        assert e_gs < e_j

    def test_bad_direction_rejected(self, spd_system):
        matrix, rhs, _ = spd_system
        with pytest.raises(ValueError):
            gauss_seidel(matrix, rhs, np.zeros_like(rhs), direction="up")


class TestSOR:
    def test_reduces_error(self, spd_system):
        matrix, rhs, x_true = spd_system
        x0 = np.zeros_like(rhs)
        x1 = sor(matrix, rhs, x0, sweeps=5, omega=1.2)
        assert error(matrix, rhs, x1, x_true) < error(matrix, rhs, x0, x_true)

    def test_omega_one_equals_gauss_seidel(self, spd_system):
        matrix, rhs, _ = spd_system
        x0 = np.zeros_like(rhs)
        assert np.allclose(
            sor(matrix, rhs, x0, 3, omega=1.0),
            gauss_seidel(matrix, rhs, x0, 3, direction="forward"),
        )

    @pytest.mark.parametrize("omega", [0.0, 2.0, -1.0])
    def test_omega_bounds(self, spd_system, omega):
        matrix, rhs, _ = spd_system
        with pytest.raises(ValueError):
            sor(matrix, rhs, np.zeros_like(rhs), omega=omega)


def test_get_smoother_lookup():
    assert get_smoother("jacobi") is jacobi
    with pytest.raises(ValueError):
        get_smoother("nope")


def test_docstring_names_the_functions_as_the_reference_not_the_fast_path():
    from tests import reference_smoothers as smoothers

    assert "fast enough" not in smoothers.__doc__
    assert "reference" in smoothers.__doc__

