"""Unit tests for the aggregation AMG hierarchy."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.synthetic import generate_design, make_fake_spec
from repro.mna.stamper import build_reduced_system
from repro.solvers.amg import (
    AMGOptions,
    aggregation_to_prolongation,
    build_hierarchy,
    coarsen_once,
    pairwise_aggregate,
)
from repro.solvers.amg_pcg import AMGPCGSolver
from repro.solvers.base import SolverOptions
from repro.solvers.powerrush import PRESETS, PowerRushSimulator


def laplacian_2d(n: int) -> sp.csr_matrix:
    """5-point Laplacian on an n x n grid with Dirichlet boundary."""
    eye = sp.identity(n)
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    one_d = sp.diags([off, main, off], [-1, 0, 1])
    return sp.csr_matrix(sp.kron(eye, one_d) + sp.kron(one_d, eye))


class TestPairwiseAggregate:
    def test_covers_all_nodes(self):
        matrix = laplacian_2d(8)
        agg = pairwise_aggregate(matrix, 0.25)
        assert agg.min() == 0
        assert (agg >= 0).all()

    def test_ids_dense(self):
        matrix = laplacian_2d(8)
        agg = pairwise_aggregate(matrix, 0.25)
        assert set(agg) == set(range(agg.max() + 1))

    def test_tied_mesh_is_perfectly_paired(self):
        # Every coupling ties; the binary-buddy tie key pairs each node
        # with a neighbour, so no node is left to join a pair.
        matrix = laplacian_2d(8)
        agg = pairwise_aggregate(matrix, 0.25)
        counts = np.bincount(agg)
        assert (counts == 2).all()

    def test_coarsens_roughly_by_half(self):
        matrix = laplacian_2d(12)
        agg = pairwise_aggregate(matrix, 0.25)
        ratio = (agg.max() + 1) / matrix.shape[0]
        assert 0.5 <= ratio <= 0.7

    def test_diagonal_matrix_all_singletons(self):
        matrix = sp.identity(10, format="csr")
        agg = pairwise_aggregate(matrix, 0.25)
        assert agg.max() + 1 == 10


class TestProlongation:
    def test_piecewise_constant(self):
        agg = np.array([0, 0, 1, 2, 1])
        p = aggregation_to_prolongation(agg)
        assert p.shape == (5, 3)
        assert np.array_equal(p.toarray().sum(axis=1), np.ones(5))

    def test_galerkin_preserves_symmetry(self):
        matrix = laplacian_2d(8)
        _, coarse = coarsen_once(matrix, AMGOptions())
        dense = coarse.toarray()
        assert np.allclose(dense, dense.T)

    def test_galerkin_preserves_positive_definiteness(self):
        matrix = laplacian_2d(8)
        _, coarse = coarsen_once(matrix, AMGOptions())
        assert np.linalg.eigvalsh(coarse.toarray()).min() > 0

    def test_double_pairwise_coarsens_by_about_four(self):
        matrix = laplacian_2d(16)
        _, coarse = coarsen_once(matrix, AMGOptions(passes_per_level=2))
        ratio = matrix.shape[0] / coarse.shape[0]
        assert 3.0 <= ratio <= 4.5


class TestHierarchy:
    def test_levels_shrink(self):
        hierarchy = build_hierarchy(laplacian_2d(16), AMGOptions(max_coarse_size=20))
        sizes = [level.size for level in hierarchy.levels]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] <= 20 or hierarchy.num_levels == AMGOptions().max_levels

    def test_coarse_solve_exact(self):
        hierarchy = build_hierarchy(laplacian_2d(8), AMGOptions(max_coarse_size=16))
        coarsest = hierarchy.levels[-1].matrix
        rhs = np.arange(coarsest.shape[0], dtype=float)
        x = hierarchy.coarse_solve(rhs)
        assert np.allclose(coarsest @ x, rhs, atol=1e-10)

    def test_operator_complexity_reasonable(self):
        hierarchy = build_hierarchy(laplacian_2d(24), AMGOptions())
        assert 1.0 <= hierarchy.operator_complexity() < 2.0

    def test_grid_complexity_reasonable(self):
        hierarchy = build_hierarchy(laplacian_2d(24), AMGOptions())
        assert 1.0 <= hierarchy.grid_complexity() < 1.7

    def test_on_real_pg_matrix(self, fake_design):
        system = build_reduced_system(fake_design.grid)
        hierarchy = build_hierarchy(system.matrix, AMGOptions(max_coarse_size=40))
        assert hierarchy.num_levels >= 2
        assert hierarchy.levels[-1].size <= max(
            40, hierarchy.levels[0].size
        )

    def test_prolongation_chain_shapes(self):
        hierarchy = build_hierarchy(laplacian_2d(16), AMGOptions())
        for fine, coarse in zip(hierarchy.levels, hierarchy.levels[1:]):
            assert fine.prolongation is not None
            assert fine.prolongation.shape == (fine.size, coarse.size)
        assert hierarchy.levels[-1].prolongation is None

    def test_max_levels_respected(self):
        hierarchy = build_hierarchy(
            laplacian_2d(24), AMGOptions(max_levels=2, max_coarse_size=4)
        )
        assert hierarchy.num_levels <= 2


class TestTieHeavyMeshes:
    """Meshes whose couplings tie converge as fast as under greedy matching.

    A uniform Laplacian and fake designs (no resistance jitter) have few
    distinct strengths, so the tie key shapes most aggregates.  Quality
    PCG to 1e-10 must take no more iterations than the sequential greedy
    matching it replaced did (recorded below).
    """

    #: Quality-preset PCG iterations to 1e-10 under the greedy matching.
    GREEDY_ITERATIONS = {"laplacian-128": 16, "fake-64": 24, "fake-96": 27}

    def test_uniform_laplacian(self):
        matrix = laplacian_2d(128)
        amg_options, cycle_options = PRESETS["quality"]
        result = AMGPCGSolver(
            SolverOptions(tol=1e-10, max_iterations=200), amg_options, cycle_options
        ).solve(matrix, np.ones(matrix.shape[0]))
        assert result.converged
        assert result.iterations <= self.GREEDY_ITERATIONS["laplacian-128"]

    @pytest.mark.parametrize("pixels", [64, 96])
    def test_fake_design(self, pixels):
        design = generate_design(make_fake_spec(f"tie{pixels}", seed=0, pixels=pixels))
        report = PowerRushSimulator(tol=1e-10, preset="quality").simulate_grid(
            design.grid
        )
        assert report.solve.converged
        assert report.solve.iterations <= self.GREEDY_ITERATIONS[f"fake-{pixels}"]


class TestAMGOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_levels": 0},
            {"max_coarse_size": 0},
            {"strength_threshold": 1.5},
            {"passes_per_level": 0},
        ],
    )
    def test_invalid_options(self, kwargs):
        with pytest.raises(ValueError):
            AMGOptions(**kwargs)

