"""Unit tests for MNA stamping: reduced vs full formulations."""

import numpy as np
import pytest
import scipy.sparse.linalg as sla

from repro.grid.netlist import PowerGrid
from repro.mna.stamper import build_reduced_system
from repro.spice.parser import parse_spice
from tests.reference_mna import build_full_mna


class TestReducedSystem:
    def test_sizes(self, tiny_grid):
        system = build_reduced_system(tiny_grid)
        assert system.size == 3  # 4 nodes - 1 pad
        assert system.num_grid_nodes == 4

    def test_matrix_symmetric(self, tiny_grid):
        system = build_reduced_system(tiny_grid)
        dense = system.matrix.toarray()
        assert np.allclose(dense, dense.T)

    def test_matrix_positive_definite(self, tiny_grid):
        system = build_reduced_system(tiny_grid)
        eigenvalues = np.linalg.eigvalsh(system.matrix.toarray())
        assert eigenvalues.min() > 0

    def test_known_solution_hand_computed(self):
        # pad -- 1 ohm -- node with 1 A load: drop = 1 V
        grid = PowerGrid.from_netlist(
            parse_spice("R1 a b 1\nI1 b 0 1.0\nV1 a 0 2.0\n")
        )
        system = build_reduced_system(grid)
        x = sla.spsolve(system.matrix.tocsc(), system.rhs)
        voltages = system.scatter(np.atleast_1d(x))
        assert voltages[grid.index_of("a")] == pytest.approx(2.0)
        assert voltages[grid.index_of("b")] == pytest.approx(1.0)

    def test_scatter_gather_roundtrip(self, tiny_grid):
        system = build_reduced_system(tiny_grid)
        x = np.arange(system.size, dtype=float)
        assert np.array_equal(system.gather(system.scatter(x)), x)

    def test_scatter_sets_pad_voltage(self, tiny_grid):
        system = build_reduced_system(tiny_grid)
        full = system.scatter(np.zeros(system.size))
        pad_index = tiny_grid.pads()[0].index
        assert full[pad_index] == 1.05

    def test_residual_of_exact_solution_is_zero(self, tiny_grid):
        system = build_reduced_system(tiny_grid)
        x = sla.spsolve(system.matrix.tocsc(), system.rhs)
        assert system.relative_residual(np.atleast_1d(x)) < 1e-12

    def test_validation_catches_singular(self):
        grid = PowerGrid.from_netlist(parse_spice("R1 a b 1\nI1 b 0 1\n"))
        with pytest.raises(ValueError):
            build_reduced_system(grid)

    def test_matches_full_mna(self, fake_design):
        grid = fake_design.grid
        reduced = build_reduced_system(grid)
        full = build_full_mna(grid)
        x_reduced = sla.spsolve(reduced.matrix.tocsc(), reduced.rhs)
        voltages_reduced = reduced.scatter(np.atleast_1d(x_reduced))
        x_full = sla.spsolve(full.matrix.tocsc(), full.rhs)
        voltages_full, _ = full.split_solution(np.asarray(x_full))
        assert np.allclose(voltages_reduced, voltages_full, atol=1e-8)


class TestFullMNA:
    def test_branch_current_equals_total_load(self, tiny_grid):
        full = build_full_mna(tiny_grid)
        x = sla.spsolve(full.matrix.tocsc(), full.rhs)
        _, branch_currents = full.split_solution(np.asarray(x))
        # KCL: the single pad supplies all load current (sign: current
        # flows out of the source into the grid)
        assert abs(branch_currents).sum() == pytest.approx(0.015)

    def test_pad_rows_enforce_voltage(self, tiny_grid):
        full = build_full_mna(tiny_grid)
        x = sla.spsolve(full.matrix.tocsc(), full.rhs)
        voltages, _ = full.split_solution(np.asarray(x))
        assert voltages[tiny_grid.pads()[0].index] == pytest.approx(1.05)

    def test_shape(self, tiny_grid):
        full = build_full_mna(tiny_grid)
        assert full.matrix.shape == (5, 5)
        assert full.num_branch_currents == 1
