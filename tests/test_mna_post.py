"""Tests for branch-current post-processing."""

import numpy as np
import pytest

from repro.grid.netlist import PowerGrid
from repro.mna.post import branch_currents, kcl_residuals, pad_currents
from repro.solvers.powerrush import PowerRushSimulator
from repro.spice.parser import parse_spice


@pytest.fixture(scope="module")
def solved(fake_design):
    report = PowerRushSimulator(tol=1e-12).simulate_grid(fake_design.grid)
    return fake_design.grid, report.voltages


class TestBranchCurrents:
    def test_hand_computed_chain(self):
        grid = PowerGrid.from_netlist(
            parse_spice("R1 a b 2\nI1 b 0 0.5\nV1 a 0 1\n")
        )
        report = PowerRushSimulator(tol=1e-12).simulate_grid(grid)
        currents = branch_currents(grid, report.voltages)
        # 0.5 A flows a -> b through the single wire
        assert currents[0] == pytest.approx(0.5, rel=1e-9)

    def test_shape_validation(self, fake_design):
        with pytest.raises(ValueError):
            branch_currents(fake_design.grid, np.ones(3))

    def test_kcl_residuals_vanish(self, solved):
        grid, voltages = solved
        residual = kcl_residuals(grid, voltages)
        assert np.abs(residual).max() < 1e-8

    def test_kcl_detects_wrong_solution(self, solved):
        grid, voltages = solved
        residual = kcl_residuals(grid, voltages * 1.01)
        assert np.abs(residual).max() > 1e-6

    def test_pad_currents_sum_to_load(self, solved):
        grid, voltages = solved
        supplied = pad_currents(grid, voltages)
        assert sum(supplied.values()) == pytest.approx(
            grid.load_current.sum(), rel=1e-8
        )

    def test_all_pads_supply_current(self, solved):
        """Fake designs have symmetric pads; all of them should source."""
        grid, voltages = solved
        supplied = pad_currents(grid, voltages)
        assert all(value > 0 for value in supplied.values())
