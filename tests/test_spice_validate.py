"""Tests for grid validation, repair and singular-G detection."""

import numpy as np
import pytest

from repro.grid.netlist import PowerGrid
from repro.grid.topology import validate_connectivity
from repro.mna.stamper import build_reduced_system
from repro.spice.ast import Netlist, Resistor
from repro.spice.parser import parse_spice
from repro.spice.validate import NetlistValidationError, repair_grid, validate_grid

ISLAND_DECK = """* main grid plus a floating island
R1 n1_m1_0_0 n1_m1_1000_0 1.0
R2 n1_m1_0_0 n1_m1_0_1000 1.0
I1 n1_m1_1000_0 0 0.01
V1 n1_m1_0_0 0 1.05
* island: no resistive path to any pad
R9 n1_m1_5000_5000 n1_m1_6000_5000 2.0
I9 n1_m1_6000_5000 0 0.002
.end
"""


def island_grid() -> PowerGrid:
    return PowerGrid.from_netlist(parse_spice(ISLAND_DECK))


class TestValidateGrid:
    def test_clean_grid(self, tiny_grid):
        assert validate_grid(tiny_grid) == []

    def test_floating_island_detected(self):
        issues = validate_grid(island_grid())
        kinds = {i.kind: i for i in issues}
        assert "floating_nodes" in kinds
        assert kinds["floating_nodes"].fatal
        assert kinds["floating_nodes"].count == 2
        assert "disconnected_grid" in kinds
        assert not kinds["disconnected_grid"].fatal

    def test_no_pads_detected(self):
        netlist = Netlist(resistors=[Resistor("R1", "a", "b", 1.0)])
        grid = PowerGrid.from_netlist(netlist)
        issues = validate_grid(grid)
        assert [i.kind for i in issues] == ["no_pads"]


class TestRepairGrid:
    def test_ground_tie_makes_island_solvable(self):
        grid = island_grid()
        repaired, records = repair_grid(grid, supply_voltage=1.05)
        assert [r.action for r in records] == ["ground_tie"]
        assert records[0].count == 2
        assert "'n1_m1_5000_5000'" in records[0].detail
        validate_connectivity(repaired)
        # the original grid is untouched
        with pytest.raises(ValueError, match="no resistive path"):
            validate_connectivity(grid)
        system = build_reduced_system(repaired)
        assert np.all(system.matrix.diagonal() > 0)

    def test_each_island_tied_at_its_first_node(self):
        # Three islands of 1, 3 and 2 nodes, met in file order; the
        # validation sample and the ties both follow first appearance.
        grid = PowerGrid.from_netlist(
            parse_spice(
                ISLAND_DECK.replace(
                    ".end", "RA p q 1\nRB q r 1\nRC s t 1\nIS u 0 0.1\n.end"
                )
            )
        )
        issue = validate_grid(grid)[0]
        assert issue.count == 2 + 3 + 2 + 1
        assert "4 component(s)" in issue.message
        assert "['n1_m1_5000_5000', 'p', 's']" in issue.message
        repaired, records = repair_grid(grid, supply_voltage=1.05)
        assert [r.count for r in records] == [2, 3, 2, 1]
        assert [r.detail.split("'")[1] for r in records] == [
            "n1_m1_5000_5000", "p", "s", "u",
        ]
        validate_connectivity(repaired)

    def test_clean_grid_returned_as_is(self, tiny_grid):
        repaired, records = repair_grid(tiny_grid, supply_voltage=1.05)
        assert repaired is tiny_grid
        assert records == []

    def test_no_pads_rejected(self):
        netlist = Netlist(resistors=[Resistor("R1", "a", "b", 1.0)])
        grid = PowerGrid.from_netlist(netlist)
        with pytest.raises(NetlistValidationError):
            repair_grid(grid, supply_voltage=1.0)


class TestSingularDetection:
    def test_stamper_rejects_corrupt_diagonal(self):
        # from_netlist refuses a NaN wire, but a grid built from raw columns
        # is not checked: stamping must still catch it before any solver
        # sees the system.
        grid = PowerGrid(
            ["n1_m1_0_0", "n1_m1_1000_0"],
            np.array([0.0, 0.01]),
            np.array([1.0, np.nan]),
            ["R1"],
            np.array([0]),
            np.array([1]),
            np.array([np.nan]),
        )
        with pytest.raises(ValueError, match="singular or indefinite"):
            build_reduced_system(grid)


class TestEndToEndDegradation:
    def test_simulator_survives_floating_island(self):
        from repro.solvers.powerrush import PowerRushSimulator

        report = PowerRushSimulator().simulate_text(ISLAND_DECK)
        assert np.all(np.isfinite(report.ir_drop))
        assert [r.action for r in report.diagnostics.repairs] == ["ground_tie"]
        kinds = {i.kind for i in report.diagnostics.validation}
        assert "floating_nodes" in kinds
        assert report.diagnostics.degraded
        # the ground-tied island reads (near) zero drop: bounded answer
        island = report.grid.node("n1_m1_5000_5000")
        assert report.ir_drop[island.index] <= 0.05

    def test_healthy_grid_labelled_once(self, fake_design, monkeypatch):
        from repro.grid import topology
        from repro.solvers.powerrush import PowerRushSimulator

        calls = []

        def spy(grid):
            calls.append(grid)
            return label(grid)

        # A clone: the session-shared grid's validation is already memoised.
        grid = fake_design.grid.clone()
        label = topology.component_labels
        monkeypatch.setattr(topology, "component_labels", spy)
        report = PowerRushSimulator().simulate_grid(grid)
        assert calls == [grid]
        assert report.grid is grid
        assert report.diagnostics.repairs == []
        assert not report.diagnostics.degraded
        # A repeat on the unedited grid reads the memoised report.
        repeat = PowerRushSimulator().simulate_grid(grid)
        assert calls == [grid]
        assert repeat.diagnostics.validation == report.diagnostics.validation

    def test_padless_grid_raises_typed_error(self):
        from repro.solvers.powerrush import PowerRushSimulator

        grid = PowerGrid.from_netlist(Netlist(resistors=[Resistor("R1", "a", "b", 1.0)]))
        with pytest.raises(NetlistValidationError, match="no voltage pads"):
            PowerRushSimulator().simulate_grid(grid, supply_voltage=1.0)

    def test_strict_mode_still_raises(self):
        with pytest.raises(ValueError, match="no resistive path"):
            build_reduced_system(island_grid(), validate=True)
