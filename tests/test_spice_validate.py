"""Tests for netlist/grid validation, repair and singular-G detection."""

import numpy as np
import pytest

from repro.grid.netlist import PowerGrid
from repro.mna.stamper import build_reduced_system
from repro.spice.ast import CurrentSource, Netlist, Resistor, VoltageSource
from repro.spice.parser import parse_spice
from repro.spice.validate import (
    MIN_RESISTANCE,
    NetlistValidationError,
    floating_components,
    repair_grid,
    repair_netlist,
    singular_rows,
    validate_grid,
    validate_netlist,
)

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


class TestValidateNetlist:
    def test_clean_deck_no_issues(self, tiny_netlist):
        assert validate_netlist(tiny_netlist) == []

    def test_nonfinite_resistance_detected(self):
        # Negative values are rejected at Resistor construction, but NaN
        # slips through ``< 0`` — validation must still catch it.
        netlist = Netlist(
            resistors=[Resistor("R1", "a", "b", float("nan"))],
            voltage_sources=[VoltageSource("V1", "a", "0", 1.0)],
        )
        issues = validate_netlist(netlist)
        kinds = {i.kind for i in issues}
        assert "nonpositive_resistance" in kinds
        assert all(i.fatal for i in issues if i.kind == "nonpositive_resistance")

    def test_shorts_and_missing_pads_detected(self):
        netlist = Netlist(resistors=[Resistor("R1", "a", "b", 0.0)])
        kinds = {i.kind for i in validate_netlist(netlist)}
        assert kinds == {"short_resistor", "no_pads"}


class TestRepairNetlist:
    def test_clean_deck_untouched(self, tiny_netlist):
        repaired, records = repair_netlist(tiny_netlist)
        assert repaired is tiny_netlist
        assert records == []

    def test_nonfinite_resistance_clamped(self):
        netlist = Netlist(
            resistors=[
                Resistor("R1", "a", "b", float("nan")),
                Resistor("R2", "b", "c", float("inf")),
                Resistor("R3", "c", "d", 2.0),
            ],
            voltage_sources=[VoltageSource("V1", "a", "0", 1.0)],
        )
        repaired, records = repair_netlist(netlist)
        values = {r.name: r.resistance for r in repaired.resistors}
        assert values["R1"] == MIN_RESISTANCE
        assert values["R2"] == MIN_RESISTANCE
        assert values["R3"] == 2.0
        assert [r.action for r in records] == ["clamp_resistance"]
        assert records[0].count == 2

    def test_shorts_collapsed(self):
        netlist = Netlist(
            resistors=[
                Resistor("R1", "a", "b", 0.0),
                Resistor("R2", "b", "c", 1.0),
            ],
            voltage_sources=[VoltageSource("V1", "a", "0", 1.0)],
        )
        repaired, records = repair_netlist(netlist)
        assert [r.action for r in records] == ["collapse_shorts"]
        assert all(not r.is_short for r in repaired.resistors)


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
        assert floating_components(repaired) == []
        # the original grid is untouched
        assert floating_components(grid) != []
        system = build_reduced_system(repaired)
        assert np.all(system.matrix.diagonal() > 0)

    def test_isolate_strategy_zeroes_island_loads(self):
        repaired, records = repair_grid(
            island_grid(), supply_voltage=1.05, strategy="isolate"
        )
        island_nodes = [repaired.node("n1_m1_5000_5000"),
                        repaired.node("n1_m1_6000_5000")]
        assert all(n.load_current == 0.0 for n in island_nodes)
        assert "zeroed" in records[0].detail

    def test_clean_grid_returned_as_is(self, tiny_grid):
        repaired, records = repair_grid(tiny_grid, supply_voltage=1.05)
        assert repaired is tiny_grid
        assert records == []

    def test_no_pads_rejected(self):
        netlist = Netlist(resistors=[Resistor("R1", "a", "b", 1.0)])
        grid = PowerGrid.from_netlist(netlist)
        with pytest.raises(NetlistValidationError):
            repair_grid(grid, supply_voltage=1.0)

    def test_unknown_strategy_rejected(self, tiny_grid):
        with pytest.raises(ValueError, match="strategy"):
            repair_grid(tiny_grid, supply_voltage=1.0, strategy="pray")


class TestSingularDetection:
    def test_singular_rows_found(self, tiny_grid):
        system = build_reduced_system(tiny_grid)
        assert singular_rows(system.matrix).size == 0
        from repro.testing.faults import make_singular

        assert list(singular_rows(make_singular(system.matrix, row=1))) == [1]

    def test_stamper_rejects_corrupt_diagonal(self):
        # A NaN resistance slips past Resistor construction but must be
        # caught at stamping time, before any solver sees the system.
        netlist = Netlist(
            resistors=[Resistor("R1", "n1_m1_0_0", "n1_m1_1000_0", float("nan"))],
            current_sources=[CurrentSource("I1", "n1_m1_1000_0", "0", 0.01)],
            voltage_sources=[VoltageSource("V1", "n1_m1_0_0", "0", 1.0)],
        )
        grid = PowerGrid.from_netlist(netlist)
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
