"""Unit tests for the PowerGrid node table / wires map."""

import numpy as np
import pytest

from repro.grid.netlist import PowerGrid
from repro.spice.ast import ElementList, Netlist, Resistor, VoltageSource
from repro.spice.parser import parse_spice


class TestConstruction:
    def test_counts(self, tiny_grid):
        assert tiny_grid.num_nodes == 4
        assert tiny_grid.num_wires == 4

    def test_dense_indices_in_file_order(self, tiny_grid):
        assert tiny_grid.node(0).name == "n1_m1_0_0"
        assert tiny_grid.index_of("n1_m1_0_0") == 0

    def test_structured_names_parsed(self, tiny_grid):
        node = tiny_grid.node("n1_m1_1000_0")
        assert node.structured is not None
        assert node.structured.position == (1000, 0)
        assert node.layer == 1

    def test_load_currents_accumulate(self):
        grid = PowerGrid.from_netlist(
            parse_spice("R1 a b 1\nI1 b 0 0.1\nI2 b 0 0.2\nV1 a 0 1\n")
        )
        assert grid.node("b").load_current == pytest.approx(0.3)

    def test_pad_voltage_recorded(self, tiny_grid):
        pads = tiny_grid.pads()
        assert len(pads) == 1
        assert pads[0].pad_voltage == 1.05
        assert pads[0].is_pad

    def test_conflicting_pad_voltages_raise(self):
        with pytest.raises(ValueError, match="two voltages"):
            PowerGrid.from_netlist(
                parse_spice("R1 a b 1\nV1 a 0 1.0\nV2 a 0 0.9\n")
            )

    def test_same_pad_voltage_twice_ok(self):
        grid = PowerGrid.from_netlist(
            parse_spice("R1 a b 1\nV1 a 0 1.0\nV2 a 0 1.0\n")
        )
        assert grid.node("a").pad_voltage == 1.0

    def test_grounded_resistor_rejected(self):
        with pytest.raises(ValueError, match="ground"):
            PowerGrid.from_netlist(parse_spice("R1 a 0 1\n"))

    def test_short_rejected(self):
        with pytest.raises(ValueError, match="short"):
            PowerGrid.from_netlist(parse_spice("R1 a b 0\n"))

    @pytest.mark.parametrize(
        "ohms", [0.0, -1.0, np.nan, np.inf, -np.inf], ids=str
    )
    def test_wire_resistance_must_be_finite_and_positive(self, ohms):
        # Columns adopted as they are: the parser's own value checks are
        # bypassed, so the grid is the last line.  The bad wire sits in
        # parallel with a good one and is named, not the good one.
        netlist = Netlist(
            resistors=ElementList.from_columns(
                Resistor,
                ["R1", "R2", "R3"],
                ["a", "a", "b"],
                ["b", "b", "c"],
                np.array([0.5, ohms, 1.0]),
            ),
            voltage_sources=[VoltageSource("V1", "a", "0", 1.0)],
        )
        with pytest.raises(ValueError, match="resistor 'R2'"):
            PowerGrid.from_netlist(netlist)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            PowerGrid.from_netlist(parse_spice("R1 a a 1\n"))

    def test_current_source_must_sink_to_ground(self):
        with pytest.raises(ValueError, match="sink to ground"):
            PowerGrid.from_netlist(parse_spice("R1 a b 1\nI1 a b 0.1\n"))

    def test_voltage_source_must_reference_ground(self):
        with pytest.raises(ValueError, match="reference ground"):
            PowerGrid.from_netlist(parse_spice("R1 a b 1\nV1 a b 1\n"))


class TestQueries:
    def test_contains(self, tiny_grid):
        assert "n1_m1_0_0" in tiny_grid
        assert "nope" not in tiny_grid

    def test_loads(self, tiny_grid):
        load_names = {
            tiny_grid.node_names[i] for i in np.flatnonzero(tiny_grid.load_current)
        }
        assert load_names == {"n1_m1_1000_1000", "n1_m1_1000_0"}

    def test_layers_present(self, tiny_grid):
        assert tiny_grid.layers_present() == [1]

    def test_nodes_on_layer(self, tiny_grid):
        assert len(tiny_grid.nodes_on_layer(1)) == 4
        assert tiny_grid.nodes_on_layer(2) == []

    def test_total_load_current(self, tiny_grid):
        assert tiny_grid.load_current.sum() == pytest.approx(0.015)

    def test_multilayer_design(self, fake_design):
        grid = fake_design.grid
        assert grid.layers_present() == [1, 2, 3]
        node_a, node_b, _ = grid.wire_arrays()
        degree = np.bincount(np.r_[node_a, node_b], minlength=grid.num_nodes)
        assert (degree > 0).all()
