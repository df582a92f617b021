"""Unit tests for the individual feature extractors."""

import numpy as np
import pytest

from repro.features.current import layer_current_maps, load_current_map
from repro.features.density import pdn_density_map
from repro.features.distance import effective_distance_map
from repro.features.numerical import numerical_layer_maps
from repro.features.resistance import (
    resistance_map,
    shortest_path_resistance_map,
    shortest_path_resistances,
)
from repro.solvers.powerrush import PowerRushSimulator


class TestCurrentMaps:
    def test_load_map_conserves_total_current(self, fake_design):
        image = load_current_map(fake_design.geometry, fake_design.grid)
        assert image.sum() == pytest.approx(fake_design.grid.load_current.sum())

    def test_load_map_non_negative(self, fake_design):
        image = load_current_map(fake_design.geometry, fake_design.grid)
        assert image.min() >= 0.0

    def test_layer_maps_cover_all_layers(self, fake_design):
        maps = layer_current_maps(fake_design.geometry, fake_design.grid)
        assert sorted(maps) == [l.index for l in fake_design.geometry.layers]

    def test_layer_shares_sum_to_load(self, fake_design):
        # box smoothing at the die border loses a little mass (replicated
        # edges), so conservation is approximate
        maps = layer_current_maps(fake_design.geometry, fake_design.grid)
        total = sum(m.sum() for m in maps.values())
        assert total == pytest.approx(
            fake_design.grid.load_current.sum(), rel=0.05
        )

    def test_upper_layers_smoother(self, fake_design):
        maps = layer_current_maps(fake_design.geometry, fake_design.grid)
        # smoothing reduces per-pixel variance relative to the layer mean
        cv = {
            layer: np.std(m) / (np.mean(m) + 1e-30)
            for layer, m in maps.items()
        }
        assert cv[3] <= cv[1] + 1e-9


class TestEffectiveDistance:
    def test_zero_at_pad_pixels(self, fake_design):
        image = effective_distance_map(fake_design.geometry, fake_design.grid)
        for row, col in fake_design.pad_pixels:
            assert image[row, col] < 2 * fake_design.geometry.pixel_w_nm

    def test_increases_away_from_single_pad(self):
        from repro.grid.netlist import PowerGrid
        from repro.grid.geometry import GridGeometry, default_layer_stack
        from repro.spice.parser import parse_spice

        grid = PowerGrid.from_netlist(
            parse_spice(
                "R1 n1_m1_0_0 n1_m1_7000_0 1\nV1 n1_m1_0_0 0 1\n"
            )
        )
        geometry = GridGeometry(8000, 8000, 1000, 1000, default_layer_stack(1))
        image = effective_distance_map(geometry, grid)
        assert image[0, 0] < image[0, 7] < image[7, 7]

    def test_no_pads_raises(self, fake_design):
        from repro.grid.netlist import PowerGrid
        from repro.spice.parser import parse_spice

        grid = PowerGrid.from_netlist(parse_spice("R1 n1_m1_0_0 n1_m1_1_1 1\n"))
        with pytest.raises(ValueError):
            effective_distance_map(fake_design.geometry, grid)

    def test_harmonic_combination(self):
        """Two pads give lower effective distance than either alone."""
        from repro.grid.netlist import PowerGrid
        from repro.grid.geometry import GridGeometry, default_layer_stack
        from repro.spice.parser import parse_spice

        geometry = GridGeometry(8000, 8000, 1000, 1000, default_layer_stack(1))
        one = PowerGrid.from_netlist(
            parse_spice("R1 n1_m1_0_0 n1_m1_7000_7000 1\nV1 n1_m1_0_0 0 1\n")
        )
        two = PowerGrid.from_netlist(
            parse_spice(
                "R1 n1_m1_0_0 n1_m1_7000_7000 1\n"
                "V1 n1_m1_0_0 0 1\nV2 n1_m1_7000_7000 0 1\n"
            )
        )
        image_one = effective_distance_map(geometry, one)
        image_two = effective_distance_map(geometry, two)
        assert np.all(image_two <= image_one + 1e-9)


class TestDensityAndResistance:
    def test_density_counts_nodes(self, fake_design):
        image = pdn_density_map(fake_design.geometry, fake_design.grid)
        structured = fake_design.grid.node_arrays()[3]
        assert image.sum() == pytest.approx(structured.sum())

    def test_density_per_layer_smaller(self, fake_design):
        all_layers = pdn_density_map(fake_design.geometry, fake_design.grid)
        layer1 = pdn_density_map(fake_design.geometry, fake_design.grid, layer=1)
        assert layer1.sum() < all_layers.sum()

    def test_resistance_map_conserves_total(self, fake_design):
        image = resistance_map(fake_design.geometry, fake_design.grid)
        total = fake_design.grid.wire_arrays()[2].sum()
        assert image.sum() == pytest.approx(total, rel=1e-9)

    def test_shortest_path_resistances_zero_at_pads(self, fake_design):
        distances = shortest_path_resistances(fake_design.grid)
        for pad in fake_design.grid.pads():
            assert distances[pad.index] == 0.0

    def test_shortest_path_resistances_all_finite(self, fake_design):
        distances = shortest_path_resistances(fake_design.grid)
        assert np.isfinite(distances).all()

    def test_shortest_path_map_shape(self, fake_design):
        image = shortest_path_resistance_map(
            fake_design.geometry, fake_design.grid
        )
        assert image.shape == fake_design.geometry.shape
        assert image.min() >= 0.0


class TestNumericalMaps:
    def test_per_layer_maps(self, fake_design):
        report = PowerRushSimulator(max_iterations=2).simulate_grid(
            fake_design.grid
        )
        maps = numerical_layer_maps(
            fake_design.geometry,
            fake_design.grid,
            report.voltages,
            fake_design.spec.supply_voltage,
        )
        assert sorted(maps) == fake_design.grid.layers_present()
        for image in maps.values():
            assert image.shape == fake_design.geometry.shape

    def test_converged_bottom_map_matches_label(self, fake_design, fake_sample):
        report = PowerRushSimulator(tol=1e-13).simulate_grid(fake_design.grid)
        maps = numerical_layer_maps(
            fake_design.geometry,
            fake_design.grid,
            report.voltages,
            fake_design.spec.supply_voltage,
            layers=[1],
        )
        assert np.allclose(maps[1], fake_sample.label, atol=1e-8)

    def test_shape_validation(self, fake_design):
        with pytest.raises(ValueError):
            numerical_layer_maps(
                fake_design.geometry, fake_design.grid, np.ones(3), 1.05
            )
