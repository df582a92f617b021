"""Unit tests for node-to-pixel rasterisation."""

import numpy as np
import pytest

from repro.grid.geometry import GridGeometry, default_layer_stack
from repro.grid.netlist import PowerGrid
from repro.grid.raster import layer_values_image
from repro.spice.parser import parse_spice
from tests.reference_raster import rasterize


@pytest.fixture()
def geometry():
    return GridGeometry(
        width_nm=4000,
        height_nm=4000,
        pixel_w_nm=1000,
        pixel_h_nm=1000,
        layers=default_layer_stack(1, 1000),
    )


@pytest.fixture()
def grid():
    return PowerGrid.from_netlist(
        parse_spice(
            "R1 n1_m1_0_0 n1_m1_1000_0 1\n"
            "R2 n1_m1_1000_0 n1_m1_1500_0 1\n"  # same pixel as 1000_0
            "V1 n1_m1_0_0 0 1\n"
        )
    )


class TestRasterize:
    def test_max_reduction(self, geometry, grid):
        values = np.array([1.0, 5.0, 3.0])
        image = rasterize(geometry, grid.nodes, values, reduce="max")
        assert image[0, 0] == 1.0
        assert image[0, 1] == 5.0  # max of 5 and 3 sharing pixel (0,1)

    def test_sum_reduction(self, geometry, grid):
        values = np.array([1.0, 5.0, 3.0])
        image = rasterize(geometry, grid.nodes, values, reduce="sum")
        assert image[0, 1] == 8.0

    def test_mean_reduction(self, geometry, grid):
        values = np.array([1.0, 5.0, 3.0])
        image = rasterize(geometry, grid.nodes, values, reduce="mean")
        assert image[0, 1] == 4.0

    def test_fill_for_empty_pixels(self, geometry, grid):
        values = np.ones(3)
        image = rasterize(geometry, grid.nodes, values, reduce="max", fill=-1.0)
        assert image[3, 3] == -1.0

    def test_mismatched_lengths_raise(self, geometry, grid):
        with pytest.raises(ValueError):
            rasterize(geometry, grid.nodes, np.ones(2))

    def test_unknown_reduction_raises(self, geometry, grid):
        with pytest.raises(ValueError):
            rasterize(geometry, grid.nodes, np.ones(3), reduce="median")

    def test_output_shape(self, geometry, grid):
        image = rasterize(geometry, grid.nodes, np.ones(3))
        assert image.shape == geometry.shape


class TestLayerValuesImage:
    def test_restricts_to_layer(self, fake_design):
        grid = fake_design.grid
        full = np.arange(grid.num_nodes, dtype=float)
        image1 = layer_values_image(fake_design.geometry, grid, full, layer=1)
        image2 = layer_values_image(fake_design.geometry, grid, full, layer=2)
        assert image1.shape == fake_design.geometry.shape
        assert not np.array_equal(image1, image2)

    def test_shape_validation(self, fake_design):
        with pytest.raises(ValueError):
            layer_values_image(
                fake_design.geometry,
                fake_design.grid,
                np.ones(3),
                layer=1,
            )
