"""The shipped feature layer against its per-element reference.

``repro.grid.raster``, ``repro.features.{resistance,density}`` and
``repro.grid.topology`` are vectorised scatters, a scipy Dijkstra and a
compiled union-find; ``tests/reference_features.py`` holds the Python
loops they replaced.  Maps must agree to 1e-10 (reductions may reorder),
component partitions and floating sets exactly.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.data.synthetic import generate_design, make_fake_spec, make_real_spec
from repro.features.density import pdn_density_map
from repro.features.resistance import (
    _pixels_on_span,
    resistance_map,
    shortest_path_resistance_map,
    shortest_path_resistances,
)
from repro.grid.netlist import PowerGrid
from repro.grid.raster import layer_values_image
from repro.grid.topology import connected_components, floating_nodes
from repro.spice.parser import parse_spice
from repro.spice.writer import netlist_to_string
from tests.reference_raster import rasterize
from tests import reference_features as ref

TOL = 1e-10
REDUCTIONS = ("max", "mean", "sum")
NUM_LAYERS = 3

#: A two-node structured island off the tap pitch: no path to any pad.
ISLAND = "Risland n1_m1_1_1 n1_m1_501_1 1.0\nIisland n1_m1_501_1 0 0.001\n"


@pytest.fixture(
    scope="module",
    params=[
        (make_spec, pixels, seed)
        for make_spec in (make_fake_spec, make_real_spec)
        for pixels in (16, 32)
        for seed in (3, 4)
    ],
    ids=lambda p: f"{p[0].__name__[5:9]}-{p[1]}px-s{p[2]}",
)
def design(request):
    make_spec, pixels, seed = request.param
    return generate_design(
        make_spec("oracle", seed=seed, pixels=pixels, num_layers=NUM_LAYERS)
    )


@pytest.fixture(scope="module")
def island():
    """``(geometry, grid)`` of a real-like design plus :data:`ISLAND`."""
    spec = make_real_spec("oracle", seed=3, pixels=16, num_layers=NUM_LAYERS)
    base = generate_design(spec)
    deck = netlist_to_string(base.netlist).replace(".end", ISLAND + ".end")
    return base.geometry, PowerGrid.from_netlist(parse_spice(deck))


def assert_maps_close(shipped: np.ndarray, reference: np.ndarray) -> None:
    assert shipped.shape == reference.shape
    assert np.abs(shipped - reference).max() <= TOL


def partition(components) -> set[frozenset[int]]:
    return {frozenset(c) for c in components}


class TestRaster:
    @pytest.mark.parametrize("reduce", REDUCTIONS)
    def test_rasterize(self, design, reduce):
        nodes = design.grid.nodes_on_layer(1)
        values = np.random.default_rng(0).standard_normal(len(nodes))
        assert_maps_close(
            rasterize(design.geometry, nodes, values, reduce=reduce, fill=-1.0),
            ref._legacy_rasterize(
                design.geometry, nodes, values, reduce=reduce, fill=-1.0
            ),
        )

    @pytest.mark.parametrize("reduce", REDUCTIONS)
    def test_layer_values_image(self, design, reduce):
        values = np.random.default_rng(1).standard_normal(design.grid.num_nodes)
        for layer in range(1, NUM_LAYERS + 1):
            assert_maps_close(
                layer_values_image(
                    design.geometry, design.grid, values, layer, reduce=reduce
                ),
                ref._legacy_layer_values_image(
                    design.geometry, design.grid, values, layer, reduce=reduce
                ),
            )


class TestResistance:
    def test_pixels_on_span(self, design):
        edge = design.geometry.shape[0] * design.geometry.pixel_h_nm - 1
        spans = [
            ((0, 0), (0, 0)),
            ((0, 0), (edge, 0)),
            ((edge, edge), (edge, 0)),
            ((0, 0), (edge, edge // 2)),  # diagonal: sampled + deduplicated
            ((edge, 0), (edge // 3, edge)),
        ]
        for start, end in spans:
            rows, cols = _pixels_on_span(design.geometry, start, end)
            assert list(zip(rows.tolist(), cols.tolist())) == (
                ref._legacy_pixels_on_span(design.geometry, start, end)
            )

    def test_resistance_map(self, design):
        assert_maps_close(
            resistance_map(design.geometry, design.grid),
            ref._legacy_resistance_map(design.geometry, design.grid),
        )

    def test_shortest_path_resistances(self, design):
        shipped = shortest_path_resistances(design.grid)
        reference = ref._legacy_shortest_path_resistances(design.grid)
        assert np.isfinite(reference).all()
        assert np.abs(shipped - reference).max() <= TOL

    @pytest.mark.parametrize("layer", [1, NUM_LAYERS, None])
    def test_shortest_path_resistance_map(self, design, layer):
        assert_maps_close(
            shortest_path_resistance_map(design.geometry, design.grid, layer),
            ref._legacy_shortest_path_resistance_map(
                design.geometry, design.grid, layer
            ),
        )

    def test_floating_nodes_are_dropped_alike(self, island):
        geometry, grid = island
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            shipped = shortest_path_resistance_map(geometry, grid)
            reference = ref._legacy_shortest_path_resistance_map(geometry, grid)
        assert_maps_close(shipped, reference)
        floating = np.isinf(shortest_path_resistances(grid))
        assert floating.sum() == 2
        np.testing.assert_array_equal(
            floating, np.isinf(ref._legacy_shortest_path_resistances(grid))
        )


class TestDensity:
    @pytest.mark.parametrize("layer", [None, 1, NUM_LAYERS])
    def test_pdn_density_map(self, design, layer):
        assert_maps_close(
            pdn_density_map(design.geometry, design.grid, layer),
            ref._legacy_pdn_density_map(design.geometry, design.grid, layer),
        )


class TestTopology:
    def test_connected_components(self, design):
        shipped = connected_components(design.grid)
        assert partition(shipped) == partition(
            ref._legacy_connected_components(design.grid)
        )
        assert sum(len(c) for c in shipped) == design.grid.num_nodes

    def test_floating_nodes_empty_on_generated_designs(self, design):
        assert floating_nodes(design.grid) == set()
        assert ref._legacy_floating_nodes(design.grid) == set()

    def test_island(self, island):
        _, grid = island
        floating = floating_nodes(grid)
        assert floating == ref._legacy_floating_nodes(grid)
        assert {grid.node(i).name for i in floating} == {
            "n1_m1_1_1",
            "n1_m1_501_1",
        }
        assert partition(connected_components(grid)) == partition(
            ref._legacy_connected_components(grid)
        )
