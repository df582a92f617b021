"""Unit tests for topology diagnostics."""

import os
import subprocess
import sys

import pytest

from repro.features.resistance import shortest_path_resistances
from repro.grid.netlist import PowerGrid
from repro.grid.topology import component_labels, validate_connectivity
from repro.spice.parser import parse_spice
from repro.spice.validate import validate_grid

from tests.reference_features import to_networkx


def grid_from(text: str) -> PowerGrid:
    return PowerGrid.from_netlist(parse_spice(text))


class TestGraphView:
    def test_parallel_resistors_combine(self):
        grid = grid_from("R1 a b 2\nR2 a b 2\nV1 a 0 1\n")
        graph = to_networkx(grid)
        edge = graph[grid.index_of("a")][grid.index_of("b")]
        assert edge["conductance"] == pytest.approx(1.0)
        assert edge["resistance"] == pytest.approx(1.0)

    def test_nodes_and_edges(self, tiny_grid):
        graph = to_networkx(tiny_grid)
        assert graph.number_of_nodes() == tiny_grid.num_nodes
        assert graph.number_of_edges() == 4


class TestConnectivity:
    def test_single_component(self, tiny_grid):
        assert component_labels(tiny_grid).tolist() == [0] * tiny_grid.num_nodes

    def test_floating_island_detected(self):
        grid = grid_from("R1 a b 1\nV1 a 0 1\nR2 c d 1\n")
        a, b, c, d = map(grid.index_of, "abcd")
        labels = component_labels(grid)
        assert labels[a] == labels[b] != labels[c] == labels[d]
        issue = next(i for i in validate_grid(grid) if i.kind == "floating_nodes")
        assert issue.count == 2
        assert "['c']" in issue.message

    def test_validate_raises_on_island(self):
        grid = grid_from("R1 a b 1\nV1 a 0 1\nR2 c d 1\n")
        with pytest.raises(ValueError, match="no resistive path"):
            validate_connectivity(grid)

    def test_validate_raises_without_pads(self):
        grid = grid_from("R1 a b 1\nI1 b 0 0.1\n")
        with pytest.raises(ValueError, match="no voltage pads"):
            validate_connectivity(grid)

    def test_validate_passes_tiny(self, tiny_grid):
        validate_connectivity(tiny_grid)

    def test_validate_passes_synthetic(self, fake_design, real_design):
        validate_connectivity(fake_design.grid)
        validate_connectivity(real_design.grid)


def effective_pad_resistance(grid: PowerGrid, name: str) -> float:
    return shortest_path_resistances(grid)[grid.index_of(name)]


class TestEffectivePadResistance:
    """Shortest-path resistance to the nearest pad, node by node."""

    def test_series_chain(self):
        grid = grid_from("R1 a b 2\nR2 b c 3\nV1 a 0 1\n")
        assert effective_pad_resistance(grid, "c") == pytest.approx(5.0)

    def test_pad_itself_zero(self):
        grid = grid_from("R1 a b 2\nV1 a 0 1\n")
        assert effective_pad_resistance(grid, "a") == 0.0

    def test_floating_is_inf(self):
        grid = grid_from("R1 a b 1\nV1 a 0 1\nR2 c d 1\n")
        assert effective_pad_resistance(grid, "c") == float("inf")


def test_product_imports_leave_networkx_out():
    """networkx is a test-only dependency: the CLI, the batch engine and the
    daemon never import it."""
    probe = (
        "import sys, repro.cli, repro.core.batch, repro.serve; "
        "print('networkx' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        check=True,
    )
    assert out.stdout.strip() == "False"
