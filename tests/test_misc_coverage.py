"""Edge-case tests for smaller helpers across the codebase."""

import numpy as np
import pytest

from repro.features.resistance import _pixels_on_span
from repro.grid.geometry import GridGeometry, default_layer_stack
from repro.spice.ast import Capacitor, Netlist, Resistor
from repro.spice.parser import parse_spice
from repro.spice.writer import netlist_to_string


@pytest.fixture()
def geometry():
    return GridGeometry(8000, 8000, 1000, 1000, default_layer_stack(1))


def _as_pairs(span):
    rows, cols = span
    return list(zip(rows.tolist(), cols.tolist()))


class TestPixelsOnSpan:
    def test_point(self, geometry):
        assert _as_pairs(_pixels_on_span(geometry, (500, 500), (600, 600))) == [
            (0, 0)
        ]

    def test_returns_index_arrays(self, geometry):
        rows, cols = _pixels_on_span(geometry, (0, 0), (3000, 0))
        assert isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray)
        assert rows.dtype == np.int64 and cols.dtype == np.int64
        image = np.zeros(geometry.shape)
        image[rows, cols] = 1.0  # usable directly for fancy indexing
        assert image.sum() == len(rows)

    def test_horizontal(self, geometry):
        pixels = _as_pairs(_pixels_on_span(geometry, (0, 0), (3000, 0)))
        assert pixels == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_vertical(self, geometry):
        pixels = _as_pairs(_pixels_on_span(geometry, (0, 0), (0, 2000)))
        assert pixels == [(0, 0), (1, 0), (2, 0)]

    def test_reversed_endpoints(self, geometry):
        forward = _as_pairs(_pixels_on_span(geometry, (0, 0), (3000, 0)))
        backward = _as_pairs(_pixels_on_span(geometry, (3000, 0), (0, 0)))
        assert forward == backward

    def test_diagonal_covers_endpoints(self, geometry):
        pixels = _as_pairs(_pixels_on_span(geometry, (0, 0), (3000, 3000)))
        assert (0, 0) in pixels
        assert (3, 3) in pixels


class TestVectorizedFeatureEquivalence:
    def test_shortest_path_matches_python_dijkstra(self, fake_design):
        from repro.features.resistance import shortest_path_resistances
        from tests.reference_features import _legacy_shortest_path_resistances

        fast = shortest_path_resistances(fake_design.grid)
        reference = _legacy_shortest_path_resistances(fake_design.grid)
        np.testing.assert_array_equal(fast, reference)

    def test_resistance_map_matches_per_wire_scatter(self, fake_design):
        from repro.features.resistance import (
            _pixels_on_span,
            resistance_map,
        )

        geometry, grid = fake_design.geometry, fake_design.grid
        expected = np.zeros(geometry.shape)
        wire_a, wire_b, wire_r = grid.wire_arrays()
        for a, b, resistance in zip(wire_a.tolist(), wire_b.tolist(), wire_r.tolist()):
            node_a = grid.node(a)
            node_b = grid.node(b)
            if node_a.structured is None or node_b.structured is None:
                continue
            rows, cols = _pixels_on_span(
                geometry, node_a.structured.position,
                node_b.structured.position,
            )
            np.add.at(expected, (rows, cols), resistance / len(rows))
        np.testing.assert_allclose(
            resistance_map(geometry, grid), expected, atol=1e-10
        )


class TestNetlistAST:
    def test_len_counts_all_kinds(self):
        netlist = parse_spice(
            "R1 a b 1\nI1 b 0 0.1\nV1 a 0 1\nC1 b 0 1e-12\n"
        )
        assert len(netlist) == 4

    def test_elements_iterates_in_kind_order(self):
        netlist = parse_spice("I1 b 0 0.1\nR1 a b 1\nC1 b 0 1e-12\n")
        kinds = [type(e).__name__ for kind in netlist.kinds() for e in kind]
        assert kinds == ["Resistor", "CurrentSource", "Capacitor"]

    def test_capacitor_roundtrip(self):
        netlist = Netlist(
            resistors=[Resistor("R1", "a", "b", 1.0)],
            capacitors=[Capacitor("C1", "b", "0", 2.2e-12)],
        )
        reparsed = parse_spice(netlist_to_string(netlist))
        assert reparsed.capacitors == netlist.capacitors

    def test_negative_capacitance_ast_rejected(self):
        with pytest.raises(ValueError):
            Capacitor("C1", "a", "0", -1e-12)


class TestSolveResultHelpers:
    def test_convergence_factor_nan_cases(self):
        from repro.solvers.base import SolveResult

        empty = SolveResult(x=np.zeros(1), iterations=0, converged=False)
        assert np.isnan(empty.convergence_factor())
        exact = SolveResult(
            x=np.zeros(1),
            iterations=1,
            converged=True,
            residual_norms=[1.0, 0.0],
        )
        assert exact.convergence_factor() == 0.0

    def test_timer_laps(self):
        from repro.solvers.base import Timer

        timer = Timer()
        first = timer.lap()
        second = timer.lap()
        assert first >= 0.0 and second >= 0.0


class TestAnalysisResultSignoff:
    def test_signoff_from_analysis(self, fake_design):
        from repro.core.config import FusionConfig
        from repro.core.pipeline import IRFusionPipeline
        from repro.train.trainer import TrainConfig

        config = FusionConfig(
            pixels=16,
            num_fake=2,
            num_real_train=1,
            num_real_test=1,
            base_channels=4,
            depth=2,
            train=TrainConfig(epochs=1, batch_size=4),
            augment=False,
            oversample_fake=1,
            oversample_real=1,
        )
        pipeline = IRFusionPipeline(config)
        pipeline.train()
        _, test_designs = pipeline.generate_designs()
        result = pipeline.analyze_design(test_designs[0])
        report = result.signoff(limit=1e-6)  # absurdly tight: must fail
        assert not report.passed
        generous = result.signoff(limit=10.0)
        assert generous.passed
