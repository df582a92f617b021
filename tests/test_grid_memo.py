"""The per-state memo of a :class:`PowerGrid`.

A grid analysed twice pays once for what depends on it alone: the
validation report, the stamped system and its setup-cache fingerprint,
the layer list and each layer's pixel index, the structural feature
channels and the golden voltages.  These tests hold the memo to three
promises: an answer from it is bitwise the answer a fresh grid gives,
every edit through a mutator starts it over, and nothing a caller is
handed can change a later analysis.  The benchmark's ``grid_warm`` check cannot see
the feature channels (its untrained model returns the rough map
exactly), so these tests are the memo's only guard on them.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.data import dataset
from repro.data.dataset import golden_ir_drop, golden_voltages
from repro.data.synthetic import generate_design, make_real_spec
from repro.features import fusion
from repro.features.fusion import FeatureConfig, assemble_feature_stack
from repro.grid.geometry import GridGeometry, default_layer_stack
from repro.grid.netlist import PowerGrid
from repro.grid.raster import _layer_pixels, layer_values_image
from repro.mna import stamper
from repro.solvers import cache, powerrush
from repro.solvers.cache import clear_setup_cache, setup_cache_stats
from repro.solvers.guard import FallbackCascade
from repro.solvers.incremental import AddPad, IncrementalEngine
from repro.solvers.powerrush import PowerRushSimulator
from repro.spice.parser import parse_spice
from repro.testing.faults import FaultPlan
from tests.reference_raster import rasterize

FLAT = FeatureConfig(use_numerical=False, hierarchical=False)


def fresh_design():
    """The same small irregular design each call, built from scratch."""
    return generate_design(make_real_spec("memo", seed=12, pixels=16, num_layers=3))


def analyse(design) -> dict:
    """Everything the memo feeds, from one rough simulate of *design*."""
    supply = design.spec.supply_voltage
    report = PowerRushSimulator(max_iterations=2, preset="fast").simulate_grid(
        design.grid, supply_voltage=supply
    )
    system = report.system
    stack = assemble_feature_stack(
        design.geometry, design.grid, voltages=report.voltages, supply_voltage=supply
    )
    flat = assemble_feature_stack(design.geometry, design.grid, FLAT)
    return {
        "validation": report.diagnostics.validation,
        "matrix": (system.matrix.data, system.matrix.indices, system.matrix.indptr),
        "rhs": system.rhs,
        "unknowns": system.unknown_indices,
        "pads": system.pad_voltages,
        "rough": report.voltages,
        "features": (stack.channels, stack.data),
        "flat": (flat.channels, flat.data),
        "golden": golden_voltages(design.grid),
        "label": golden_ir_drop(design),
    }


def bits(value):
    """*value* with every array replaced by its dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return [bits(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def assert_bitwise_equal(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert bits(got[key]) == bits(want[key]), key


def _pin(grid, supply):
    grid.pin_pad(int(np.flatnonzero(grid.load_current)[0]), supply)


def _unpin(grid, supply):
    grid.unpin_pad(int(grid.pad_indices()[0]))


def _load(grid, supply):
    grid.set_load(int(np.flatnonzero(grid.load_current)[0]), 0.02)


@pytest.mark.parametrize("edit", [_pin, _unpin, _load], ids=["pin", "unpin", "load"])
def test_mutator_analysis_matches_fresh_grid_with_same_edit(edit):
    warm = fresh_design()
    before = analyse(warm)
    assert warm.grid._memo
    edit(warm.grid, warm.spec.supply_voltage)
    assert warm.grid._memo == {}
    got = analyse(warm)

    cold = fresh_design()
    edit(cold.grid, cold.spec.supply_voltage)
    assert_bitwise_equal(got, analyse(cold))
    assert bits(got["rough"]) != bits(before["rough"])
    assert bits(got["label"]) != bits(before["label"])


def count_calls(monkeypatch, module, name) -> list[int]:
    """Count calls of ``module.name`` from now on; read the count as ``[0]``."""
    calls = [0]
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_memo_hit_matches_fresh_grid_and_computes_once(monkeypatch):
    counters = {
        name: count_calls(monkeypatch, module, name)
        for module, name in [
            (powerrush, "validate_grid"),
            (stamper, "build_reduced_system"),
            (fusion, "effective_distance_map"),
            (dataset, "validate_connectivity"),
        ]
    }

    design = fresh_design()
    first = analyse(design)
    hit = analyse(design)
    # Once per grid state: validate, stamp, label; two feature configs.
    assert {name: calls[0] for name, calls in counters.items()} == {
        "validate_grid": 1,
        "build_reduced_system": 1,
        "effective_distance_map": 2,
        "validate_connectivity": 1,
    }
    assert np.shares_memory(hit["rhs"], first["rhs"])
    assert hit["golden"] is first["golden"]
    assert_bitwise_equal(hit, analyse(fresh_design()))


def test_clone_and_pickle_carry_no_memo():
    design = fresh_design()
    grid = design.grid
    empty_size = len(pickle.dumps(grid))
    want = analyse(design)
    assert grid._memo
    assert len(pickle.dumps(grid)) == empty_size
    assert pickle.loads(pickle.dumps(grid))._memo == {}
    clone = grid.clone()
    assert clone._memo == {}
    design.grid = clone
    assert_bitwise_equal(analyse(design), want)
    assert grid._memo and clone._memo is not grid._memo


def test_handed_out_values_cannot_change_a_later_analysis():
    design = fresh_design()
    first = analyse(design)
    want = {key: bits(value) for key, value in first.items()}

    # Shared arrays refuse writes.
    for array in (*first["matrix"], first["rhs"], first["unknowns"], first["golden"]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # Everything else is the caller's own copy: scribble on it.
    first["features"][1][:] = -1.0
    first["flat"][1][:] = -1.0
    first["label"][:] = -1.0
    first["rough"][:] = -1.0
    first["validation"].append("junk")
    first["pads"].clear()
    layers = design.grid.layers_present()
    layers.reverse()
    layers.append(7)
    for layer in design.grid.layers_present():
        for array in _layer_pixels(design.geometry, design.grid, layer):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    again = analyse(design)
    assert {key: bits(value) for key, value in again.items()} == want
    assert design.grid.layers_present() == [1, 2, 3]


def system_bits(system):
    matrix = system.matrix
    return bits([matrix.data, matrix.indices, matrix.indptr, system.rhs,
                 system.unknown_indices])


def test_fallback_cascade_leaves_memoised_system_unchanged():
    design = fresh_design()
    system = PowerRushSimulator().simulate_grid(design.grid).system
    want = system_bits(system)

    plan = FaultPlan(nan_residual={"amg_pcg": 1})
    report = PowerRushSimulator(fault_hook=plan.residual_hook).simulate_grid(
        design.grid
    )
    assert {stage for stage, _, _ in plan.injections} == {"amg_pcg"}
    assert [a.solver for a in report.diagnostics.solver.attempts] == [
        "amg_pcg", "direct",
    ]
    assert np.shares_memory(report.system.rhs, system.rhs)
    assert system_bits(report.system) == want
    assert system_bits(stamper.build_reduced_system(fresh_design().grid)) == want


def test_matrix_is_hashed_once_per_grid_state(monkeypatch):
    hashes = count_calls(monkeypatch, cache, "matrix_fingerprint")
    clear_setup_cache()
    design = fresh_design()
    supply = design.spec.supply_voltage
    simulator = PowerRushSimulator(max_iterations=2, preset="fast")

    first = simulator.simulate_grid(design.grid, supply_voltage=supply)
    assert hashes[0] == 1
    assert first.system.fingerprint == cache.matrix_fingerprint(first.system.matrix)
    hashes[0] = 0
    repeat = simulator.simulate_grid(design.grid, supply_voltage=supply)
    assert hashes[0] == 0
    assert (repeat.diagnostics.solver_cache.hits,
            repeat.diagnostics.solver_cache.misses) == (1, 0)
    assert bits(repeat.voltages) == bits(first.voltages)

    # An edit starts a new state: one hash, a setup-cache miss, and the
    # voltages a fresh grid with the same edit gives.
    _pin(design.grid, supply)
    edited = simulator.simulate_grid(design.grid, supply_voltage=supply)
    assert hashes[0] == 1
    assert (edited.diagnostics.solver_cache.hits,
            edited.diagnostics.solver_cache.misses) == (0, 1)
    cold = fresh_design()
    _pin(cold.grid, supply)
    want = simulator.simulate_grid(cold.grid, supply_voltage=supply)
    assert bits(edited.voltages) == bits(want.voltages)
    assert bits(edited.voltages) != bits(first.voltages)


def test_mutable_system_is_hashed_on_each_lookup(monkeypatch):
    design = fresh_design()
    engine = IncrementalEngine(design.grid, design.spec.supply_voltage)
    system = engine.system
    assert system.fingerprint is None
    assert stamper.stamped_system(design.grid).mutable_copy().fingerprint is None
    hashes = count_calls(monkeypatch, cache, "matrix_fingerprint")
    clear_setup_cache()

    def lookup():
        before = setup_cache_stats()
        FallbackCascade().solve(system.matrix, system.rhs)
        delta = setup_cache_stats().delta(before)
        return delta.hits, delta.misses

    assert lookup() == (0, 1)
    assert lookup() == (1, 0)
    assert hashes[0] == 2
    # The engine patches its system in place: the next lookup sees it.
    engine.apply(AddPad(int(np.flatnonzero(design.grid.load_current)[0])))
    assert lookup() == (0, 1)
    assert hashes[0] == 3


UNSTRUCTURED_DECK = (
    "R1 n1_m1_0_0 n1_m1_1000_0 1\n"
    "R2 n1_m1_1000_0 n1_m1_1500_0 1\n"  # shares a pixel with 1000_0
    "R3 n1_m1_1500_0 mid 1\n"  # `mid` is not in the contest grammar
    "R4 mid n1_m2_3500_2500 1\n"
    "I1 n1_m2_3500_2500 0 0.001\n"
    "V1 n1_m1_0_0 0 1\n"
)


def small_deck():
    geometry = GridGeometry(
        width_nm=4000, height_nm=4000, pixel_w_nm=1000, pixel_h_nm=1000,
        layers=default_layer_stack(2, 1000),
    )
    return geometry, PowerGrid.from_netlist(parse_spice(UNSTRUCTURED_DECK))


def small_design():
    design = fresh_design()
    return design.geometry, design.grid


@pytest.mark.parametrize("make", [small_design, small_deck], ids=["design", "deck"])
@pytest.mark.parametrize("reduce", ["max", "mean", "sum"])
def test_layer_image_on_a_memo_hit_matches_a_fresh_grid(make, reduce):
    geometry, warm = make()
    values = np.random.default_rng(3).normal(size=warm.num_nodes)
    layers = warm.layers_present()
    images = {}
    for layer in layers:
        layer_values_image(geometry, warm, values, layer, reduce=reduce, fill=-1.0)
        images[layer] = layer_values_image(
            geometry, warm, values, layer, reduce=reduce, fill=-1.0
        )
    assert any(_layer_pixels(geometry, warm, layer)[2].any() for layer in layers)
    if make is small_deck:
        assert not warm.node_arrays()[3].all()

    geometry, cold = make()
    for layer in layers:
        want = layer_values_image(
            geometry, cold, values, layer, reduce=reduce, fill=-1.0
        )
        assert bits(images[layer]) == bits(want)
        on_layer = cold.nodes_on_layer(layer)
        reference = rasterize(
            geometry, on_layer, values[[node.index for node in on_layer]],
            reduce=reduce, fill=-1.0,
        )
        assert bits(images[layer]) == bits(reference)
