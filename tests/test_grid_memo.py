"""The per-state memo of a :class:`PowerGrid`.

A grid analysed twice pays once for what depends on it alone: the
validation report, the stamped system, the structural feature channels
and the golden voltages.  These tests hold the memo to three promises:
an answer from it is bitwise the answer a fresh grid gives, every edit
through a mutator starts it over, and nothing a caller is handed can
change a later analysis.  The benchmark's ``grid_warm`` check cannot see
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
from repro.mna import stamper
from repro.solvers import powerrush
from repro.solvers.powerrush import PowerRushSimulator
from repro.testing.faults import FaultPlan

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


def test_memo_hit_matches_fresh_grid_and_computes_once(monkeypatch):
    calls: dict[str, int] = {}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(powerrush, "validate_grid")
    counting(stamper, "build_reduced_system")
    counting(fusion, "effective_distance_map")
    counting(dataset, "validate_connectivity")

    design = fresh_design()
    first = analyse(design)
    hit = analyse(design)
    # Once per grid state: validate, stamp, label; two feature configs.
    assert calls == {
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

    again = analyse(design)
    assert {key: bits(value) for key, value in again.items()} == want


def system_bits(system):
    matrix = system.matrix
    return bits([matrix.data, matrix.indices, matrix.indptr, system.rhs,
                 system.unknown_indices])


def test_fallback_cascade_leaves_memoised_system_unchanged():
    design = fresh_design()
    system = PowerRushSimulator().simulate_grid(design.grid).system
    want = system_bits(system)

    plan = FaultPlan(nan_residual={"amg_pcg": 1, "amg_pcg_retry": 1, "jacobi_pcg": 1})
    report = PowerRushSimulator(fault_hook=plan.residual_hook).simulate_grid(
        design.grid
    )
    assert [a.solver for a in report.diagnostics.solver.attempts] == [
        "amg_pcg", "amg_pcg_retry", "jacobi_pcg", "direct",
    ]
    assert np.shares_memory(report.system.rhs, system.rhs)
    assert system_bits(report.system) == want
    assert system_bits(stamper.build_reduced_system(fresh_design().grid)) == want
