"""Tests for greedy pad placement."""

import pytest

from repro.opt.pad_placement import (
    _top_layer_candidates,
    _with_extra_pads,
    greedy_pad_placement,
)
from repro.solvers.powerrush import PowerRushSimulator
from repro.spice.ast import VoltageSource


def _brute_force_placement(netlist, budget_volts, max_new_pads, max_candidates):
    """Oracle: the same greedy loop, every candidate re-simulated from
    scratch (parse → stamp → AMG setup → converged solve) with
    :class:`PowerRushSimulator`.  Returns ``(added_pads, history)``."""
    simulator = PowerRushSimulator(tol=1e-10)
    report = simulator.simulate_netlist(netlist)
    supply_voltage = report.supply_voltage
    history = [report.worst_drop()]
    added: list[str] = []
    # One mutable working netlist for the whole sweep: trials append a
    # candidate source and pop it after simulation.
    working = _with_extra_pads(netlist, [], supply_voltage)
    for _ in range(max_new_pads):
        if history[-1] <= budget_volts:
            break
        candidates = _top_layer_candidates(
            report.grid, report.ir_drop, max_candidates, set(added)
        )
        best_name, best_worst, best_report = None, history[-1], None
        for candidate in candidates:
            working.voltage_sources.append(
                VoltageSource("Vtrial", candidate.name, "0", supply_voltage)
            )
            try:
                trial_report = simulator.simulate_netlist(working)
            finally:
                working.voltage_sources.pop()
            if trial_report.worst_drop() < best_worst:
                best_name = candidate.name
                best_worst = trial_report.worst_drop()
                best_report = trial_report
        if best_name is None:
            break
        added.append(best_name)
        history.append(best_worst)
        report = best_report
        working.voltage_sources.append(
            VoltageSource(f"Vopt{len(added)}", best_name, "0", supply_voltage)
        )
    return added, history


class TestGreedyPadPlacement:
    def test_adding_pads_reduces_worst_drop(self, real_design):
        baseline = PowerRushSimulator(tol=1e-10).simulate_grid(real_design.grid)
        result = greedy_pad_placement(
            real_design.netlist,
            budget_volts=baseline.worst_drop() * 0.01,  # unreachable target
            max_new_pads=2,
            max_candidates=8,
        )
        assert len(result.added_pads) >= 1
        assert result.improvement > 0
        history = result.worst_drop_history
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_budget_met_stops_early(self, fake_design):
        baseline = PowerRushSimulator(tol=1e-10).simulate_grid(fake_design.grid)
        generous = baseline.worst_drop() * 2.0
        result = greedy_pad_placement(
            fake_design.netlist, budget_volts=generous, max_new_pads=3
        )
        assert result.met_budget
        assert result.added_pads == []

    def test_final_netlist_contains_new_pads(self, real_design):
        result = greedy_pad_placement(
            real_design.netlist,
            budget_volts=1e-6,
            max_new_pads=1,
            max_candidates=6,
        )
        original = len(real_design.netlist.voltage_sources)
        assert (
            len(result.final_netlist.voltage_sources)
            == original + len(result.added_pads)
        )

    def test_final_netlist_simulates_to_reported_drop(self, real_design):
        result = greedy_pad_placement(
            real_design.netlist,
            budget_volts=1e-6,
            max_new_pads=1,
            max_candidates=6,
        )
        report = PowerRushSimulator(tol=1e-10).simulate_netlist(
            result.final_netlist
        )
        assert report.worst_drop() == pytest.approx(
            result.worst_drop_history[-1], rel=1e-6
        )

    def test_pads_added_on_top_layer(self, real_design):
        from repro.spice.nodes import parse_node_name

        result = greedy_pad_placement(
            real_design.netlist,
            budget_volts=1e-6,
            max_new_pads=1,
            max_candidates=6,
        )
        top = max(real_design.grid.layers_present())
        for name in result.added_pads:
            assert parse_node_name(name).layer == top

    def test_validation(self, fake_design):
        with pytest.raises(ValueError):
            greedy_pad_placement(fake_design.netlist, budget_volts=0.0)
        with pytest.raises(ValueError):
            greedy_pad_placement(
                fake_design.netlist, budget_volts=0.1, max_new_pads=0
            )

    def test_sweep_matches_brute_force(self, real_design):
        """The low-rank sweep must commit the same pads and report the
        same drops as from-scratch re-simulation of every candidate."""
        kwargs = dict(budget_volts=1e-6, max_new_pads=2, max_candidates=6)
        fast = greedy_pad_placement(real_design.netlist, **kwargs)
        added, history = _brute_force_placement(real_design.netlist, **kwargs)
        assert fast.added_pads == added
        assert fast.worst_drop_history == pytest.approx(history, rel=1e-6)
