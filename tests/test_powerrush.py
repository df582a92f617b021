"""Unit/integration tests for the PowerRush simulator facade."""

import numpy as np
import pytest

from repro.data.synthetic import generate_design, make_real_spec
from repro.solvers.amg import AMGOptions, build_hierarchy
from repro.solvers.direct import DirectSolver
from repro.mna.stamper import build_reduced_system
from repro.solvers.powerrush import PRESETS, PowerRushSimulator
from repro.spice.writer import netlist_to_string


class TestSimulate:
    def test_simulate_text_matches_direct(self, fake_design):
        text = netlist_to_string(fake_design.netlist)
        report = PowerRushSimulator(tol=1e-12).simulate_text(text)
        system = build_reduced_system(fake_design.grid)
        golden = system.scatter(DirectSolver().solve(system.matrix, system.rhs).x)
        assert np.allclose(report.voltages, golden, atol=1e-8)

    def test_simulate_file(self, tmp_path, fake_design):
        path = tmp_path / "design.sp"
        path.write_text(netlist_to_string(fake_design.netlist))
        report = PowerRushSimulator().simulate_file(path)
        assert report.grid.num_nodes == fake_design.grid.num_nodes

    def test_ir_drop_non_negative_at_convergence(self, fake_design):
        report = PowerRushSimulator(tol=1e-12).simulate_grid(fake_design.grid)
        assert report.ir_drop.min() > -1e-9

    def test_pads_have_zero_drop(self, fake_design):
        report = PowerRushSimulator(tol=1e-12).simulate_grid(fake_design.grid)
        for pad in fake_design.grid.pads():
            assert report.ir_drop[pad.index] == pytest.approx(0.0, abs=1e-12)

    def test_worst_drop_positive(self, fake_design):
        report = PowerRushSimulator(tol=1e-12).simulate_grid(fake_design.grid)
        assert report.worst_drop() > 0

    # The quality preset's 1000-unknown coarsest level is the whole of a
    # 16 px design (one exact LU solve); the default 64 keeps it iterative.
    def test_iteration_cap_respected(self, fake_design):
        report = PowerRushSimulator(
            max_iterations=2, tol=1e-16, amg_options=AMGOptions()
        ).simulate_grid(fake_design.grid)
        assert report.solve.iterations == 2

    def test_more_iterations_more_accurate(self, fake_design):
        golden = PowerRushSimulator(tol=1e-12).simulate_grid(fake_design.grid)
        errors = []
        for budget in (1, 4):
            rough = PowerRushSimulator(
                max_iterations=budget, tol=1e-16, amg_options=AMGOptions()
            ).simulate_grid(fake_design.grid)
            errors.append(np.abs(rough.voltages - golden.voltages).mean())
        assert errors[1] < errors[0]

    def test_drop_image_shape(self, fake_design):
        report = PowerRushSimulator().simulate_grid(fake_design.grid)
        image = report.drop_image(fake_design.geometry)
        assert image.shape == fake_design.geometry.shape
        assert image.max() == pytest.approx(
            max(
                report.ir_drop[n.index]
                for n in fake_design.grid.nodes_on_layer(1)
            )
        )

    def test_layer_drop_images(self, fake_design):
        report = PowerRushSimulator().simulate_grid(fake_design.grid)
        images = report.layer_drop_images(fake_design.geometry)
        assert sorted(images) == fake_design.grid.layers_present()
        # drops shrink toward the top (closer to pads)
        assert images[1].max() >= images[3].max()

    def test_supply_voltage_inferred(self, fake_design):
        report = PowerRushSimulator().simulate_grid(fake_design.grid)
        assert report.supply_voltage == fake_design.spec.supply_voltage

    def test_kirchhoff_current_balance(self, fake_design):
        """Pad inflow equals total load current (KCL sanity)."""
        report = PowerRushSimulator(tol=1e-13).simulate_grid(fake_design.grid)
        grid = fake_design.grid
        node_a, node_b, resistance = grid.wire_arrays()
        flow = (report.voltages[node_a] - report.voltages[node_b]) / resistance
        is_pad = ~np.isnan(grid.pad_voltage)
        inflow = flow[is_pad[node_a]].sum() - flow[is_pad[node_b]].sum()
        assert inflow == pytest.approx(grid.load_current.sum(), rel=1e-6)


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            PowerRushSimulator(preset="turbo")

    def test_fast_preset_converges_slower_per_iteration(self, fake_design):
        quality = PowerRushSimulator(
            max_iterations=3, tol=1e-16, preset="quality"
        ).simulate_grid(fake_design.grid)
        fast = PowerRushSimulator(
            max_iterations=3, tol=1e-16, preset="fast"
        ).simulate_grid(fake_design.grid)
        golden = PowerRushSimulator(tol=1e-12).simulate_grid(fake_design.grid)
        err_quality = np.abs(quality.voltages - golden.voltages).mean()
        err_fast = np.abs(fast.voltages - golden.voltages).mean()
        assert err_fast > err_quality

    def test_fast_preset_still_converges_eventually(self, fake_design):
        report = PowerRushSimulator(tol=1e-10, preset="fast").simulate_grid(
            fake_design.grid
        )
        assert report.solve.converged

    def test_flat_initial_guess_zero_iterations(self, fake_design):
        """With 0 iterations the report is exactly the flat v=vdd guess."""
        report = PowerRushSimulator(
            max_iterations=0, tol=1e-16
        ).simulate_grid(fake_design.grid)
        assert np.allclose(report.ir_drop, 0.0)

    def test_flat_start_one_iteration_beats_nothing(self, fake_design):
        """One iteration from the flat guess already orders the drops."""
        golden = PowerRushSimulator(tol=1e-12).simulate_grid(fake_design.grid)
        rough = PowerRushSimulator(max_iterations=1, tol=1e-16).simulate_grid(
            fake_design.grid
        )
        correlation = np.corrcoef(rough.ir_drop, golden.ir_drop)[0, 1]
        assert correlation > 0.8


class TestQualityCutoff:
    """The quality preset stops coarsening at 1000 unknowns, not 64.

    On 48 px real designs that still leaves a K-cycle over at least two
    levels, and the solve to 1e-10 takes no more iterations than the
    64-unknown hierarchy did (recorded below, one per design seed).
    """

    #: PCG iterations to 1e-10 with the 64-unknown cutoff, seeds 0..7.
    PARENT_ITERATIONS = (16, 16, 16, 15, 17, 17, 16, 16)

    def test_real_48px_hierarchy_and_iterations(self):
        iterations = []
        for seed, parent in enumerate(self.PARENT_ITERATIONS):
            design = generate_design(make_real_spec(f"r{seed}", seed=seed, pixels=48))
            report = PowerRushSimulator(tol=1e-10, preset="quality").simulate_grid(
                design.grid
            )
            hierarchy = build_hierarchy(report.system.matrix, PRESETS["quality"][0])
            assert hierarchy.num_levels >= 3
            assert hierarchy.levels[-1].size <= 1000
            assert report.solve.converged
            assert report.solve.iterations <= parent + 1
            iterations.append(report.solve.iterations)
        assert np.median(iterations) <= np.median(self.PARENT_ITERATIONS)
