"""Full-flow integration tests: spice text in, refined IR-drop map out."""

import numpy as np
import pytest

from repro.core.config import FusionConfig
from repro.core.pipeline import IRFusionPipeline
from repro.data.dataset import IRDropDataset, build_sample
from repro.data.synthetic import generate_design, make_fake_spec
from repro.solvers.powerrush import PowerRushSimulator
from repro.spice.parser import parse_spice_file
from repro.spice.writer import netlist_to_string
from repro.train.trainer import TrainConfig


class TestSolverChainConsistency:
    """The same design must give identical answers through every entry."""

    def test_text_file_netlist_agree(self, tmp_path, fake_design):
        text = netlist_to_string(fake_design.netlist)
        path = tmp_path / "d.sp"
        path.write_text(text)
        simulator = PowerRushSimulator(tol=1e-12)
        by_text = simulator.simulate_text(text)
        by_file = PowerRushSimulator(tol=1e-12).simulate_file(path)
        by_grid = PowerRushSimulator(tol=1e-12).simulate_grid(fake_design.grid)
        assert np.allclose(by_text.voltages, by_file.voltages, atol=1e-10)
        assert np.allclose(by_text.voltages, by_grid.voltages, atol=1e-8)

    def test_sample_label_is_solver_limit(self, fake_design):
        """As iterations grow, the rough map converges to the golden label."""
        sample = build_sample(fake_design, solver_iterations=50)
        assert np.abs(sample.rough_label - sample.label).max() < 1e-8


class TestEndToEndLearning:
    def test_fusion_beats_rough_on_training_distribution(self):
        """Core claim, in-miniature: ML refinement improves the rough map."""
        designs = [
            generate_design(make_fake_spec(f"t{i}", seed=100 + i, pixels=16))
            for i in range(3)
        ]
        dataset = IRDropDataset.from_designs(designs, solver_iterations=2)
        from repro.models import IRFusionNet
        from repro.train.trainer import Trainer

        model = IRFusionNet(
            in_channels=len(dataset.channels), base_channels=4, depth=2, seed=0
        )
        trainer = Trainer(
            model, config=TrainConfig(epochs=12, batch_size=3, lr=2e-3)
        )
        trainer.fit(dataset)
        predictions = trainer.predict(dataset)
        fused_mae = np.mean(
            [
                np.abs(p - s.label).mean()
                for p, s in zip(predictions, dataset)
            ]
        )
        rough_mae = np.mean(
            [np.abs(s.rough_label - s.label).mean() for s in dataset]
        )
        assert fused_mae < rough_mae

    def test_pipeline_analysis_close_to_golden_when_converged(self):
        """With a huge solver budget, the pipeline output ~= golden map even
        though the ML correction is whatever training produced."""
        config = FusionConfig(
            pixels=16,
            num_fake=2,
            num_real_train=1,
            num_real_test=1,
            base_channels=4,
            depth=2,
            solver_iterations=60,
            train=TrainConfig(epochs=1, batch_size=4),
            augment=False,
            oversample_fake=1,
            oversample_real=1,
        )
        pipeline = IRFusionPipeline(config)
        pipeline.train()
        _, test_designs = pipeline.generate_designs()
        result = pipeline.analyze_design(test_designs[0])
        from repro.data.dataset import golden_ir_drop

        golden = golden_ir_drop(test_designs[0])
        # rough stage is converged; prediction = converged + small correction
        assert np.abs(result.rough_drop - golden).max() < 1e-6
        assert (
            np.abs(result.predicted_drop - golden).mean()
            < 0.5 * golden.mean() + 1e-6
        )


class TestDataFormatsInterop:
    def test_export_then_simulate_iccad_design(self, tmp_path, fake_design):
        from repro.data.iccad import save_iccad_design
        from repro.data.dataset import golden_ir_drop
        from repro.features.current import load_current_map
        from repro.features.distance import effective_distance_map

        save_iccad_design(
            tmp_path / "design",
            fake_design.netlist,
            {
                "current": load_current_map(
                    fake_design.geometry, fake_design.grid
                ),
                "eff_dist": effective_distance_map(
                    fake_design.geometry, fake_design.grid
                ),
                "ir_drop": golden_ir_drop(fake_design),
            },
        )
        netlist = parse_spice_file(tmp_path / "design" / "netlist.sp")
        golden = np.loadtxt(tmp_path / "design" / "ir_drop_map.csv", delimiter=",")
        report = PowerRushSimulator(tol=1e-12).simulate_netlist(netlist)
        image = report.drop_image(fake_design.geometry)
        assert np.allclose(image, golden, atol=1e-7)


class TestSolverCrossValidation:
    """Every solver family must agree on the same PG system."""

    def test_direct_cg_and_amg_pcg_agree(self, fake_design):
        from repro.mna.stamper import build_reduced_system
        from repro.solvers.amg_pcg import AMGPCGSolver
        from repro.solvers.base import SolverOptions
        from repro.solvers.cg import CGSolver
        from repro.solvers.direct import DirectSolver

        system = build_reduced_system(fake_design.grid)
        options = SolverOptions(tol=1e-11, max_iterations=5000)
        solutions = {
            "direct": DirectSolver().solve(system.matrix, system.rhs).x,
            "cg": CGSolver(options).solve(system.matrix, system.rhs).x,
            "amg_pcg": AMGPCGSolver(options).solve(
                system.matrix, system.rhs
            ).x,
        }
        reference = solutions.pop("direct")
        for name, x in solutions.items():
            assert np.allclose(x, reference, atol=1e-6), name
