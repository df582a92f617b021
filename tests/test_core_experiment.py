"""Tests for the Table-I / Fig-7 / Fig-8 experiment runners (tiny scale)."""

import pytest

from repro.core.config import FusionConfig
from repro.core.pipeline import IRFusionPipeline
from repro.core.experiment import (
    ABLATION_VARIANTS,
    run_ablation_study,
    run_main_results,
    run_tradeoff_study,
)
from repro.train.trainer import TrainConfig


@pytest.fixture(scope="module")
def tiny_config():
    return FusionConfig(
        pixels=16,
        num_fake=2,
        num_real_train=1,
        num_real_test=1,
        base_channels=4,
        depth=2,
        train=TrainConfig(epochs=2, batch_size=4),
        augment=False,
        oversample_fake=1,
        oversample_real=1,
    )


class TestMainResults:
    def test_two_method_subset(self, tiny_config):
        results = run_main_results(
            tiny_config, model_names=["iredge", "ir_fusion"]
        )
        assert set(results) == {"IREDGe", "IR-Fusion (Ours)"}
        for metrics in results.values():
            assert metrics.mae >= 0
            assert 0 <= metrics.f1 <= 1
            assert metrics.runtime_seconds > 0

    def test_fusion_runtime_includes_solver(self, tiny_config):
        results = run_main_results(
            tiny_config, model_names=["iredge", "ir_fusion"]
        )
        # the fusion flow runs AMG-PCG per design, baselines do not
        assert (
            results["IR-Fusion (Ours)"].runtime_seconds
            > results["IREDGe"].runtime_seconds
        )

    def test_runtime_column_analyses_a_cold_grid(self, tiny_config, monkeypatch):
        seen = []
        analyze_grid = IRFusionPipeline.analyze_grid

        def spy(pipeline, grid, geometry, supply_voltage):
            _, test_designs = pipeline.generate_designs()
            warm = [bool(design.grid._memo) for design in test_designs]
            seen.append((dict(grid._memo), warm))
            return analyze_grid(pipeline, grid, geometry, supply_voltage)

        monkeypatch.setattr(IRFusionPipeline, "analyze_grid", spy)
        run_main_results(tiny_config, model_names=["ir_fusion"])
        # The dataset build memoised the test design; the timed run did not
        # see that memo.
        assert seen == [({}, [True])]


class TestTradeoff:
    def test_sweep_structure(self, tiny_config):
        result = run_tradeoff_study(tiny_config, iterations=[1, 2, 4])
        assert result.iterations == [1, 2, 4]
        assert len(result.powerrush_mae) == 3
        assert len(result.fusion_f1) == 3

    def test_powerrush_error_decreases_with_iterations(self, tiny_config):
        result = run_tradeoff_study(tiny_config, iterations=[1, 6])
        assert result.powerrush_mae[1] < result.powerrush_mae[0]

    def test_fusion_wins_mae_at(self, tiny_config):
        result = run_tradeoff_study(tiny_config, iterations=[1, 2])
        crossing = result.fusion_wins_mae_at()
        assert crossing is None or crossing in result.iterations


class TestAblation:
    def test_single_variant(self, tiny_config):
        result = run_ablation_study(tiny_config, variants=["w/o CBAM"])
        assert "w/o CBAM" in result.variants
        assert result.full.mae >= 0
        # deltas are finite numbers
        assert result.mae_increase_percent("w/o CBAM") == pytest.approx(
            100.0
            * (result.variants["w/o CBAM"].mae - result.full.mae)
            / result.full.mae
        )
        assert isinstance(result.f1_decrease_percent("w/o CBAM"), float)

    def test_unknown_variant_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            run_ablation_study(tiny_config, variants=["w/o Magic"])

    def test_variant_catalogue_matches_figure8(self):
        assert set(ABLATION_VARIANTS) == {
            "w/o Num. Solu.",
            "w/o Hier. Feat.",
            "w/o Inception",
            "w/o CBAM",
            "w/o Data Aug.",
            "w/o Curr. Lear.",
        }


class TestTradeoffHelpers:
    def test_equivalent_powerrush_iterations(self):
        from repro.core.experiment import TradeoffResult

        result = TradeoffResult(
            iterations=[1, 2, 3, 4],
            powerrush_mae=[10.0, 5.0, 2.0, 1.0],
            powerrush_f1=[0, 0, 0.5, 0.9],
            fusion_mae=[3.0, 1.5, 1.2, 1.0],
            fusion_f1=[0.5, 0.7, 0.8, 0.9],
        )
        # fusion at 2 iterations (1.5) is only matched by powerrush at 4
        assert result.equivalent_powerrush_iterations(at=2) == 4
        # fusion at 1 iteration (3.0) matched by powerrush at 3
        assert result.equivalent_powerrush_iterations(at=1) == 3

    def test_equivalent_never_reached(self):
        from repro.core.experiment import TradeoffResult

        result = TradeoffResult(
            iterations=[1, 2],
            powerrush_mae=[10.0, 5.0],
            powerrush_f1=[0, 0],
            fusion_mae=[1.0, 1.0],
            fusion_f1=[0.9, 0.9],
        )
        assert result.equivalent_powerrush_iterations(at=1) is None
