"""Integration tests for the end-to-end pipeline."""

import numpy as np
import pytest

from repro.core.config import FusionConfig
from repro.core.pipeline import IRFusionPipeline
from repro.features.fusion import FeatureConfig
from repro.obs.registry import FEATURES, INFERENCE, SOLVE
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


@pytest.fixture(scope="module")
def trained(tiny_config):
    pipeline = IRFusionPipeline(tiny_config)
    pipeline.train()
    return pipeline


class TestDatasets:
    def test_design_split(self, trained, tiny_config):
        train, test = trained.generate_designs()
        assert len(train) == tiny_config.num_fake + tiny_config.num_real_train
        assert len(test) == tiny_config.num_real_test
        assert all(not d.is_fake for d in test)

    def test_designs_cached(self, trained):
        assert trained.generate_designs() is trained.generate_designs()

    def test_prepare_training_set_factors(self, tiny_config):
        pipeline = IRFusionPipeline(
            tiny_config.with_(augment=True, oversample_fake=2, oversample_real=5)
        )
        train_raw, _ = pipeline.build_datasets()
        prepared = pipeline.prepare_training_set(train_raw)
        fakes = sum(1 for s in prepared if s.is_fake)
        reals = len(prepared) - fakes
        assert fakes == 2 * 4 * 2  # designs x rotations x oversample
        assert reals == 1 * 4 * 5


class TestTraining:
    def test_history_recorded(self, trained, tiny_config):
        assert trained.trainer is not None
        assert trained.model is not None

    def test_predict_sample(self, trained):
        _, test = trained.build_datasets()
        prediction = trained.predict_sample(test[0])
        assert prediction.shape == test[0].label.shape

    def test_untrained_pipeline_raises(self, tiny_config):
        pipeline = IRFusionPipeline(tiny_config)
        with pytest.raises(RuntimeError):
            pipeline.predict_sample(None)

    def test_batch_spans_cover_train_wall_time(self, tiny_config):
        from repro.obs import trace

        pipeline = IRFusionPipeline(
            tiny_config.with_(train=TrainConfig(epochs=1, batch_size=2))
        )
        with trace() as tracer:
            pipeline.train()  # three samples: two batches
        (epoch,) = [s for s in tracer.root.iter_spans() if s.name == "train"]
        assert [c.name for c in epoch.children] == [
            "train_forward", "train_backward", "train_step",
        ] * 2  # fmt: skip
        assert sum(c.duration for c in epoch.children) >= 0.9 * epoch.duration


class TestAnalyze:
    def test_analyze_design(self, trained):
        _, test_designs = trained.generate_designs()
        result = trained.analyze_design(test_designs[0])
        assert result.predicted_drop.shape == test_designs[0].geometry.shape
        assert result.rough_drop is not None
        assert result.report is not None
        assert result.total_seconds > 0
        assert result.worst_predicted_drop() > 0

    def test_analyze_netlist_roundtrip(self, trained):
        _, test_designs = trained.generate_designs()
        result = trained.analyze_netlist(test_designs[0].netlist)
        direct = trained.analyze_design(test_designs[0])
        assert result.predicted_drop.shape == direct.predicted_drop.shape
        assert np.allclose(result.predicted_drop, direct.predicted_drop, atol=1e-9)

    def test_analyze_text(self, trained):
        from repro.spice.writer import netlist_to_string

        _, test_designs = trained.generate_designs()
        text = netlist_to_string(test_designs[0].netlist)
        result = trained.analyze_text(text)
        assert result.predicted_drop.max() > 0

    def test_diagnostics_carry_span_tree(self, trained):
        from repro.obs import Span

        _, test_designs = trained.generate_designs()
        result = trained.analyze_design(test_designs[0])
        assert result.diagnostics.trace is not None
        root = Span.from_dict(result.diagnostics.trace)
        assert root.name == "analyze"
        assert {c.name for c in root.children} >= {
            "solve", "features", "inference",
        }
        assert any("trace:" in line for line in result.diagnostics.summary_lines())

    def test_legacy_seconds_equal_span_durations(self, trained):
        from repro.obs import Span

        _, test_designs = trained.generate_designs()
        result = trained.analyze_design(test_designs[0])
        root = Span.from_dict(result.diagnostics.trace)
        assert result.solver_seconds == pytest.approx(
            root.find(SOLVE).duration, rel=1e-9
        )
        assert result.feature_seconds == pytest.approx(
            root.find(FEATURES).duration, rel=1e-9
        )
        assert result.model_seconds == pytest.approx(
            root.find(INFERENCE).duration, rel=1e-9
        )

    def test_stage_spans_cover_analyze_wall_time(self, trained):
        from repro.obs import Span

        _, test_designs = trained.generate_designs()
        result = trained.analyze_design(test_designs[0])
        root = Span.from_dict(result.diagnostics.trace)
        covered = (
            root.total(SOLVE)
            + root.total(FEATURES)
            + root.total(INFERENCE)
        )
        assert covered >= 0.9 * root.duration

    def test_spans_cover_analyze_text_wall_time(self, trained):
        from repro.obs import trace
        from repro.spice.writer import netlist_to_string

        _, test_designs = trained.generate_designs()
        text = netlist_to_string(test_designs[0].netlist)
        with trace() as tracer:
            trained.analyze_text(text)
        root = tracer.root
        assert [c.name for c in root.children] == ["parse", "grid_build", "analyze"]
        assert sum(c.duration for c in root.children) >= 0.9 * root.duration
        # validation and stamping are told apart inside the numerical stage
        assert {"validate", "stamp"} <= {c.name for c in root.find(SOLVE).children}

    def test_analyze_without_numerical_stage(self, tiny_config):
        config = tiny_config.with_(
            features=FeatureConfig(use_numerical=False)
        )
        pipeline = IRFusionPipeline(config)
        pipeline.train()
        _, test_designs = pipeline.generate_designs()
        result = pipeline.analyze_design(test_designs[0])
        assert result.rough_drop is None
        assert result.report is None
        assert result.solver_seconds == 0.0


class TestPersistence:
    def test_save_load_roundtrip(self, trained, tiny_config, tmp_path):
        path = tmp_path / "fusion.npz"
        trained.save_model(path)
        _, test = trained.build_datasets()
        expected = trained.predict_sample(test[0])

        fresh = IRFusionPipeline(tiny_config)
        fresh.load_model(path, in_channels=len(test.channels))
        restored = fresh.predict_sample(test[0])
        assert np.allclose(expected, restored)

    def test_save_untrained_rejected(self, tiny_config, tmp_path):
        with pytest.raises(RuntimeError):
            IRFusionPipeline(tiny_config).save_model(tmp_path / "x.npz")


class TestMixedBudgetTraining:
    def test_mix_multiplies_training_set(self, tiny_config):
        config = tiny_config.with_(solver_iteration_mix=(1, 3))
        pipeline = IRFusionPipeline(config)
        train, test = pipeline.build_datasets()
        single = IRFusionPipeline(tiny_config)
        train_single, _ = single.build_datasets()
        assert len(train) == 2 * len(train_single)
        # test set is unaffected by the mix
        assert len(test) == len(tiny_config.num_real_test * [None])

    def test_mix_samples_have_different_roughness(self, tiny_config):
        import numpy as np

        config = tiny_config.with_(solver_iteration_mix=(1, 8))
        pipeline = IRFusionPipeline(config)
        train, _ = pipeline.build_datasets()
        half = len(train) // 2
        rough_1 = train[0].rough_label
        rough_8 = train[half].rough_label
        assert train[0].name == train[half].name  # same design
        err_1 = np.abs(rough_1 - train[0].label).mean()
        err_8 = np.abs(rough_8 - train[half].label).mean()
        assert err_8 < err_1
