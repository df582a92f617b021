"""Unit tests for the trainer (loop, residual learning, curriculum)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.dataset import IRDropDataset
from repro.models import IREDGe, IRFusionNet
from repro.train.trainer import LABEL_SCALE, TrainConfig, Trainer


def make_model(dataset, cls=IRFusionNet, **kwargs):
    return cls(
        in_channels=len(dataset.channels), base_channels=4, depth=2, seed=0, **kwargs
    )


class TestFit:
    def test_loss_decreases(self, tiny_dataset):
        trainer = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(epochs=6, batch_size=2, lr=2e-3),
        )
        history = trainer.fit(tiny_dataset)
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_history_lengths(self, tiny_dataset):
        trainer = Trainer(
            make_model(tiny_dataset), config=TrainConfig(epochs=3, batch_size=2)
        )
        history = trainer.fit(tiny_dataset)
        assert len(history.epoch_losses) == 3
        assert len(history.epoch_sizes) == 3
        assert len(history.learning_rates) == 3
        assert history.final_loss == history.epoch_losses[-1]

    def test_empty_dataset_rejected(self, tiny_dataset):
        trainer = Trainer(make_model(tiny_dataset))
        with pytest.raises(ValueError):
            trainer.fit(IRDropDataset([]))

    def test_curriculum_grows_subsets(self, tiny_dataset):
        trainer = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(epochs=6, batch_size=2, use_curriculum=True),
        )
        history = trainer.fit(tiny_dataset)
        assert history.epoch_sizes[0] < history.epoch_sizes[-1]

    def test_healthy_fit_steps_at_config_lr(self, tiny_dataset):
        trainer = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(epochs=4, batch_size=2, lr=1e-2),
        )
        history = trainer.fit(tiny_dataset)
        assert history.recoveries == []
        assert history.learning_rates == [1e-2] * 4
        assert trainer.optimizer.lr == 1e-2

    def test_fit_is_deterministic_with_shuffled_batches(self, tiny_dataset):
        # With four batches of one sample the shuffle order reaches the
        # weights; two independent fits must still agree to the bit.
        dataset = IRDropDataset(tiny_dataset.samples * 2)
        runs = []
        for _ in range(2):
            trainer = Trainer(
                make_model(dataset),
                config=TrainConfig(epochs=3, batch_size=1, lr=2e-3),
            )
            history = trainer.fit(dataset)
            runs.append(
                (history.epoch_losses, trainer.model.state_dict(),
                 trainer.optimizer.state_dict())
            )
        (losses_a, model_a, optim_a), (losses_b, model_b, optim_b) = runs
        assert losses_a == losses_b
        for a, b in ((model_a, model_b), (optim_a, optim_b)):
            assert sorted(a) == sorted(b)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)

    def test_workspaces_released_after_fit(self, tiny_dataset):
        trainer = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(epochs=3, batch_size=2, lr=2e-3),
        )
        trainer.fit(tiny_dataset)
        assert sum(w.nbytes for w in trainer.model.workspaces()) == 0


class TestResidualLearning:
    def test_untrained_fusion_predicts_rough(self, tiny_dataset):
        """Zero-init head + residual learning == rough numerical solution."""
        trainer = Trainer(make_model(tiny_dataset), config=TrainConfig())
        predictions = trainer.predict(tiny_dataset)
        for prediction, sample in zip(predictions, tiny_dataset):
            assert np.allclose(prediction, sample.rough_label, atol=1e-12)

    def test_residual_disabled_without_rough(self, fake_design):
        from repro.data.dataset import build_sample
        from repro.features.fusion import FeatureConfig

        sample = build_sample(fake_design, FeatureConfig(use_numerical=False))
        dataset = IRDropDataset([sample])
        trainer = Trainer(make_model(dataset), config=TrainConfig())
        prediction = trainer.predict(dataset)
        assert np.allclose(prediction, 0.0)  # zero-init head, no residual base

    def test_training_improves_on_rough(self, tiny_dataset):
        """After fitting, train-set MAE must beat the rough solution."""
        trainer = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(epochs=15, batch_size=2, lr=2e-3),
        )
        trainer.fit(tiny_dataset)
        predictions = trainer.predict(tiny_dataset)
        for prediction, sample in zip(predictions, tiny_dataset):
            fused = np.abs(prediction - sample.label).mean()
            rough = np.abs(sample.rough_label - sample.label).mean()
            assert fused < rough


class TestPredict:
    def test_shapes(self, tiny_dataset):
        trainer = Trainer(make_model(tiny_dataset), config=TrainConfig())
        predictions = trainer.predict(tiny_dataset)
        assert predictions.shape == (2, 16, 16)

    def test_empty_rejected(self, tiny_dataset):
        trainer = Trainer(make_model(tiny_dataset), config=TrainConfig())
        with pytest.raises(ValueError):
            trainer.predict([])

    def test_residual_add_runs_in_float64(self, tiny_dataset):
        trainer = Trainer(
            make_model(tiny_dataset), config=TrainConfig(epochs=2, batch_size=2)
        )
        trainer.fit(tiny_dataset)  # a non-zero correction
        x = np.stack([s.features.data for s in tiny_dataset])
        out = trainer.inference_plan()(x)
        assert out.dtype == np.float32 and np.abs(out).max() > 0
        rough = np.stack([s.rough_label for s in tiny_dataset])
        got = trainer.predict(tiny_dataset)
        assert got.dtype == np.float64
        assert np.array_equal(
            got, rough + out[:, 0].astype(np.float64) / LABEL_SCALE
        )
        narrow = rough.astype(np.float32) + out[:, 0] / np.float32(LABEL_SCALE)
        assert not np.array_equal(got, narrow.astype(np.float64))

    def test_direct_regression_output_is_float64(self, tiny_dataset):
        # No rough solution on any sample: the network regresses directly.
        dataset = IRDropDataset(
            [replace(s, rough_label=None) for s in tiny_dataset]
        )
        trainer = Trainer(
            make_model(dataset), config=TrainConfig(epochs=1, batch_size=2)
        )
        trainer.fit(dataset)
        out = trainer.inference_plan()(np.stack([s.features.data for s in dataset]))
        got = trainer.predict(dataset)
        assert got.dtype == np.float64
        assert np.array_equal(got, out[:, 0].astype(np.float64) / LABEL_SCALE)

    def test_model_left_in_train_mode(self, tiny_dataset):
        trainer = Trainer(make_model(tiny_dataset), config=TrainConfig())
        trainer.predict(tiny_dataset)
        assert trainer.model.training


class TestTrainConfigValidation:
    def test_defaults_sane(self):
        config = TrainConfig()
        assert config.epochs > 0 and config.batch_size > 0 and config.lr > 0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("epochs", 0),
            ("epochs", 2.5),
            ("batch_size", 0),
            ("batch_size", -2),
            ("lr", 0.0),
            ("lr", float("nan")),
            ("lr", float("inf")),
        ],
    )
    def test_out_of_range_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"TrainConfig.{field}"):
            TrainConfig(**{field: value})


class _BatchSizeLoss:
    """Stub loss returning the batch size, with zero gradients."""

    def forward(self, prediction, target):
        self._shape = prediction.shape
        self._dtype = prediction.dtype
        return float(len(prediction))

    def backward(self):
        return np.zeros(self._shape, dtype=self._dtype)


def five_sample_dataset(tiny_dataset):
    samples = list(tiny_dataset)
    return IRDropDataset(samples * 2 + samples[:1])


class TestEpochLossWeighting:
    def test_short_trailing_batch_weighted_by_samples(self, tiny_dataset):
        # 5 samples at batch_size=2 -> batches of 2, 2, 1.  The stub loss
        # returns the batch size, so the sample-weighted epoch loss is
        # (2*2 + 2*2 + 1*1) / 5; a plain mean over batches would say 5/3.
        dataset = five_sample_dataset(tiny_dataset)
        trainer = Trainer(
            make_model(dataset),
            loss=_BatchSizeLoss(),
            config=TrainConfig(epochs=1, batch_size=2),
        )
        history = trainer.fit(dataset)
        assert history.epoch_losses[0] == pytest.approx(9 / 5)
