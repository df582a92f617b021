"""Tests for the optimiser state snapshot and NaN-loss recovery."""

import numpy as np
import pytest

from repro.models import IRFusionNet
from repro.testing.faults import FaultPlan
from repro.train.trainer import TrainConfig, Trainer


def make_model(dataset):
    return IRFusionNet(
        in_channels=len(dataset.channels), base_channels=4, depth=2, seed=0
    )


def state_of(trainer):
    return {k: v.copy() for k, v in trainer.model.state_dict().items()}


def assert_states_equal(a, b):
    assert sorted(a) == sorted(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


class TestOptimizerState:
    def test_adam_state_roundtrip(self, tiny_dataset):
        trainer = Trainer(
            make_model(tiny_dataset), config=TrainConfig(epochs=2, batch_size=2)
        )
        trainer.fit(tiny_dataset)
        state = trainer.optimizer.state_dict()
        assert int(state["t"]) > 0
        other = Trainer(
            make_model(tiny_dataset), config=TrainConfig(epochs=1, batch_size=2)
        )
        other.optimizer.load_state_dict(state)
        assert_states_equal(other.optimizer.state_dict(), state)

    def test_adam_rejects_mismatched_state(self, tiny_dataset):
        trainer = Trainer(make_model(tiny_dataset))
        with pytest.raises(KeyError, match="Adam state mismatch"):
            trainer.optimizer.load_state_dict({"m.0": np.zeros(1)})


class TestNaNRecovery:
    def test_recovery_reloads_and_halves_lr(self, tiny_dataset):
        plan = FaultPlan(nan_loss_epochs={1})
        trainer = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(epochs=4, batch_size=2, lr=2e-3),
            fault_hook=plan.loss_hook,
        )
        history = trainer.fit(tiny_dataset)
        assert history.recoveries == [1]
        assert plan.fired("nan_loss") == 1
        assert history.aborted is None
        assert np.isnan(history.epoch_losses[1])
        assert np.isfinite(history.final_loss)
        # LR halves from the recovery epoch onwards.
        assert history.learning_rates[0] == pytest.approx(2e-3)
        assert history.learning_rates[2] == pytest.approx(1e-3)
        assert history.learning_rates[3] == pytest.approx(1e-3)

    def test_recovered_run_keeps_training(self, tiny_dataset):
        plan = FaultPlan(nan_loss_epochs={1})
        trainer = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(epochs=6, batch_size=2, lr=2e-3),
            fault_hook=plan.loss_hook,
        )
        history = trainer.fit(tiny_dataset)
        finite = [l for l in history.epoch_losses if np.isfinite(l)]
        assert len(finite) == 5
        assert finite[-1] < finite[0]

    def test_abort_after_max_recoveries(self, tiny_dataset):
        plan = FaultPlan(nan_loss_epochs=set(range(8)))
        trainer = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(epochs=8, batch_size=2),
            fault_hook=plan.loss_hook,
        )
        history = trainer.fit(tiny_dataset)
        assert history.aborted == "nan_loss"
        # Three recoveries survive; the fourth NaN epoch ends the run.
        assert history.recoveries == [0, 1, 2, 3]
        assert len(history.epoch_losses) == 4

    def test_abort_restores_last_good_weights(self, tiny_dataset):
        trainer = Trainer(
            make_model(tiny_dataset), config=TrainConfig(epochs=8, batch_size=2)
        )
        initial = state_of(trainer)
        initial_optim = trainer.optimizer.state_dict()

        def poison(epoch, loss):
            for parameter in trainer.model.parameters():
                parameter.data[...] = np.nan
            return float("nan")

        trainer.fault_hook = poison
        history = trainer.fit(tiny_dataset)
        assert history.aborted == "nan_loss"
        # Every epoch was sick, so the last good state is the initial one.
        assert_states_equal(state_of(trainer), initial)
        assert_states_equal(trainer.optimizer.state_dict(), initial_optim)
