"""Tests for training checkpoints, bit-exact resume and NaN-loss recovery."""

import numpy as np
import pytest

from repro.data.dataset import IRDropDataset
from repro.models import IRFusionNet
from repro.nn.serialize import load_checkpoint, save_checkpoint
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


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        arrays = {"model/w": np.arange(6.0).reshape(2, 3), "optim/t": np.int64(4)}
        meta = {"epoch": 3, "nested": {"lr_scale": 0.25}, "note": "hello"}
        save_checkpoint(path, arrays, meta)
        loaded_arrays, loaded_meta = load_checkpoint(path)
        assert_states_equal(
            {k: np.asarray(v) for k, v in arrays.items()}, loaded_arrays
        )
        assert loaded_meta == meta

    def test_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, w=np.zeros(3))
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, {"a": np.zeros(2)}, {"epoch": 0})
        leftovers = [p.name for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []


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


class TestBitExactResume:
    def test_resume_matches_uninterrupted_run(self, tiny_dataset, tmp_path):
        self._check_resume_matches(tiny_dataset, tmp_path, batch_size=2)

    def test_resume_matches_uninterrupted_shuffled_run(
        self, tiny_dataset, tmp_path
    ):
        # With four batches of one sample the shuffle order reaches the
        # weights, so a resume must replay it too.
        dataset = IRDropDataset(tiny_dataset.samples * 2)
        self._check_resume_matches(dataset, tmp_path, batch_size=1)

    def test_resume_from_a_checkpoint_with_loss_scale_meta(
        self, tiny_dataset, tmp_path
    ):
        # Checkpoints written while the trainer had a mixed-precision
        # loss-scale guard carry its state; an fp64 run wrote these values.
        def add_loss_scale_meta(ckpt):
            arrays, meta = load_checkpoint(ckpt)
            meta["loss_scale"] = 1.0
            meta["history"]["overflow_steps"] = 0
            save_checkpoint(ckpt, arrays, meta)

        self._check_resume_matches(
            tiny_dataset, tmp_path, batch_size=2, rewrite=add_loss_scale_meta
        )

    def test_resume_from_a_float64_checkpoint(self, tiny_dataset, tmp_path):
        # Checkpoints written while the network was float64 hold float64
        # weights and Adam moments; each loads through one cast to float32.
        def widen(ckpt):
            arrays, meta = load_checkpoint(ckpt)
            wide = {
                key: value.astype(np.float64) if value.dtype == np.float32 else value
                for key, value in arrays.items()
            }
            save_checkpoint(ckpt, wide, meta)

        self._check_resume_matches(
            tiny_dataset, tmp_path, batch_size=2, rewrite=widen
        )

    def test_float64_checkpoint_loads_as_its_float32_rounding(
        self, tiny_dataset, tmp_path
    ):
        ckpt = tmp_path / "wide.npz"
        config = dict(batch_size=2, checkpoint_every=1, checkpoint_path=str(ckpt))
        Trainer(
            make_model(tiny_dataset), config=TrainConfig(epochs=1, **config)
        ).fit(tiny_dataset)
        arrays, meta = load_checkpoint(ckpt)
        # float64 values float32 cannot hold, as a float64 network wrote them.
        jitter = np.random.default_rng(0)
        wide = {
            key: value * (1.0 + 1e-9 * jitter.uniform(size=value.shape))
            if value.dtype == np.float32
            else value
            for key, value in arrays.items()
        }
        assert all(v.dtype != np.float32 for v in wide.values())
        save_checkpoint(ckpt, wide, meta)
        # Resumed with nothing left to train: the state is the loaded one.
        loaded = Trainer(
            make_model(tiny_dataset), config=TrainConfig(epochs=1, batch_size=2)
        )
        loaded.fit(tiny_dataset, resume_from=str(ckpt))
        states = {
            "model/": loaded.model.state_dict(),
            "optim/": loaded.optimizer.state_dict(),
        }
        for key, value in wide.items():
            prefix, name = key[:6], key[6:]
            got = states[prefix][name]
            if value.dtype == np.float64:
                assert got.dtype == np.float32, key
                np.testing.assert_array_equal(got, value.astype(np.float32))
        resumed = Trainer(
            make_model(tiny_dataset), config=TrainConfig(epochs=3, batch_size=2)
        )
        history = resumed.fit(tiny_dataset, resume_from=str(ckpt))
        assert len(history.epoch_losses) == 3
        assert np.all(np.isfinite(history.epoch_losses))
        assert all(v.dtype == np.float32 for v in resumed.model.state_dict().values())

    @staticmethod
    def _check_resume_matches(dataset, tmp_path, batch_size, rewrite=None):
        ckpt = tmp_path / "mid.npz"
        # Uninterrupted 4-epoch run.
        straight = Trainer(
            make_model(dataset),
            config=TrainConfig(epochs=4, batch_size=batch_size, lr=2e-3),
        )
        straight_history = straight.fit(dataset)
        # Interrupted run: 4 epochs planned, killed after the epoch-2
        # checkpoint fires (simulated by only training 2 epochs).
        first = Trainer(
            make_model(dataset),
            config=TrainConfig(
                epochs=2,
                batch_size=batch_size,
                lr=2e-3,
                checkpoint_every=2,
                checkpoint_path=str(ckpt),
            ),
        )
        first.fit(dataset)
        assert ckpt.exists()
        if rewrite is not None:
            rewrite(ckpt)
        # Fresh process: new trainer, new model, resume from the checkpoint.
        resumed = Trainer(
            make_model(dataset),
            config=TrainConfig(epochs=4, batch_size=batch_size, lr=2e-3),
        )
        resumed_history = resumed.fit(dataset, resume_from=str(ckpt))
        assert resumed_history.resumed_from == 1
        assert len(resumed_history.epoch_losses) == 4
        np.testing.assert_array_equal(
            resumed_history.epoch_losses, straight_history.epoch_losses
        )
        assert_states_equal(state_of(resumed), state_of(straight))
        assert_states_equal(
            resumed.optimizer.state_dict(), straight.optimizer.state_dict()
        )

    def test_resume_restores_history_prefix(self, tiny_dataset, tmp_path):
        ckpt = tmp_path / "mid.npz"
        first = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(
                epochs=3,
                batch_size=2,
                checkpoint_every=3,
                checkpoint_path=str(ckpt),
            ),
        )
        first_history = first.fit(tiny_dataset)
        resumed = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(epochs=3, batch_size=2),
        )
        resumed_history = resumed.fit(tiny_dataset, resume_from=str(ckpt))
        # Nothing left to train: history is exactly the checkpointed one.
        assert resumed_history.epoch_losses == first_history.epoch_losses

    @pytest.mark.parametrize(
        "changed", [{"batch_size": 1}, {"shuffle_seed": 5}]
    )
    def test_resume_rejects_changed_batch_order(
        self, tiny_dataset, tmp_path, changed
    ):
        # batch_size and shuffle_seed fix the batch order a bit-exact
        # resume replays; epochs may differ (extending a run is a resume).
        ckpt = tmp_path / "mid.npz"
        Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(
                epochs=1,
                batch_size=2,
                checkpoint_every=1,
                checkpoint_path=str(ckpt),
            ),
        ).fit(tiny_dataset)
        resumed = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(**{"epochs": 2, "batch_size": 2, **changed}),
        )
        (name,) = changed
        with pytest.raises(ValueError, match=name):
            resumed.fit(tiny_dataset, resume_from=str(ckpt))


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
        plan = FaultPlan(nan_loss_epochs={0, 1, 2, 3, 4, 5})
        trainer = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(epochs=8, batch_size=2, max_recoveries=2),
            fault_hook=plan.loss_hook,
        )
        history = trainer.fit(tiny_dataset)
        assert history.aborted == "nan_loss"
        assert history.recoveries == [0, 1, 2]

    def test_recovery_disabled_records_only(self, tiny_dataset):
        plan = FaultPlan(nan_loss_epochs={1})
        trainer = Trainer(
            make_model(tiny_dataset),
            config=TrainConfig(epochs=3, batch_size=2, nan_recovery=False),
            fault_hook=plan.loss_hook,
        )
        history = trainer.fit(tiny_dataset)
        assert history.recoveries == [1]
        assert history.aborted is None
        assert len(history.learning_rates) == 3
        # No damping without recovery.
        assert history.learning_rates[2] == history.learning_rates[0]


class TestEarlyStopRestore:
    @staticmethod
    def scripted_trainer(dataset, maes, patience):
        trainer = Trainer(
            make_model(dataset),
            config=TrainConfig(
                epochs=len(maes), batch_size=2, early_stop_patience=patience
            ),
        )
        script = iter(maes)
        trainer._validation_mae = lambda validation: next(script)
        return trainer

    def test_best_weights_restored_on_early_stop(self, tiny_dataset):
        # MAE improves, then regresses, then merely *matches* the best:
        # `final <= best` used to skip the restore even though the final
        # weights are 2 stale epochs past the best ones.
        trainer = self.scripted_trainer(tiny_dataset, [0.3, 0.5, 0.3], patience=2)
        snapshots = []
        original = trainer.model.state_dict

        def spying_state_dict():
            state = original()
            snapshots.append({k: v.copy() for k, v in state.items()})
            return state

        trainer.model.state_dict = spying_state_dict
        history = trainer.fit(tiny_dataset, validation=tiny_dataset)
        assert history.stopped_early
        best = snapshots[1]  # captured right after the epoch-0 improvement
        assert_states_equal(state_of(trainer), best)

    def test_nonfinite_mae_never_becomes_best(self, tiny_dataset):
        trainer = self.scripted_trainer(
            tiny_dataset, [float("nan"), 0.4, 0.3], patience=3
        )
        history = trainer.fit(tiny_dataset, validation=tiny_dataset)
        assert not history.stopped_early
        assert history.best_validation_mae == pytest.approx(0.3)
