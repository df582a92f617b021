"""Mini-batch trainer with optional curriculum scheduling.

Labels are scaled (volts → ``label_scale`` units, default mV x 10) before
entering the network so losses and gradients are well conditioned;
predictions are scaled back transparently in :meth:`Trainer.predict`.

The training loop is fault-tolerant: periodic checkpoints capture model +
optimiser + RNG state for bit-exact resume (:meth:`Trainer.fit` with
``resume_from``), and a non-finite epoch loss triggers NaN recovery —
reload the last good state, halve the learning rate, continue — instead
of silently corrupting the weights.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

from repro.data.curriculum import CurriculumScheduler
from repro.data.dataset import DesignSample, IRDropDataset
from repro.nn.containers import fuse_conv_relu
from repro.nn.inference import InferencePlan
from repro.nn.losses import MAELoss, _Loss
from repro.nn.module import Module
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.serialize import load_checkpoint, save_checkpoint
from repro.obs import span
from repro.obs.registry import (
    PLAN_BUILD,
    TRAIN,
    TRAIN_BACKWARD,
    TRAIN_FORWARD,
    TRAIN_STEP,
)
from repro.train.schedule import ConstantLR

#: Fields that must be integers, and their smallest allowed value.
_INTEGER_FLOORS = {
    "epochs": 1,
    "batch_size": 1,
    "shuffle_seed": 0,
    "early_stop_patience": 0,
    "checkpoint_every": 0,
    "max_recoveries": 0,
}


@dataclass(frozen=True)
class TrainConfig:
    """Trainer knobs.  The network trains and infers in float32.

    Features, labels and rough solutions stay float64: an epoch builds its
    residual target in float64 and casts its ``(x, y)`` block to float32
    once, and :meth:`Trainer.predict` widens the network output to float64
    before the label scale and the rough add.

    Construction raises ``ValueError``, naming the field, for a value
    outside its range: a count below its floor, a non-integral count, a
    learning rate, label scale or clip that is NaN, infinite or out of
    range, or periodic checkpoints with nowhere to write them.

    Attributes
    ----------
    epochs, batch_size, lr:
        Standard loop controls (Adam optimiser).
    label_scale:
        Multiplier applied to labels (and inverted on prediction); IR
        drops are ~1e-3 V, so 1e3 conditions the regression to ~1.
    grad_clip:
        Global gradient-norm clip (0 disables).
    use_curriculum:
        Use the fake-easy/real-hard continuous scheduler.
    residual:
        Fusion-style residual learning: the network regresses the
        *correction* to the rough numerical solution and predictions are
        ``rough + correction`` ("the model can begin training from a point
        that is much closer to the target label", Section IV-B).  Applied
        only when every sample carries a rough numerical solution; pure-ML
        baselines (no numerical stage) fall back to direct regression
        automatically.
    shuffle_seed:
        Seed for per-epoch batch shuffling.
    early_stop_patience:
        When > 0 and a validation set is passed to :meth:`Trainer.fit`,
        stop after this many epochs without validation-MAE improvement and
        restore the best weights seen.
    checkpoint_every:
        Save a resumable checkpoint every N epochs (0 disables); requires
        ``checkpoint_path``.
    checkpoint_path:
        Where periodic checkpoints are written (single rotating file).
    nan_recovery:
        On a non-finite epoch loss: reload the last good model/optimiser
        state, scale the learning rate by ``recovery_lr_factor`` and keep
        training.  Off ⇒ the NaN epoch is recorded and training proceeds
        with whatever weights the epoch produced.
    max_recoveries:
        Abort training (``history.aborted = "nan_loss"``) after this many
        recoveries — the run is unsalvageable, don't spin forever.
    recovery_lr_factor:
        Learning-rate multiplier applied at each NaN recovery, in (0, 1].
    """

    epochs: int = 10
    batch_size: int = 4
    lr: float = 2e-3
    label_scale: float = 20.0
    grad_clip: float = 5.0
    use_curriculum: bool = False
    residual: bool = True
    shuffle_seed: int = 0
    early_stop_patience: int = 0
    checkpoint_every: int = 0
    checkpoint_path: str | None = None
    nan_recovery: bool = True
    max_recoveries: int = 3
    recovery_lr_factor: float = 0.5

    def __post_init__(self) -> None:
        for name, floor in _INTEGER_FLOORS.items():
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < floor:
                raise ValueError(
                    f"TrainConfig.{name} must be an integer >= {floor}, "
                    f"got {value!r}"
                )
        for name, ok, rule in (
            ("lr", self.lr > 0, "> 0"),
            ("label_scale", self.label_scale > 0, "> 0"),
            ("grad_clip", self.grad_clip >= 0, ">= 0"),
            ("recovery_lr_factor", 0 < self.recovery_lr_factor <= 1, "in (0, 1]"),
        ):
            value = getattr(self, name)
            if not (ok and math.isfinite(value)):
                raise ValueError(
                    f"TrainConfig.{name} must be finite and {rule}, got {value!r}"
                )
        if self.checkpoint_every > 0 and self.checkpoint_path is None:
            raise ValueError(
                "TrainConfig.checkpoint_every > 0 needs a checkpoint_path"
            )


@dataclass
class TrainHistory:
    """Per-epoch training record."""

    epoch_losses: list[float] = field(default_factory=list)
    epoch_sizes: list[int] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    validation_mae: list[float] = field(default_factory=list)
    stopped_early: bool = False
    recoveries: list[int] = field(default_factory=list)
    resumed_from: int | None = None
    aborted: str | None = None

    @property
    def final_loss(self) -> float:
        """Last *finite* epoch loss (NaN epochs are recovery artefacts)."""
        if not self.epoch_losses:
            raise ValueError("no epochs recorded")
        for loss in reversed(self.epoch_losses):
            if np.isfinite(loss):
                return loss
        return self.epoch_losses[-1]

    @property
    def best_validation_mae(self) -> float:
        if not self.validation_mae:
            raise ValueError("no validation metrics recorded")
        finite = [m for m in self.validation_mae if np.isfinite(m)]
        return min(finite) if finite else float("nan")

    def to_meta(self) -> dict:
        return {
            "epoch_losses": [float(v) for v in self.epoch_losses],
            "epoch_sizes": list(self.epoch_sizes),
            "learning_rates": [float(v) for v in self.learning_rates],
            "validation_mae": [float(v) for v in self.validation_mae],
            "stopped_early": self.stopped_early,
            "recoveries": list(self.recoveries),
            "resumed_from": self.resumed_from,
            "aborted": self.aborted,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "TrainHistory":
        return cls(
            epoch_losses=[float(v) for v in meta.get("epoch_losses", [])],
            epoch_sizes=list(meta.get("epoch_sizes", [])),
            learning_rates=[float(v) for v in meta.get("learning_rates", [])],
            validation_mae=[float(v) for v in meta.get("validation_mae", [])],
            stopped_early=bool(meta.get("stopped_early", False)),
            recoveries=list(meta.get("recoveries", [])),
            resumed_from=meta.get("resumed_from"),
            aborted=meta.get("aborted"),
        )


class Trainer:
    """Fits a model to an :class:`IRDropDataset`.

    Parameters
    ----------
    fault_hook:
        Test-only hook ``(epoch, loss) -> loss`` applied to each epoch's
        mean loss before health checks — the fault-injection harness uses
        it to exercise NaN-loss recovery deterministically.
    fuse:
        Apply the conv+bias+ReLU fusion pass to the model before
        training (default).  Fusion shares the original Parameter
        objects and preserves state-dict paths, so checkpoints and
        optimizer slots are unaffected; outputs are numerically
        unchanged.
    """

    def __init__(
        self,
        model: Module,
        loss: _Loss | None = None,
        config: TrainConfig | None = None,
        lr_schedule=None,
        fault_hook: Callable[[int, float], float] | None = None,
        fuse: bool = True,
    ) -> None:
        self.model = model
        self.fused_pairs = fuse_conv_relu(model) if fuse else 0
        self.loss = loss or MAELoss()
        self.config = config or TrainConfig()
        self.lr_schedule = lr_schedule or ConstantLR(self.config.lr)
        self.optimizer = Adam(model.parameters(), lr=self.config.lr)
        self.fault_hook = fault_hook
        # Parameter list cached once (model structure is frozen after the
        # fusion pass above): zero_grad and clip walk this list, which is
        # the same tree order model.parameters() returns.
        self._parameters = self.optimizer.parameters
        self._plan: InferencePlan | None = None

    # -- checkpointing ---------------------------------------------------------

    def _save_checkpoint(
        self,
        path: str | os.PathLike[str],
        epoch: int,
        rng: np.random.Generator,
        history: TrainHistory,
        lr_scale: float,
    ) -> None:
        arrays = {
            f"model/{key}": value for key, value in self.model.state_dict().items()
        }
        arrays.update(
            {
                f"optim/{key}": value
                for key, value in self.optimizer.state_dict().items()
            }
        )
        meta = {
            "epoch": epoch,
            "lr_scale": lr_scale,
            "rng_state": rng.bit_generator.state,
            "history": history.to_meta(),
            "config": {
                "epochs": self.config.epochs,
                "batch_size": self.config.batch_size,
                "shuffle_seed": self.config.shuffle_seed,
            },
        }
        save_checkpoint(path, arrays, meta)

    def _restore_checkpoint(
        self,
        path: str | os.PathLike[str],
        rng: np.random.Generator,
    ) -> tuple[int, float, TrainHistory]:
        """Load a checkpoint; returns (next epoch, lr_scale, history).

        The batch order is a function of ``batch_size`` and
        ``shuffle_seed``, so a run resumed with either changed cannot
        reproduce the uninterrupted one: that raises ``ValueError``.
        ``epochs`` may differ — extending a finished run is a resume.
        """
        arrays, meta = load_checkpoint(path)
        recorded = meta.get("config", {})
        for name in ("batch_size", "shuffle_seed"):
            current = getattr(self.config, name)
            if name in recorded and recorded[name] != current:
                raise ValueError(
                    f"checkpoint {path} was written with {name}="
                    f"{recorded[name]} but this run has {name}={current}; "
                    "resuming would not reproduce the original run"
                )
        model_state = {
            key[len("model/"):]: value
            for key, value in arrays.items()
            if key.startswith("model/")
        }
        optim_state = {
            key[len("optim/"):]: value
            for key, value in arrays.items()
            if key.startswith("optim/")
        }
        self.model.load_state_dict(model_state)
        self.optimizer.load_state_dict(optim_state)
        rng.bit_generator.state = meta["rng_state"]
        history = TrainHistory.from_meta(meta.get("history", {}))
        history.resumed_from = int(meta["epoch"])
        return int(meta["epoch"]) + 1, float(meta.get("lr_scale", 1.0)), history

    # -- fitting --------------------------------------------------------------

    def fit(
        self,
        dataset: IRDropDataset,
        validation: IRDropDataset | None = None,
        resume_from: str | os.PathLike[str] | None = None,
    ) -> TrainHistory:
        """Train for ``config.epochs`` epochs; returns the loss history.

        With a *validation* set, validation MAE is recorded per epoch and
        (when ``early_stop_patience`` > 0) training stops once it
        stagnates, restoring the best weights seen.

        With *resume_from*, model/optimiser/RNG state are restored from a
        checkpoint written by a previous run and training continues from
        the next epoch, reproducing the uninterrupted run bit-exactly.
        """
        if len(dataset) == 0:
            raise ValueError("cannot train on an empty dataset")
        cfg = self.config
        rng = np.random.default_rng(cfg.shuffle_seed)
        start_epoch = 0
        lr_scale = 1.0
        history = TrainHistory()
        if resume_from is not None:
            start_epoch, lr_scale, history = self._restore_checkpoint(
                resume_from, rng
            )
        scheduler = (
            CurriculumScheduler(total_epochs=cfg.epochs)
            if cfg.use_curriculum
            else None
        )
        best_mae = float("inf")
        best_state: dict | None = None
        stale_epochs = 0
        finite_maes = [m for m in history.validation_mae if np.isfinite(m)]
        if finite_maes:
            best_mae = min(finite_maes)
        last_good: tuple[dict, dict] | None = None
        if cfg.nan_recovery:
            last_good = (self.model.state_dict(), self.optimizer.state_dict())
        self.model.train()
        for epoch in range(start_epoch, cfg.epochs):
            subset = (
                scheduler.subset(dataset, epoch) if scheduler else dataset
            )
            lr = float(self.lr_schedule(epoch)) * lr_scale
            self.optimizer.lr = lr
            with span(TRAIN, epoch=epoch, samples=len(subset)):
                epoch_loss = self._run_epoch(subset, rng)
            self._release_workspaces()
            if self.fault_hook is not None:
                epoch_loss = self.fault_hook(epoch, epoch_loss)
            history.epoch_losses.append(epoch_loss)
            history.epoch_sizes.append(len(subset))
            history.learning_rates.append(lr)
            if not np.isfinite(epoch_loss):
                history.recoveries.append(epoch)
                if not cfg.nan_recovery:
                    continue
                if len(history.recoveries) > cfg.max_recoveries:
                    history.aborted = "nan_loss"
                    break
                # Reload the last healthy weights and damp the step size;
                # the sick epoch is recorded but never poisons the model.
                model_state, optim_state = last_good
                self.model.load_state_dict(model_state)
                self.optimizer.load_state_dict(optim_state)
                lr_scale *= cfg.recovery_lr_factor
                continue
            if cfg.nan_recovery:
                last_good = (self.model.state_dict(), self.optimizer.state_dict())
            if validation is not None and len(validation) > 0:
                mae = self._validation_mae(validation)
                history.validation_mae.append(mae)
                if np.isfinite(mae) and mae < best_mae - 1e-12:
                    best_mae = mae
                    stale_epochs = 0
                    if cfg.early_stop_patience > 0:
                        best_state = self.model.state_dict()
                else:
                    stale_epochs += 1
                    if (
                        cfg.early_stop_patience > 0
                        and stale_epochs >= cfg.early_stop_patience
                    ):
                        history.stopped_early = True
                        break
            if cfg.checkpoint_every > 0 and (epoch + 1) % cfg.checkpoint_every == 0:
                self._save_checkpoint(
                    cfg.checkpoint_path, epoch, rng, history, lr_scale
                )
        # Early stopping means later epochs regressed; always hand back the
        # best validation weights, not just when the *final* epoch is worse.
        if best_state is not None and (
            history.stopped_early
            or (
                history.validation_mae
                and not (history.validation_mae[-1] <= best_mae)
            )
        ):
            self.model.load_state_dict(best_state)
        return history

    def _release_workspaces(self) -> None:
        """Drop every conv scratch arena (reallocated lazily on demand).

        Between epochs nothing in them is live — a staged input lives from
        a forward to the backward of the same step, interiors are
        overwritten every use and borders zeroed on allocation — so
        releasing between epochs is numerically invisible; it just stops
        long curriculum runs (and the trained model afterwards) from
        pinning peak-size scratch for their whole lifetime.
        """
        for workspace in self.model.workspaces():
            workspace.clear()

    def _validation_mae(self, validation: IRDropDataset) -> float:
        predictions = self.predict(validation)
        errors = [
            float(np.abs(p - s.label).mean())
            for p, s in zip(predictions, validation)
        ]
        return float(np.mean(errors))

    def _uses_residual(self, samples: list[DesignSample]) -> bool:
        return self.config.residual and all(
            s.rough_label is not None for s in samples
        )

    def _run_epoch(self, dataset: IRDropDataset, rng: np.random.Generator) -> float:
        x, y = dataset.as_arrays()
        if self._uses_residual(dataset.samples):
            # In place, row by row: same elementwise fp ops as the old
            # stack-and-subtract, without materialising a second
            # dataset-sized rough block.
            for k, sample in enumerate(dataset.samples):
                y[k, 0] -= sample.rough_label
        y *= self.config.label_scale
        # The network's one dtype (X already is); the target above was
        # built in float64.
        y = y.astype(np.float32)
        order = rng.permutation(len(dataset))
        batches = [
            order[start : start + self.config.batch_size]
            for start in range(0, len(order), self.config.batch_size)
        ]
        total_loss = 0.0
        total_samples = 0
        for batch in batches:
            with span(TRAIN_FORWARD):
                prediction = self.model(x[batch])
                loss_value = self.loss.forward(prediction, y[batch])
            with span(TRAIN_BACKWARD):
                for parameter in self._parameters:
                    parameter.zero_grad()
                self.model.backward(self.loss.backward())
            with span(TRAIN_STEP):
                if self.config.grad_clip > 0:
                    clip_grad_norm(self._parameters, self.config.grad_clip)
                self.optimizer.step()
            # Weight by sample count so a short trailing batch doesn't
            # distort the reported epoch loss.
            total_loss += loss_value * len(batch)
            total_samples += len(batch)
        return total_loss / max(total_samples, 1)

    # -- inference ---------------------------------------------------------------

    def inference_plan(self) -> InferencePlan:
        """The model's plan, built once: it re-folds itself when weights move."""
        if self._plan is None:
            with span(PLAN_BUILD):
                self._plan = InferencePlan(self.model)
        return self._plan

    def predict(self, samples: list[DesignSample] | IRDropDataset) -> np.ndarray:
        """Predict IR-drop maps (volts, float64), shape ``(N, H, W)``.

        The float32 network output is widened to float64 before it is
        unscaled, so the residual add ``rough + correction`` runs in float64.
        """
        items = list(samples)
        if not items:
            raise ValueError("nothing to predict")
        out = self.inference_plan()(np.stack([s.features.data for s in items]))
        prediction = out[:, 0].astype(np.float64) / self.config.label_scale
        if self._uses_residual(items):
            prediction = prediction + np.stack([s.rough_label for s in items])
        return prediction
