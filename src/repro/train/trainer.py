"""Mini-batch trainer with optional curriculum scheduling.

Labels are scaled (volts → :data:`LABEL_SCALE` units) before entering the
network so losses and gradients are well conditioned; predictions are
scaled back transparently in :meth:`Trainer.predict`.

A non-finite epoch loss triggers NaN recovery — reload the last good
state, halve the learning rate, continue — instead of silently
corrupting the weights.
"""

from __future__ import annotations

import math
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
from repro.obs import span
from repro.obs.registry import (
    PLAN_BUILD,
    TRAIN,
    TRAIN_BACKWARD,
    TRAIN_FORWARD,
    TRAIN_STEP,
)

#: Multiplier applied to labels (and inverted on prediction); IR drops
#: are ~1e-3 V, so it conditions the regression target to O(1).
LABEL_SCALE = 20.0
#: Global gradient-norm clip applied before every Adam step.
_GRAD_CLIP = 5.0
#: Seed of the per-epoch batch shuffle.
_SHUFFLE_SEED = 0
#: NaN recoveries a run survives; the next one aborts it
#: (``history.aborted = "nan_loss"``) — the run is unsalvageable.
_MAX_RECOVERIES = 3
#: Learning-rate multiplier applied at each NaN recovery.
_RECOVERY_LR_FACTOR = 0.5


@dataclass(frozen=True)
class TrainConfig:
    """Trainer knobs.  The network trains and infers in float32.

    Features, labels and rough solutions stay float64: an epoch builds its
    residual target in float64 and casts its ``(x, y)`` block to float32
    once, and :meth:`Trainer.predict` widens the network output to float64
    before the label scale and the rough add.

    Construction raises ``ValueError``, naming the field, for an epoch
    count or batch size that is not an integer >= 1, or a learning rate
    that is not finite and positive.

    Attributes
    ----------
    epochs, batch_size, lr:
        Standard loop controls (Adam optimiser).
    use_curriculum:
        Use the fake-easy/real-hard continuous scheduler.
    """

    epochs: int = 10
    batch_size: int = 4
    lr: float = 2e-3
    use_curriculum: bool = False

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 1:
                raise ValueError(
                    f"TrainConfig.{name} must be an integer >= 1, got {value!r}"
                )
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError(
                f"TrainConfig.lr must be finite and > 0, got {self.lr!r}"
            )


@dataclass
class TrainHistory:
    """Per-epoch training record."""

    epoch_losses: list[float] = field(default_factory=list)
    epoch_sizes: list[int] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    recoveries: list[int] = field(default_factory=list)
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


class Trainer:
    """Fits a model to an :class:`IRDropDataset`.

    Construction applies the conv+bias+ReLU fusion pass to *model*.
    Fusion shares the original Parameter objects and preserves
    state-dict paths, so saved weights and optimizer slots are unaffected;
    outputs are numerically unchanged.  Each epoch steps Adam at
    ``config.lr``, scaled down by every NaN recovery so far.

    Parameters
    ----------
    fault_hook:
        Test-only hook ``(epoch, loss) -> loss`` applied to each epoch's
        mean loss before health checks — the fault-injection harness uses
        it to exercise NaN-loss recovery deterministically.
    """

    def __init__(
        self,
        model: Module,
        loss: _Loss | None = None,
        config: TrainConfig | None = None,
        fault_hook: Callable[[int, float], float] | None = None,
    ) -> None:
        self.model = model
        fuse_conv_relu(model)
        self.loss = loss or MAELoss()
        self.config = config or TrainConfig()
        self.optimizer = Adam(model.parameters(), lr=self.config.lr)
        self.fault_hook = fault_hook
        # Parameter list cached once (model structure is frozen after the
        # fusion pass above): zero_grad and clip walk this list, which is
        # the same tree order model.parameters() returns.
        self._parameters = self.optimizer.parameters
        self._plan: InferencePlan | None = None

    def fit(self, dataset: IRDropDataset) -> TrainHistory:
        """Train for ``config.epochs`` epochs; returns the loss history.

        A non-finite epoch loss reloads the model and optimiser state of
        the last healthy epoch and damps the learning rate.  Past
        ``_MAX_RECOVERIES`` recoveries the run stops with
        ``history.aborted = "nan_loss"``, its weights still the last
        healthy ones.
        """
        if len(dataset) == 0:
            raise ValueError("cannot train on an empty dataset")
        cfg = self.config
        rng = np.random.default_rng(_SHUFFLE_SEED)
        lr_scale = 1.0
        history = TrainHistory()
        scheduler = (
            CurriculumScheduler(total_epochs=cfg.epochs)
            if cfg.use_curriculum
            else None
        )
        last_good = (self.model.state_dict(), self.optimizer.state_dict())
        self.model.train()
        for epoch in range(cfg.epochs):
            subset = (
                scheduler.subset(dataset, epoch) if scheduler else dataset
            )
            lr = cfg.lr * lr_scale
            self.optimizer.lr = lr
            with span(TRAIN, epoch=epoch, samples=len(subset)):
                epoch_loss = self._run_epoch(subset, rng)
            self._release_workspaces()
            if self.fault_hook is not None:
                epoch_loss = self.fault_hook(epoch, epoch_loss)
            history.epoch_losses.append(epoch_loss)
            history.epoch_sizes.append(len(subset))
            history.learning_rates.append(lr)
            if np.isfinite(epoch_loss):
                last_good = (self.model.state_dict(), self.optimizer.state_dict())
                continue
            # Reload the last healthy weights, on an abort too: the sick
            # epoch is recorded but never poisons the model.
            history.recoveries.append(epoch)
            model_state, optim_state = last_good
            self.model.load_state_dict(model_state)
            self.optimizer.load_state_dict(optim_state)
            if len(history.recoveries) > _MAX_RECOVERIES:
                history.aborted = "nan_loss"
                break
            lr_scale *= _RECOVERY_LR_FACTOR
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

    def _uses_residual(self, samples: list[DesignSample]) -> bool:
        """Residual (fusion) learning: regress the correction to the rough
        numerical solution and predict ``rough + correction`` ("the model
        can begin training from a point that is much closer to the target
        label", Section IV-B).  Used exactly when every sample carries a
        rough solution; pure-ML baselines regress directly.
        """
        return all(s.rough_label is not None for s in samples)

    def _run_epoch(self, dataset: IRDropDataset, rng: np.random.Generator) -> float:
        x, y = dataset.as_arrays()
        if self._uses_residual(dataset.samples):
            # In place, row by row: same elementwise fp ops as the old
            # stack-and-subtract, without materialising a second
            # dataset-sized rough block.
            for k, sample in enumerate(dataset.samples):
                y[k, 0] -= sample.rough_label
        y *= LABEL_SCALE
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
                clip_grad_norm(self._parameters, _GRAD_CLIP)
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
        prediction = out[:, 0].astype(np.float64) / LABEL_SCALE
        if self._uses_residual(items):
            prediction = prediction + np.stack([s.rough_label for s in items])
        return prediction
