"""Model and solver evaluation over held-out designs."""

from __future__ import annotations

from repro.data.dataset import IRDropDataset
from repro.nn.losses import _Loss
from repro.nn.module import Module
from repro.obs import span
from repro.obs.registry import FIT, INFERENCE
from repro.train.metrics import Metrics, evaluate_prediction
from repro.train.trainer import TrainConfig, Trainer, TrainHistory


def evaluate_trainer(
    trainer: Trainer, dataset: IRDropDataset
) -> tuple[list[Metrics], Metrics]:
    """Per-design and averaged metrics for a trained model.

    Runtime is wall-clock inference time per design (feature prep is
    accounted by the pipeline-level benchmarks, matching the paper's
    whole-flow runtime column there).
    """
    per_design: list[Metrics] = []
    for sample in dataset:
        with span(INFERENCE, design=sample.name) as infer_span:
            prediction = trainer.predict([sample])[0]
        per_design.append(
            evaluate_prediction(
                prediction, sample.label, runtime_seconds=infer_span.duration
            )
        )
    return per_design, Metrics.average(per_design)


def evaluate_rough_solutions(dataset: IRDropDataset) -> Metrics:
    """Metrics of the raw numerical rough solutions (PowerRush alone).

    Requires samples built with ``use_numerical=True`` so a
    ``rough_label`` is attached.
    """
    per_design: list[Metrics] = []
    for sample in dataset:
        if sample.rough_label is None:
            raise ValueError(
                f"sample {sample.name!r} carries no rough numerical solution"
            )
        per_design.append(evaluate_prediction(sample.rough_label, sample.label))
    return Metrics.average(per_design)


def train_and_evaluate(
    model: Module,
    train_set: IRDropDataset,
    test_set: IRDropDataset,
    loss: _Loss | None = None,
    config: TrainConfig | None = None,
) -> tuple[TrainHistory, Metrics, float]:
    """Convenience: fit on *train_set*, score on *test_set*.

    Returns (history, averaged test metrics, training wall-clock seconds).
    """
    trainer = Trainer(model, loss=loss, config=config)
    with span(FIT) as fit_span:
        history = trainer.fit(train_set)
    _, averaged = evaluate_trainer(trainer, test_set)
    return history, averaged, fit_span.duration
