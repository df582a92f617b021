"""Model and solver evaluation over held-out designs."""

from __future__ import annotations

from repro.data.dataset import IRDropDataset
from repro.obs import span
from repro.obs.registry import INFERENCE
from repro.train.metrics import Metrics, evaluate_prediction
from repro.train.trainer import Trainer


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
