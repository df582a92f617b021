"""Training loop and contest metrics."""

from repro.train.metrics import (
    Metrics,
    f1_hotspot,
    mae,
    max_ir_drop_error,
    evaluate_prediction,
)
from repro.train.trainer import TrainConfig, Trainer, TrainHistory

__all__ = [
    "Metrics",
    "TrainConfig",
    "TrainHistory",
    "Trainer",
    "evaluate_prediction",
    "f1_hotspot",
    "mae",
    "max_ir_drop_error",
]
