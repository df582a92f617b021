"""Shared configuration and artifact helpers for the paper-artifact scripts.

These scripts regenerate tables and figures; they time nothing.  Timings
come from ``benchmarks/suite`` only.

Benchmark scale is deliberately reduced from the paper's setup (256x256
images, 120 designs, long GPU training) to something a CPU finishes in
minutes: 32x32 designs, a 20-design suite, narrow models, ~a dozen epochs.
EXPERIMENTS.md records the shapes this reproduces versus the paper's
numbers.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.config import FusionConfig
from repro.train.trainer import TrainConfig

ARTIFACTS = Path(__file__).resolve().parent / "artifacts"


def bench_config(**overrides) -> FusionConfig:
    """The shared reduced-scale configuration for the paper benches."""
    defaults = dict(
        pixels=32,
        num_fake=12,
        num_real_train=5,
        num_real_test=4,
        data_seed=7,
        solver_iterations=2,
        base_channels=6,
        depth=3,
        model_seed=0,
        train=TrainConfig(epochs=16, batch_size=8, lr=1.5e-3),
        augment=True,
        oversample_fake=2,
        oversample_real=5,
    )
    defaults.update(overrides)
    return FusionConfig(**defaults)


def save_artifact(name: str, text: str) -> Path:
    """Write a rendered table/figure to benchmarks/artifacts/<name>."""
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    path = ARTIFACTS / name
    path.write_text(text + "\n", encoding="utf-8")
    return path
