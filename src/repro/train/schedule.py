"""Learning-rate schedules.

Each schedule is a callable ``epoch -> lr``; the trainer assigns the
returned value to the optimiser before every epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ConstantLR:
    """Fixed learning rate."""

    lr: float

    def __call__(self, epoch: int) -> float:
        return self.lr


@dataclass(frozen=True)
class StepLR:
    """Multiply by ``gamma`` every ``step_size`` epochs."""

    lr: float
    step_size: int = 10
    gamma: float = 0.5

    def __call__(self, epoch: int) -> float:
        if self.step_size < 1:
            raise ValueError("step_size must be >= 1")
        return self.lr * (self.gamma ** (epoch // self.step_size))


@dataclass(frozen=True)
class CosineLR:
    """Cosine annealing from ``lr`` to ``min_lr`` over ``total_epochs``."""

    lr: float
    total_epochs: int
    min_lr: float = 0.0

    def __call__(self, epoch: int) -> float:
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        progress = min(epoch, self.total_epochs) / self.total_epochs
        return self.min_lr + 0.5 * (self.lr - self.min_lr) * (
            1.0 + math.cos(math.pi * progress)
        )
