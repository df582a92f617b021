"""Weight initialisers.

All initialisers take an explicit ``numpy.random.Generator`` so model
construction is fully deterministic under a seed — a requirement for the
ablation study, where variants must differ only in architecture.
"""

from __future__ import annotations

import numpy as np


def kaiming_normal(
    shape: tuple[int, ...], fan_in: int, rng: np.random.Generator
) -> np.ndarray:
    """He initialisation for ReLU-family activations."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


#: The process-wide stream unseeded layers draw from.  Every unseeded
#: layer advances the *same* stream, so consecutive layers get distinct
#: weights (the old per-layer ``default_rng(0)`` fallback handed every
#: unseeded layer an identical weight tensor) while construction stays
#: deterministic given construction order.
_construction_rng = np.random.default_rng(0)


def construction_rng(
    rng: np.random.Generator | None = None,
) -> np.random.Generator:
    """Resolve a layer's init generator: the given one, else the shared stream."""
    return rng if rng is not None else _construction_rng
