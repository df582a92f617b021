"""Name-based model construction and preferred losses.

The evaluation harness iterates Table I rows by name; each entry knows how
to build the model and which training loss the original method prescribes
(MAE by default, Kirchhoff-constrained for IRPnet, hotspot-weighted for
PGAU and the contest winner).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from repro.models.contest_winner import ContestWinner
from repro.models.ir_fusion_net import IRFusionNet
from repro.models.iredge import IREDGe
from repro.models.irpnet import IRPnet
from repro.models.maunet import MAUnet
from repro.models.mavirec import MAVIREC
from repro.models.pgau import PGAU
from repro.nn.losses import KirchhoffLoss, MAELoss, WeightedHotspotLoss, _Loss
from repro.nn.module import Module

MODEL_REGISTRY: Mapping[str, Callable[..., Module]] = MappingProxyType({
    "iredge": IREDGe,
    "mavirec": MAVIREC,
    "irpnet": IRPnet,
    "pgau": PGAU,
    "maunet": MAUnet,
    "contest_winner": ContestWinner,
    "ir_fusion": IRFusionNet,
})

# Paper-facing display names for tables.
DISPLAY_NAMES: Mapping[str, str] = MappingProxyType({
    "iredge": "IREDGe",
    "mavirec": "MAVIREC",
    "irpnet": "IRPnet",
    "pgau": "PGAU",
    "maunet": "MAUnet",
    "contest_winner": "Contest Winner",
    "ir_fusion": "IR-Fusion (Ours)",
})


def create_model(
    name: str,
    in_channels: int,
    base_channels: int = 8,
    depth: int = 3,
    seed: int = 0,
    **kwargs,
) -> Module:
    """Instantiate a registered model by name."""
    try:
        factory = MODEL_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {sorted(MODEL_REGISTRY)}"
        ) from None
    return factory(
        in_channels=in_channels,
        base_channels=base_channels,
        depth=depth,
        seed=seed,
        **kwargs,
    )


def preferred_loss(name: str, current_map: np.ndarray | None = None) -> _Loss:
    """The training loss the original method prescribes.

    Parameters
    ----------
    current_map:
        Full-resolution current image for IRPnet's Kirchhoff constraint
        (optional; without it IRPnet falls back to plain MAE).
    """
    if name not in MODEL_REGISTRY:
        raise ValueError(
            f"unknown model {name!r}; choose from {sorted(MODEL_REGISTRY)}"
        )
    if name == "irpnet":
        return KirchhoffLoss(current_map=current_map, weight=0.05)
    if name in ("pgau", "contest_winner"):
        return WeightedHotspotLoss()
    if name == "ir_fusion":
        return WeightedHotspotLoss(hotspot_weight=6.0)
    return MAELoss()
