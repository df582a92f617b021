"""Named feature-map stacks.

A :class:`FeatureStack` pairs a ``(C, H, W)`` float array with channel
names, so callers read a channel by name (``stack["pdn_density"]``)
instead of by magic index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class FeatureStack:
    """An ordered, named stack of equally sized 2D feature maps."""

    channels: list[str]
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3:
            raise ValueError(f"data must be (C, H, W), got shape {self.data.shape}")
        if len(self.channels) != self.data.shape[0]:
            raise ValueError(
                f"{len(self.channels)} channel names for {self.data.shape[0]} maps"
            )
        if len(set(self.channels)) != len(self.channels):
            raise ValueError("channel names must be unique")

    # -- basic access --------------------------------------------------------

    @property
    def num_channels(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """Spatial shape (H, W)."""
        return self.data.shape[1], self.data.shape[2]

    def __getitem__(self, channel: str) -> np.ndarray:
        return self.data[self.channels.index(channel)]

    def __contains__(self, channel: str) -> bool:
        return channel in self.channels

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_dict(cls, maps: dict[str, np.ndarray]) -> "FeatureStack":
        """Stack maps in dict insertion order."""
        if not maps:
            raise ValueError("cannot build an empty feature stack")
        channels = list(maps)
        data = np.stack([np.asarray(maps[c], dtype=float) for c in channels])
        return cls(channels=channels, data=data)
