"""Inception blocks (Szegedy et al., Inception-v3/v4 style).

Multi-branch convolutions that "learn feature maps across different kernel
sizes simultaneously" (Section III-D).  Following the paper, the encoder
uses Inception-A at the earliest scale, Inception-B at the middle scale,
and Inception-C at the deepest — A with stacked 3x3s, B with factorised
1x7/7x1 pairs, C with split 1x3/3x1 heads for high-dimensional features.

Every branch ends at ``out_channels // num_branch_units`` channels (the
remainder goes to the first branch) so any output width works.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import construction_rng
from repro.nn.containers import Sequential
from repro.nn.layers import AvgPool2d, Conv2d, ReLU
from repro.nn.module import Module


def _conv(in_ch: int, out_ch: int, kernel, rng) -> Sequential:
    """conv → ReLU with 'same' padding (asymmetric kernels included)."""
    if isinstance(kernel, int):
        padding: object = "same"
    else:
        kh, kw = kernel
        padding = ((kh - 1) // 2, (kw - 1) // 2)
    return Sequential(Conv2d(in_ch, out_ch, kernel, padding=padding, rng=rng), ReLU())


class _MultiBranch(Module):
    """Concat of parallel branches applied to the same input."""

    def __init__(self, branches: list[Module]) -> None:
        super().__init__()
        self.branches = branches
        self._splits: list[int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        outputs = [branch(x) for branch in self.branches]
        self._splits = [o.shape[1] for o in outputs]
        return np.concatenate(outputs, axis=1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._splits is None:
            raise RuntimeError("backward called before forward")
        grad_input = None
        start = 0
        for branch, width in zip(self.branches, self._splits):
            part = branch.backward(grad_output[:, start : start + width])
            grad_input = part if grad_input is None else grad_input + part
            start += width
        return grad_input


def _branch_widths(out_channels: int, units: int) -> list[int]:
    base = out_channels // units
    if base < 1:
        raise ValueError(
            f"out_channels={out_channels} too small for {units} branch units"
        )
    widths = [base] * units
    widths[0] += out_channels - base * units
    return widths


class InceptionA(_MultiBranch):
    """Early-scale block: 1x1 | 1x1-3x3 | 1x1-3x3-3x3 | pool-1x1."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = construction_rng(rng)
        w1, w2, w3, w4 = _branch_widths(out_channels, 4)
        super().__init__(
            [
                _conv(in_channels, w1, 1, rng),
                Sequential(
                    _conv(in_channels, w2, 1, rng), _conv(w2, w2, 3, rng)
                ),
                Sequential(
                    _conv(in_channels, w3, 1, rng),
                    _conv(w3, w3, 3, rng),
                    _conv(w3, w3, 3, rng),
                ),
                Sequential(
                    AvgPool2d(3, padding=1),
                    _conv(in_channels, w4, 1, rng),
                ),
            ]
        )


class InceptionB(_MultiBranch):
    """Mid-scale block with factorised 1x7 / 7x1 convolutions."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = construction_rng(rng)
        w1, w2, w3, w4 = _branch_widths(out_channels, 4)
        super().__init__(
            [
                _conv(in_channels, w1, 1, rng),
                Sequential(
                    _conv(in_channels, w2, 1, rng),
                    _conv(w2, w2, (1, 7), rng),
                    _conv(w2, w2, (7, 1), rng),
                ),
                Sequential(
                    _conv(in_channels, w3, 1, rng),
                    _conv(w3, w3, (7, 1), rng),
                    _conv(w3, w3, (1, 7), rng),
                ),
                Sequential(
                    AvgPool2d(3, padding=1),
                    _conv(in_channels, w4, 1, rng),
                ),
            ]
        )


class InceptionC(_MultiBranch):
    """Deep-scale block with split 1x3 / 3x1 output heads.

    Branch units: 1x1 (1), pool-1x1 (1), 1x1→{1x3, 3x1} (2),
    1x1→3x3→{1x3, 3x1} (2) — six width units in total.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = construction_rng(rng)
        w1, w2, w3, w4, w5, w6 = _branch_widths(out_channels, 6)
        split_a = _MultiBranch(
            [_conv(w3, w3, (1, 3), rng), _conv(w3, w4, (3, 1), rng)]
        )
        split_b = _MultiBranch(
            [_conv(w5, w5, (1, 3), rng), _conv(w5, w6, (3, 1), rng)]
        )
        super().__init__(
            [
                _conv(in_channels, w1, 1, rng),
                Sequential(
                    AvgPool2d(3, padding=1),
                    _conv(in_channels, w2, 1, rng),
                ),
                Sequential(_conv(in_channels, w3, 1, rng), split_a),
                Sequential(
                    _conv(in_channels, w5, 1, rng),
                    _conv(w5, w5, 3, rng),
                    split_b,
                ),
            ]
        )
