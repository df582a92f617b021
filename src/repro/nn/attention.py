"""Attention blocks: CBAM (channel + spatial) and the attention gate.

CBAM (Woo et al., ECCV'18) provides the paper's "global and local
attention": the Channel Attention Module squeezes spatially and reweights
channels (global view); the Spatial Attention Module squeezes over
channels and reweights pixels (local view).  Equation (6):
``m' = Mc(m) (x) m``, ``m'' = Ms(m') (x) m'``.

The attention gate (Attention U-Net) filters encoder skip features with a
gating signal from the decoder before concatenation.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from repro.nn.init import construction_rng, kaiming_normal
from repro.nn.layers import Conv2d, ReLU, Sigmoid
from repro.nn.module import Module, Parameter


class ChannelAttention(Module):
    """Squeeze-and-excite over channels with shared two-layer MLP.

    ``Mc(m) = sigmoid(MLP(avgpool(m)) + MLP(maxpool(m)))`` applied
    multiplicatively.  The MLP weights are shared between the two pooled
    branches, so the backward pass accumulates both contributions.
    """

    def __init__(
        self,
        channels: int,
        reduction: int = 4,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = construction_rng(rng)
        hidden = max(1, channels // reduction)
        self.w1 = Parameter(
            kaiming_normal((hidden, channels), channels, rng), name="w1"
        )
        self.b1 = Parameter(np.zeros(hidden), name="b1")
        self.w2 = Parameter(
            kaiming_normal((channels, hidden), hidden, rng), name="w2"
        )
        self.b2 = Parameter(np.zeros(channels), name="b2")
        self._cache: dict | None = None

    def _mlp_forward(self, pooled: np.ndarray) -> tuple[np.ndarray, dict]:
        # One (1, C) row per sample: a stacked matmul runs the same GEMM for
        # every sample, so a sample's scale does not depend on its batch (a
        # 2-D (N, C) GEMM picks a BLAS kernel, and a summation order, by N).
        hidden_pre = (pooled[:, None] @ self.w1.data.T)[:, 0] + self.b1.data
        hidden = np.maximum(hidden_pre, 0.0)
        out = (hidden[:, None] @ self.w2.data.T)[:, 0] + self.b2.data
        return out, {"input": pooled, "hidden": hidden, "mask": hidden_pre > 0}

    def _mlp_backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        self.w2.grad += grad_out.T @ cache["hidden"]
        self.b2.grad += grad_out.sum(axis=0)
        grad_hidden = (grad_out @ self.w2.data) * cache["mask"]
        self.w1.grad += grad_hidden.T @ cache["input"]
        self.b1.grad += grad_hidden.sum(axis=0)
        return grad_hidden @ self.w1.data

    def forward(self, m: np.ndarray) -> np.ndarray:
        n, c, h, w = m.shape
        avg = m.mean(axis=(2, 3))
        mx = m.max(axis=(2, 3))
        avg_out, avg_cache = self._mlp_forward(avg)
        max_out, max_cache = self._mlp_forward(mx)
        scale = expit(avg_out + max_out)  # (N, C)
        out = m * scale[:, :, None, None]
        self._cache = {
            "m": m,
            "scale": scale,
            "avg_cache": avg_cache,
            "max_cache": max_cache,
            "mx": mx,
        }
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        m = self._cache["m"]
        scale = self._cache["scale"]
        n, c, h, w = m.shape
        grad_m = grad_output * scale[:, :, None, None]
        grad_scale = (grad_output * m).sum(axis=(2, 3))  # (N, C)
        grad_logits = grad_scale * scale * (1.0 - scale)
        grad_avg = self._mlp_backward(grad_logits, self._cache["avg_cache"])
        grad_max = self._mlp_backward(grad_logits, self._cache["max_cache"])
        grad_m += grad_avg[:, :, None, None] / (h * w)
        max_mask = m == self._cache["mx"][:, :, None, None]
        counts = max_mask.sum(axis=(2, 3), keepdims=True)
        grad_m += max_mask * (grad_max[:, :, None, None] / counts)
        return grad_m


class SpatialAttention(Module):
    """Pixel-wise gate from channel-mean and channel-max descriptors.

    ``Ms(m) = sigmoid(conv7x7([mean_c(m); max_c(m)]))`` applied
    multiplicatively.
    """

    def __init__(
        self, kernel: int = 7, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        self.conv = Conv2d(2, 1, kernel, padding="same", rng=rng)
        self._cache: dict | None = None

    def forward(self, m: np.ndarray) -> np.ndarray:
        mean_c = m.mean(axis=1, keepdims=True)
        max_c = m.max(axis=1, keepdims=True)
        descriptor = np.concatenate([mean_c, max_c], axis=1)
        logits = self.conv(descriptor)
        scale = expit(logits)  # (N, 1, H, W)
        out = m * scale
        self._cache = {"m": m, "scale": scale, "max_c": max_c}
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        m = self._cache["m"]
        scale = self._cache["scale"]
        channels = m.shape[1]
        grad_m = grad_output * scale
        grad_scale = (grad_output * m).sum(axis=1, keepdims=True)
        grad_logits = grad_scale * scale * (1.0 - scale)
        grad_descriptor = self.conv.backward(grad_logits)
        grad_m += grad_descriptor[:, 0:1] / channels
        max_mask = m == self._cache["max_c"]
        counts = max_mask.sum(axis=1, keepdims=True)
        grad_m += max_mask * (grad_descriptor[:, 1:2] / counts)
        return grad_m


class CBAM(Module):
    """Convolutional block attention: channel gate then spatial gate."""

    def __init__(
        self,
        channels: int,
        reduction: int = 4,
        spatial_kernel: int = 7,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.channel = ChannelAttention(channels, reduction, rng=rng)
        self.spatial = SpatialAttention(spatial_kernel, rng=rng)

    def forward(self, m: np.ndarray) -> np.ndarray:
        return self.spatial(self.channel(m))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.channel.backward(self.spatial.backward(grad_output))


class AttentionGate(Module):
    """Attention-U-Net skip gate.

    ``psi = sigmoid(W_psi . relu(W_x x + W_g g))`` and the skip features
    are filtered as ``x * psi``.  Gating signal and skip features must
    share spatial size (guaranteed by the upsample-first decoder layout).
    """

    def __init__(
        self,
        skip_channels: int,
        gate_channels: int,
        inter_channels: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        inter = inter_channels or max(1, skip_channels // 2)
        self.theta_x = Conv2d(skip_channels, inter, 1, padding=0, rng=rng)
        self.phi_g = Conv2d(gate_channels, inter, 1, padding=0, rng=rng)
        self.psi = Conv2d(inter, 1, 1, padding=0, rng=rng)
        self.relu = ReLU()
        self.sigmoid = Sigmoid()
        self._cache: dict | None = None

    def forward(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        if x.shape[2:] != g.shape[2:]:
            raise ValueError(
                f"skip {x.shape[2:]} and gate {g.shape[2:]} spatial mismatch"
            )
        combined = self.relu(self.theta_x(x) + self.phi_g(g))
        gate = self.sigmoid(self.psi(combined))  # (N, 1, H, W)
        self._cache = {"x": x, "gate": gate}
        return x * gate

    def backward(self, grad_output: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (grad wrt skip x, grad wrt gating signal g)."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x = self._cache["x"]
        gate = self._cache["gate"]
        grad_x = grad_output * gate
        grad_gate = (grad_output * x).sum(axis=1, keepdims=True)
        grad_combined = self.relu.backward(
            self.psi.backward(self.sigmoid.backward(grad_gate))
        )
        grad_x += self.theta_x.backward(grad_combined)
        grad_g = self.phi_g.backward(grad_combined)
        return grad_x, grad_g
