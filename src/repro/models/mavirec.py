"""MAVIREC (Chhabria et al., DATE'21): 3D-U-Net-style predictor.

MAVIREC convolves over the metal-layer ("depth") dimension as well as
space.  Without a 3D runtime we realise the same computation as a
*depth-shared stem*: one 2D kernel applied identically to every input
channel (a 3D convolution with kernel depth 1 and shared spatial weights)
followed by a 1x1 depth-mixing convolution — then the usual U-Net body.
This keeps MAVIREC's distinguishing property (early weight sharing across
the layer stack) while staying in 2D kernels.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import conv2d_backward, conv2d_forward
from repro.nn.init import construction_rng, kaiming_normal
from repro.nn.layers import Conv2d, ReLU
from repro.nn.module import Module, Parameter
from repro.models.unet_blocks import FlexUNet


class DepthSharedConv(Module):
    """One 2D kernel applied independently to every input channel.

    Equivalent to a 3D convolution with depth-1 kernel shared over depth:
    input ``(N, C, H, W)`` → output ``(N, C, H, W)`` with a single
    ``(1, 1, k, k)`` weight.
    """

    def __init__(
        self, kernel: int = 3, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        rng = construction_rng(rng)
        self.kernel = (kernel, kernel)
        self.padding = ((kernel - 1) // 2, (kernel - 1) // 2)
        self.weight = Parameter(
            kaiming_normal((1, 1, kernel, kernel), kernel * kernel, rng),
            name="weight",
        )
        self.bias = Parameter(np.zeros(1), name="bias")
        self._saved: np.ndarray | None = None
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        folded = x.reshape(n * c, 1, h, w)
        out, self._saved = conv2d_forward(
            folded, self.weight.data, self.bias.data, self.padding
        )
        self._shape = (n, c, h, w)
        return out.reshape(n, c, h, w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._saved is None or self._shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._shape
        folded_grad = grad_output.reshape(n * c, 1, h, w)
        grad_input, grad_weight, grad_bias = conv2d_backward(
            folded_grad,
            self._saved,
            (n * c, 1, h, w),
            self.weight.data,
            self.padding,
            with_bias=True,
        )
        self.weight.grad += grad_weight
        if grad_bias is None:
            raise RuntimeError(
                "conv2d_backward returned no bias gradient despite "
                "with_bias=True"
            )
        self.bias.grad += grad_bias
        return grad_input.reshape(n, c, h, w)


class MAVIREC(Module):
    """Depth-shared 3D-style stem + U-Net body + regression head."""

    def __init__(
        self,
        in_channels: int,
        base_channels: int = 8,
        depth: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.depth = depth
        self.stem_spatial = DepthSharedConv(3, rng=rng)
        self.stem_act = ReLU()
        self.stem_mix = Conv2d(in_channels, in_channels, 1, padding=0, rng=rng)
        self.stem_mix_act = ReLU()
        self.body = FlexUNet(
            in_channels=in_channels,
            base_channels=base_channels,
            depth=depth,
            seed=seed + 1,
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.stem_act(self.stem_spatial(x))
        x = self.stem_mix_act(self.stem_mix(x))
        return self.body(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.body.backward(grad_output)
        grad = self.stem_mix.backward(self.stem_mix_act.backward(grad))
        return self.stem_spatial.backward(self.stem_act.backward(grad))
