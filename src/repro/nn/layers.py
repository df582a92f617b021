"""Core layers with explicit forward/backward passes."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from repro.nn.functional import (
    Pair,
    Workspace,
    avgpool2d_backward,
    avgpool2d_forward,
    check_padding,
    conv2d_backward,
    conv2d_forward,
    maxpool2d_backward,
    maxpool2d_forward,
    to_pair,
    upsample_nearest_backward,
    upsample_nearest_forward,
)
from repro.nn.init import construction_rng, kaiming_normal
from repro.nn.module import Module, Parameter


def _resolve_padding(padding: int | Pair | str, kernel: Pair) -> Pair:
    if padding == "same":
        kh, kw = kernel
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError("'same' padding requires odd kernel sizes")
        return ((kh - 1) // 2, (kw - 1) // 2)
    return to_pair(padding)  # type: ignore[arg-type]


class Conv2d(Module):
    """2D convolution with optional bias.

    Stride 1, padding below the kernel (construction refuses any other):
    the per-tap kernel (:func:`~repro.nn.functional.tap_conv`), keeping
    the staged input for the backward.  The workspace holds one batch
    size: a new input shape clears it first.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int | Pair,
        *,
        padding: int | Pair | str = "same",
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = construction_rng(rng)
        self.kernel = to_pair(kernel)
        self.padding = _resolve_padding(padding, self.kernel)
        check_padding(self.kernel, self.padding)
        kh, kw = self.kernel
        fan_in = in_channels * kh * kw
        self.weight = Parameter(
            kaiming_normal((out_channels, in_channels, kh, kw), fan_in, rng),
            name="weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="bias") if bias else None
        self._workspace = Workspace()
        self._saved: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self._x_shape:
            # Buffer names carry their shapes: a short batch replaces the
            # full-size set instead of sitting beside it.
            self._workspace.clear()
        out, self._saved = conv2d_forward(
            x,
            self.weight.data,
            self.bias.data if self.bias is not None else None,
            self.padding,
            workspace=self._workspace,
        )
        self._x_shape = x.shape
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._saved is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        grad_input, grad_weight, grad_bias = conv2d_backward(
            grad_output,
            self._saved,
            self._x_shape,
            self.weight.data,
            self.padding,
            with_bias=self.bias is not None,
            workspace=self._workspace,
        )
        self.weight.grad += grad_weight
        if self.bias is not None and grad_bias is not None:
            self.bias.grad += grad_bias
        return grad_input


class FusedConvBiasReLU(Module):
    """Conv + bias + ReLU executed as one fused kernel.

    Built from an existing :class:`Conv2d` by the
    :func:`~repro.nn.containers.fuse_conv_relu` graph pass.  The
    ``weight``/``bias`` attributes are the *same* :class:`Parameter`
    objects as the source conv (same state-dict paths, same optimizer
    slots), so fusion is transparent to saved weights and training state.
    The ReLU mask is recovered from the fused output (``out > 0`` iff the
    pre-activation was ``> 0``), saving the separate pre-activation
    tensor the unfused pair keeps alive.
    """

    def __init__(self, conv: Conv2d) -> None:
        super().__init__()
        self.kernel = conv.kernel
        self.padding = conv.padding
        self.weight = conv.weight
        self.bias = conv.bias
        self._workspace = conv._workspace
        self._saved: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self._x_shape:
            self._workspace.clear()  # one batch size, as in Conv2d
        out, self._saved = conv2d_forward(
            x,
            self.weight.data,
            self.bias.data if self.bias is not None else None,
            self.padding,
            workspace=self._workspace,
            fuse_relu=True,
        )
        self._x_shape = x.shape
        self._mask = out > 0
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._saved is None or self._x_shape is None or self._mask is None:
            raise RuntimeError("backward called before forward")
        grad_pre = np.where(self._mask, grad_output, 0.0)
        grad_input, grad_weight, grad_bias = conv2d_backward(
            grad_pre,
            self._saved,
            self._x_shape,
            self.weight.data,
            self.padding,
            with_bias=self.bias is not None,
            workspace=self._workspace,
        )
        self.weight.grad += grad_weight
        if self.bias is not None and grad_bias is not None:
            self.bias.grad += grad_bias
        return grad_input


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) per channel with running stats."""

    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.gamma = Parameter(np.ones(channels), name="gamma")
        self.beta = Parameter(np.zeros(channels), name="beta")
        self.eps = eps
        self.momentum = momentum
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            # One pass over x: E[x] and E[x^2] together, instead of the
            # separate mean+var sweeps (var clamped against the tiny
            # negative values cancellation can produce).
            count = x.shape[0] * x.shape[2] * x.shape[3]
            mean = x.sum(axis=(0, 2, 3)) / count
            mean_sq = np.einsum("nchw,nchw->c", x, x) / count
            var = np.maximum(mean_sq - mean * mean, 0.0)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        # Multiply by the reciprocal instead of dividing elementwise.
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
        self._cache = (x_hat, inv_std)
        return self.gamma.data.reshape(1, -1, 1, 1) * x_hat + self.beta.data.reshape(
            1, -1, 1, 1
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std = self._cache
        # The parameter-gradient reductions already carry the per-channel
        # sums the input gradient needs (sum(g*gamma) = gamma*beta-contrib,
        # sum(g*gamma*x_hat) = gamma*gamma-contrib), so the whole input
        # gradient is one per-channel affine form c1*g + c2*x_hat + c3 —
        # no further full-array reductions and no grad_x_hat temporary.
        g_sum = grad_output.sum(axis=(0, 2, 3))
        gx_sum = np.einsum("nchw,nchw->c", grad_output, x_hat)
        self.gamma.grad += gx_sum
        self.beta.grad += g_sum
        scale = self.gamma.data * inv_std
        if not self.training:
            return grad_output * scale.reshape(1, -1, 1, 1)
        count = grad_output.shape[0] * grad_output.shape[2] * grad_output.shape[3]
        c2 = -(scale * gx_sum) / count
        c3 = -(scale * g_sum) / count
        return (
            grad_output * scale.reshape(1, -1, 1, 1)
            + x_hat * c2.reshape(1, -1, 1, 1)
            + c3.reshape(1, -1, 1, 1)
        )


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_output, 0.0)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = expit(x)
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._out * (1.0 - self._out)


class Identity(Module):
    """Pass-through (useful as an ablation stand-in)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


class MaxPool2d(Module):
    """Non-overlapping max pooling (stride == kernel)."""

    def __init__(self, kernel: int | Pair = 2) -> None:
        super().__init__()
        self.kernel = to_pair(kernel)
        self._arg: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, arg = maxpool2d_forward(x, self.kernel)
        self._arg = arg
        self._x_shape = x.shape
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._arg is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        return maxpool2d_backward(grad_output, self._arg, self._x_shape, self.kernel)


class AvgPool2d(Module):
    """Stride-1 average pooling (zero padding counted): a box filter.

    Padding must be below the kernel.  It smooths without downsampling,
    as the Inception pool branches need; downsampling is
    :class:`MaxPool2d`.
    """

    def __init__(self, kernel: int | Pair = 2, *, padding: int | Pair = 0) -> None:
        super().__init__()
        self.kernel = to_pair(kernel)
        self.padding = to_pair(padding)
        check_padding(self.kernel, self.padding)
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return avgpool2d_forward(x, self.kernel, self.padding)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        return avgpool2d_backward(grad_output, self.kernel, self.padding)


class UpsampleNearest(Module):
    """Nearest-neighbour upsampling by an integer factor."""

    def __init__(self, factor: int = 2) -> None:
        super().__init__()
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.factor = factor

    def forward(self, x: np.ndarray) -> np.ndarray:
        return upsample_nearest_forward(x, self.factor)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return upsample_nearest_backward(grad_output, self.factor)
