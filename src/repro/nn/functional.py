"""Vectorised conv/pool primitives.

Every convolution is stride 1 with padding below the kernel, and is
:func:`tap_conv`: the input is copied once into zero-bordered rows
(:func:`stage_rows`) and the output is ``kh*kw`` per-tap GEMMs over
contiguous windows of them, with no patch matrix.  Training forward,
backward-weight and backward-data (a full correlation with the
180°-rotated taps) and the inference plan all run it.  Average pooling is
the same geometry, a separable :func:`box_filter`; downsampling is max
pooling.  Kernels and paddings are ``(height, width)`` pairs so the
asymmetric 1x7 / 7x1 kernels of Inception-B/C come for free.

Staged inputs and scratch come from a per-layer :class:`Workspace`
arena.  Workspace buffers hold scratch and the staged input a layer's
backward reads — never tensors that escape as layer outputs, so reuse
cannot alias activations held across steps (skip connections, collected
predictions).
"""

from __future__ import annotations

import numpy as np

Pair = tuple[int, int]

class Workspace:
    """A per-layer arena of reusable scratch buffers, keyed by name.

    ``request`` returns the named buffer, reallocating only when the
    requested shape or dtype changes (steady-state training reuses every
    buffer).  Freshly allocated buffers are zeroed and a reused one keeps
    its contents: the staged rows' border pixels are zeroed exactly once,
    and only the interior is overwritten each call.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def __getstate__(self) -> dict:
        # Scratch is never shipped: a copy allocates its buffers on
        # first use, so pickling them would only add bytes.
        return {"_buffers": {}}

    def request(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type,
    ) -> np.ndarray:
        buffer = self._buffers.get(name)
        if (
            buffer is None
            or buffer.shape != tuple(shape)
            or buffer.dtype != np.dtype(dtype)
        ):
            buffer = np.zeros(shape, dtype=dtype)
            self._buffers[name] = buffer
        return buffer

    def clear(self) -> None:
        self._buffers.clear()

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)


def to_pair(value: int | Pair) -> Pair:
    """Normalise an int or pair to a (height, width) pair."""
    if isinstance(value, int):
        return (value, value)
    pair = tuple(value)
    if len(pair) != 2:
        raise ValueError(f"expected an int or pair, got {value!r}")
    return (int(pair[0]), int(pair[1]))


def conv_taps(weight: np.ndarray) -> np.ndarray:
    """``(F, C, kh, kw)`` weights as ``(kh*kw, F, C)`` per-tap matrices."""
    filters, channels, kh, kw = weight.shape
    return np.ascontiguousarray(weight.transpose(2, 3, 0, 1)).reshape(
        kh * kw, filters, channels
    )


def tap_conv(
    x: np.ndarray,
    taps: np.ndarray,
    bias: np.ndarray | None,
    kernel: Pair,
    padding: Pair,
    relu: bool,
    staging: Workspace,
    scratch: Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 convolution by per-tap GEMMs; returns (output, staged input).

    A 1x1 kernel without padding is one GEMM on the input reshaped to
    ``(N, C, H*W)``, which is also what it returns as staged.  Any other
    kernel stages *x* into *staging* (:func:`stage_rows`) and sums
    ``taps[t] @ window_t`` into an accumulator from *scratch*; the staged
    rows are returned flat, ``(N, C, (rows + 1) * pitch)``.  *bias*, if
    given, broadcasts against ``(1, F, 1, 1)``; it and the optional ReLU
    are applied on the fresh output.
    """
    n, c, h, w = x.shape
    n_taps, filters, channels = taps.shape
    if c != channels:
        raise ValueError(f"input has {c} channels, weight expects {channels}")
    kh, kw = kernel
    if (kh, kw) == (1, 1) and padding == (0, 0):
        staged = x.reshape(n, c, h * w)
        out = np.matmul(taps[0], staged).reshape(n, filters, h, w)
        if bias is not None:
            out += bias
    else:
        staged, rows, pitch = stage_rows(x, padding, staging)
        out_h, out_w = rows - kh + 1, pitch - kw + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(f"kernel {kernel} larger than padded input")
        shape = (n, filters, out_h * pitch)
        acc = scratch.request(f"acc{shape}", shape, x.dtype)
        tap_out = scratch.request(f"tap{shape}", shape, x.dtype)
        # A one-channel GEMM is an outer product; numpy's matmul takes a
        # slow non-BLAS route for it, a broadcast multiply does not.
        product = np.multiply if c == 1 else np.matmul
        for t in range(n_taps):
            start = (t // kw) * pitch + t % kw
            tap_in = staged[:, :, start : start + shape[2]]
            if t == 0:
                product(taps[0], tap_in, out=acc)
            else:
                product(taps[t], tap_in, out=tap_out)
                acc += tap_out
        valid = acc.reshape(n, filters, out_h, pitch)[:, :, :, :out_w]
        out = valid.copy() if bias is None else valid + bias
    if relu:
        np.maximum(out, 0.0, out=out)
    return out, staged


def check_padding(kernel: Pair, padding: Pair) -> None:
    """Refuse a padding that is negative or at or above the kernel.

    Below the kernel, the adjoint of a stride-1 window is the same window
    at padding ``kernel - 1 - padding``; at or above it, that padding
    would be negative.
    """
    if not (0 <= padding[0] < kernel[0] and 0 <= padding[1] < kernel[1]):
        raise ValueError(
            f"padding {padding} must be in [0, kernel) for kernel {kernel}"
        )


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    padding: Pair,
    workspace: Workspace | None = None,
    fuse_relu: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Convolution forward by :func:`tap_conv`; returns (output, staged input).

    The output is always freshly allocated (bias and the optional fused
    ReLU are applied in place on it); the staged input, which the backward
    reads, lives in *workspace*.
    """
    filters, _, kh, kw = weight.shape
    check_padding((kh, kw), padding)
    if workspace is None:
        workspace = Workspace()
    bias4 = None if bias is None else bias.reshape(1, filters, 1, 1)
    scratch = Workspace()  # dropped on return: only the staging is kept
    return tap_conv(
        x, conv_taps(weight), bias4, (kh, kw), padding, fuse_relu, workspace, scratch
    )


def _tap_grad_weight(
    grad_output: np.ndarray,
    staged: np.ndarray,
    pitch: int,
    kernel: Pair,
    workspace: Workspace,
) -> np.ndarray:
    """Per-tap ``g @ window_t.T`` over the staged input: ``(F, C, kh, kw)``.

    The gradient is laid out at the staged rows' pitch, its ``kw - 1``
    wrapped columns per row zero (from allocation, never written), so
    the windows' wrapped columns contribute nothing.
    """
    n, filters, out_h, out_w = grad_output.shape
    kh, kw = kernel
    span = out_h * pitch
    if pitch == out_w:  # no wrapped columns
        g = grad_output.reshape(n, filters, span)
    else:
        shape = (n, filters, span)
        g = workspace.request(f"grad_rows{shape}", shape, grad_output.dtype)
        g.reshape(n, filters, out_h, pitch)[:, :, :, :out_w] = grad_output
    grad_taps = np.empty((kh * kw, filters, staged.shape[1]), grad_output.dtype)
    for t in range(kh * kw):
        start = (t // kw) * pitch + t % kw
        tap_in = staged[:, :, start : start + span]
        # One GEMM per sample; the per-sample partials reduce in index order.
        grad_taps[t] = np.matmul(g, tap_in.transpose(0, 2, 1)).sum(axis=0)
    return np.ascontiguousarray(
        grad_taps.reshape(kh, kw, filters, -1).transpose(2, 3, 0, 1)
    )


def conv2d_backward(
    grad_output: np.ndarray,
    saved: np.ndarray,
    x_shape: tuple[int, int, int, int],
    weight: np.ndarray,
    padding: Pair,
    with_bias: bool,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients (d_input, d_weight, d_bias) of a convolution.

    *saved* is what :func:`conv2d_forward` returned beside the output, on
    the same *workspace*.  The backward may overwrite it (the staged
    gradient shares the staged input's buffer when their shapes match),
    so it runs once per forward.
    """
    _, _, kh, kw = weight.shape
    kernel = (kh, kw)
    check_padding(kernel, padding)
    ph, pw = padding
    if workspace is None:
        workspace = Workspace()
    grad_bias = grad_output.sum(axis=(0, 2, 3)) if with_bias else None
    # Grad-weight first: staging the gradient may reuse the staged
    # input's buffer.  Backward-data is then the full correlation, the
    # same kernel with the 180°-rotated, transposed taps.
    grad_weight = _tap_grad_weight(
        grad_output, saved, x_shape[3] + 2 * pw, kernel, workspace
    )
    rotated = conv_taps(weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    full = (kh - 1 - ph, kw - 1 - pw)
    grad_input, _ = tap_conv(
        grad_output, rotated, None, kernel, full, False, workspace, Workspace()
    )
    return grad_input, grad_weight, grad_bias


def maxpool2d_forward(
    x: np.ndarray, kernel: Pair
) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping max pooling; returns (output, argmax mask).

    Stride equals kernel and the spatial dims must divide evenly — the
    only configuration the models use (2x2).
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    if h % kh or w % kw:
        raise ValueError(f"input {h}x{w} not divisible by pool {kernel}")
    oh, ow = h // kh, w // kw
    blocks = x.reshape(n, c, oh, kh, ow, kw)
    flat = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, kh * kw)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return out, arg


def maxpool2d_backward(
    grad_output: np.ndarray,
    arg: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: Pair,
) -> np.ndarray:
    """Route gradients to the argmax positions."""
    n, c, h, w = x_shape
    kh, kw = kernel
    oh, ow = h // kh, w // kw
    flat = np.zeros((n, c, oh, ow, kh * kw), dtype=grad_output.dtype)
    np.put_along_axis(flat, arg[..., None], grad_output[..., None], axis=-1)
    blocks = flat.reshape(n, c, oh, ow, kh, kw).transpose(0, 1, 2, 4, 3, 5)
    return blocks.reshape(n, c, h, w)


def stage_rows(
    x: np.ndarray, padding: Pair, workspace: Workspace
) -> tuple[np.ndarray, int, int]:
    """Copy *x* into zero-bordered scratch; returns (flat view, rows, pitch).

    Rows have pitch ``W + 2*pw`` and one slack row follows the last, so the
    window at kernel offset ``(i, j)`` is the contiguous flat slice from
    ``i*pitch + j`` — ``kw - 1`` wrapped columns per row are the price.
    The border is zeroed at allocation and never written.  Buffer names
    carry their shapes, so callers of different sizes can share an arena.
    """
    n, c, h, w = x.shape
    ph, pw = padding
    rows, pitch = h + 2 * ph, w + 2 * pw
    staged = workspace.request(
        f"stage{(n, c, rows, pitch, ph, pw)}", (n, c, rows + 1, pitch), x.dtype
    )
    staged[:, :, ph : ph + h, pw : pw + w] = x
    return staged.reshape(n, c, -1), rows, pitch


def box_filter(
    x: np.ndarray, kernel: Pair, padding: Pair, workspace: Workspace | None = None
) -> np.ndarray:
    """Stride-1 box mean over zero-padded *x* (the padding is counted).

    Separable: ``kw`` shifted adds along the staged rows, then ``kh`` down
    them, each one contiguous run.  The filter is symmetric, so its
    adjoint is the same filter with padding ``kernel - 1 - padding``.
    The result is a fresh array; a *workspace* only holds the scratch.
    """
    if workspace is None:
        workspace = Workspace()
    n, c = x.shape[:2]
    kh, kw = kernel
    flat, rows, pitch = stage_rows(x, padding, workspace)
    out_h, out_w = rows - kh + 1, pitch - kw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"kernel {kernel} larger than padded input")
    length, span = rows * pitch, out_h * pitch
    sums = workspace.request(f"sums{(n, c, length)}", (n, c, length), x.dtype)
    sums[...] = flat[:, :, :length]
    for j in range(1, kw):
        sums += flat[:, :, j : j + length]
    total = workspace.request(f"acc{(n, c, span)}", (n, c, span), x.dtype)
    total[...] = sums[:, :, :span]
    for i in range(1, kh):
        total += sums[:, :, i * pitch : i * pitch + span]
    valid = total.reshape(n, c, out_h, pitch)[:, :, :, :out_w]
    return valid * x.dtype.type(1.0 / (kh * kw))


def avgpool2d_forward(
    x: np.ndarray, kernel: Pair, padding: Pair = (0, 0)
) -> np.ndarray:
    """Stride-1 average pooling: the box filter."""
    check_padding(kernel, padding)
    return box_filter(x, kernel, padding)


def avgpool2d_backward(
    grad_output: np.ndarray, kernel: Pair, padding: Pair = (0, 0)
) -> np.ndarray:
    """Adjoint of average pooling: the box filter at padding
    ``kernel - 1 - padding``, which restores the input's shape."""
    check_padding(kernel, padding)
    kh, kw = kernel
    return box_filter(grad_output, kernel, (kh - 1 - padding[0], kw - 1 - padding[1]))


def upsample_nearest_forward(x: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbour upsampling by an integer factor."""
    return x.repeat(factor, axis=2).repeat(factor, axis=3)


def upsample_nearest_backward(grad_output: np.ndarray, factor: int) -> np.ndarray:
    """Adjoint of nearest upsampling: sum each factor x factor block,
    as the sum of ``factor**2`` strided views."""
    h, w = grad_output.shape[2:]
    if h % factor or w % factor:
        raise ValueError(f"gradient {h}x{w} not divisible by factor {factor}")
    out = grad_output[:, :, ::factor, ::factor].copy()
    for t in range(1, factor * factor):
        out += grad_output[:, :, t // factor :: factor, t % factor :: factor]
    return out
