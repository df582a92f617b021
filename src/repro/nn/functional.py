"""Vectorised conv/pool primitives (im2col family).

All convolution layers reduce to three primitives: :func:`im2col`
(patch extraction via stride tricks), a batched matmul, and
:func:`col2im` (the scatter-add adjoint of im2col).  Kernels, strides and
paddings are ``(height, width)`` pairs so the asymmetric 1x7 / 7x1 kernels
of Inception-B/C come for free.

The im2col/col2im scratch matrices dominate training-time allocation
churn (a ``C*kh*kw x out_h*out_w`` matrix per conv per step), so the
primitives optionally draw their scratch from a per-layer
:class:`Workspace` arena.  Workspace buffers hold *scratch only* — patch
matrices and padded staging areas — never tensors that escape as layer
outputs, so reuse cannot alias activations held across steps (skip
connections, collected predictions).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

Pair = tuple[int, int]

class Workspace:
    """A per-layer arena of reusable scratch buffers, keyed by name.

    ``request`` returns the named buffer, reallocating only when the
    requested shape or dtype changes (steady-state training reuses every
    buffer).  Freshly allocated buffers are zeroed; pass ``refill=0.0``
    when the caller accumulates into the buffer and needs it re-zeroed on
    every reuse (the padded im2col staging area relies on zero-on-alloc
    alone: its border pixels are written exactly once and the interior is
    overwritten each call).
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
        refill: float | None = None,
    ) -> np.ndarray:
        buffer = self._buffers.get(name)
        if (
            buffer is None
            or buffer.shape != tuple(shape)
            or buffer.dtype != np.dtype(dtype)
        ):
            buffer = np.zeros(shape, dtype=dtype)
            self._buffers[name] = buffer
        elif refill is not None:
            buffer.fill(refill)
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


def conv_output_shape(
    input_hw: Pair, kernel: Pair, stride: Pair, padding: Pair
) -> Pair:
    """Spatial output shape of a convolution."""
    h, w = input_hw
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"non-positive conv output {out_h}x{out_w} for input {h}x{w}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    return (out_h, out_w)


def im2col(
    x: np.ndarray,
    kernel: Pair,
    stride: Pair,
    padding: Pair,
    workspace: Workspace | None = None,
    prefix: str = "",
) -> np.ndarray:
    """Extract sliding patches: ``(N, C*kh*kw, out_h*out_w)``.

    With a *workspace*, the padded staging area and the returned patch
    matrix are drawn from the arena; the result is then only valid until
    the next im2col call on the same workspace.  The copy into the
    preallocated buffer walks the strided windows in the same C order as
    ``ascontiguousarray``, so the contents are bitwise identical either
    way.  *prefix* namespaces the arena buffers so two im2col calls with
    different shapes (e.g. forward patches vs the backward-data sweep)
    don't evict each other's buffers every step.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if (kh, kw) == (1, 1) and (sh, sw) == (1, 1) and (ph, pw) == (0, 0):
        # A pointwise convolution's patch matrix IS the input: return a
        # reshaped view (bitwise identical, no copy, no arena buffer).
        # Callers cache it only as long as they hold the input alive.
        return x.reshape(n, c, h * w)
    out_h, out_w = conv_output_shape((h, w), kernel, stride, padding)
    if ph == 0 and pw == 0:
        padded = x
    elif workspace is not None:
        # Border pixels are zeroed at allocation and never written again;
        # only the interior is refreshed per call.
        padded = workspace.request(
            f"{prefix}im2col_padded", (n, c, h + 2 * ph, w + 2 * pw), x.dtype
        )
        padded[:, :, ph : ph + h, pw : pw + w] = x
    else:
        padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    s0, s1, s2, s3 = padded.strides
    windows = as_strided(
        padded,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
        writeable=False,
    )
    if workspace is not None:
        cols = workspace.request(
            f"{prefix}im2col_cols", (n, c * kh * kw, out_h * out_w), x.dtype
        )
        np.copyto(cols.reshape(n, c, kh, kw, out_h, out_w), windows)
        return cols
    return np.ascontiguousarray(windows).reshape(n, c * kh * kw, out_h * out_w)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: Pair,
    stride: Pair,
    padding: Pair,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patches back to image space.

    With a *workspace* the accumulator is drawn from the arena (re-zeroed
    per call) and the result may be a view of it — callers must consume
    the result before the next col2im on the same workspace, so only pass
    one for gradients that are consumed within the backward pass, never
    for layer outputs.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = conv_output_shape((h, w), kernel, stride, padding)
    expected = (n, c * kh * kw, out_h * out_w)
    if cols.shape != expected:
        raise ValueError(f"cols shape {cols.shape} != expected {expected}")
    blocks = cols.reshape(n, c, kh, kw, out_h, out_w)
    if workspace is not None:
        padded = workspace.request(
            "col2im_padded", (n, c, h + 2 * ph, w + 2 * pw), cols.dtype, refill=0.0
        )
    else:
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += (
                blocks[:, :, i, j]
            )
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + h, pw : pw + w]


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: Pair,
    padding: Pair,
    workspace: Workspace | None = None,
    fuse_relu: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Convolution forward; returns (output, cached patch matrix).

    The output is always freshly allocated (bias and the optional fused
    ReLU are applied in place on it); only the patch matrix may live in
    the workspace.
    """
    filters, in_channels, kh, kw = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels, weight expects {in_channels}"
        )
    cols = im2col(x, (kh, kw), stride, padding, workspace=workspace)
    out_h, out_w = conv_output_shape(x.shape[2:], (kh, kw), stride, padding)
    flat = np.matmul(weight.reshape(filters, -1), cols)  # (N, F, L)
    out = flat.reshape(x.shape[0], filters, out_h, out_w)
    if bias is not None:
        out += bias.reshape(1, filters, 1, 1)
    if fuse_relu:
        np.maximum(out, 0.0, out=out)
    return out, cols


def _adjoint_is_stride1(kernel: Pair, stride: Pair, padding: Pair) -> bool:
    """Stride 1 with padding below the kernel: the adjoint of the sliding
    window is the same window at padding ``kernel - 1 - padding``."""
    return stride == (1, 1) and padding[0] < kernel[0] and padding[1] < kernel[1]


def conv2d_backward(
    grad_output: np.ndarray,
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    weight: np.ndarray,
    stride: Pair,
    padding: Pair,
    with_bias: bool,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients (d_input, d_weight, d_bias) of a convolution.

    With a *workspace*, ``grad_input`` may be a view of arena scratch —
    valid until the layer's next backward, which is enough for a chain
    backward pass that consumes each gradient immediately.
    """
    n = grad_output.shape[0]
    filters, in_channels, kh, kw = weight.shape
    kernel = (kh, kw)
    ph, pw = padding
    grad_flat = grad_output.reshape(n, filters, -1)  # (N, F, L)
    # One GEMM per sample; the per-sample partials reduce in index order.
    grad_weight = np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0)
    grad_weight = grad_weight.reshape(weight.shape)
    grad_bias = grad_output.sum(axis=(0, 2, 3)) if with_bias else None
    if _adjoint_is_stride1(kernel, stride, padding):
        # Backward-data as a full correlation: im2col over the output
        # gradient + one GEMM with the 180°-rotated kernel.  This swaps
        # the memory-bound col2im scatter (kh*kw strided adds) for a
        # single patch copy.
        w_rot = np.ascontiguousarray(
            weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        ).reshape(in_channels, filters * kh * kw)
        cols_g = im2col(
            grad_output,
            kernel,
            (1, 1),
            (kh - 1 - ph, kw - 1 - pw),
            workspace=workspace,
            prefix="bwd_",
        )
        if workspace is not None:
            grad_input = workspace.request(
                "bwd_grad_input", (n, in_channels, cols_g.shape[2]), cols_g.dtype
            )
            np.matmul(w_rot, cols_g, out=grad_input)
        else:
            grad_input = np.matmul(w_rot, cols_g)
        return grad_input.reshape(x_shape), grad_weight, grad_bias
    # Strided (or padding >= kernel): GEMM into patch space, then scatter.
    w_mat_t = weight.reshape(filters, -1).T
    if workspace is not None:
        grad_cols = workspace.request(
            "grad_cols", (n, w_mat_t.shape[0], grad_flat.shape[2]), grad_flat.dtype
        )
        np.matmul(w_mat_t, grad_flat, out=grad_cols)  # (N, K, L)
    else:
        grad_cols = np.matmul(w_mat_t, grad_flat)
    grad_input = col2im(
        grad_cols, x_shape, kernel, stride, padding, workspace=workspace
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


def avgpool2d_forward(x: np.ndarray, kernel: Pair, padding: Pair = (0, 0),
                      stride: Pair | None = None) -> np.ndarray:
    """Average pooling: a box filter at stride 1, an im2col mean otherwise."""
    kh, kw = kernel
    stride = stride or kernel
    if _adjoint_is_stride1(kernel, stride, padding):
        return box_filter(x, kernel, padding)
    n, c = x.shape[:2]
    cols = im2col(x, kernel, stride, padding)
    out_h, out_w = conv_output_shape(x.shape[2:], kernel, stride, padding)
    means = cols.reshape(n, c, kh * kw, -1).mean(axis=2)
    return means.reshape(n, c, out_h, out_w)


def avgpool2d_backward(
    grad_output: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: Pair,
    padding: Pair = (0, 0),
    stride: Pair | None = None,
) -> np.ndarray:
    """Adjoint of average pooling: spread gradients uniformly."""
    kh, kw = kernel
    stride = stride or kernel
    if _adjoint_is_stride1(kernel, stride, padding):
        return box_filter(
            grad_output, kernel, (kh - 1 - padding[0], kw - 1 - padding[1])
        )
    n, c = x_shape[:2]
    grad_flat = grad_output.reshape(n, c, 1, -1) / (kh * kw)
    grad_cols = np.broadcast_to(
        grad_flat, (n, c, kh * kw, grad_flat.shape[-1])
    ).reshape(n, c * kh * kw, -1)
    return col2im(np.ascontiguousarray(grad_cols), x_shape, kernel, stride, padding)


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
