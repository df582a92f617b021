"""Reference conv / norm / pool kernels (moved verbatim from ``repro.nn``).

Until PR 22 ``repro.nn.functional`` and ``repro.nn.layers`` carried two
forms of every training kernel: a fixed-order form taken for float64 and
a GEMM form taken for float32.  The GEMM forms now serve every dtype;
the fixed-order forms live here as the *reference* the tests compare
against — an einsum grad-weight, a ``W.T @ g`` -> ``col2im`` scatter for
backward-data, the divide-form BatchNorm forward and its three-reduction
backward, average pooling as an im2col mean / broadcast + ``col2im``, and
the 6-D reshape upsample adjoint.  ``_im2col`` / ``_col2im`` are copies
of the patch-matrix primitives ``repro.nn.functional`` had before it kept
only stride-1 kernels, so the oracle shares no code with what it checks.
They take any stride and padding; :func:`subsample` and
:func:`zero_stuff` turn a stride-1 kernel's output and gradient into the
strided ones the reference computes.  Nothing in ``src/`` calls these.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


def output_shape(input_hw, kernel, stride, padding):
    """Spatial output shape of a strided, padded sliding window."""
    (h, w), (kh, kw), (sh, sw), (ph, pw) = input_hw, kernel, stride, padding
    return ((h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1)


def _im2col(x, kernel, stride, padding):
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = output_shape((h, w), kernel, stride, padding)
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    s0, s1, s2, s3 = padded.strides
    windows = as_strided(
        padded,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
        writeable=False,
    )
    return np.ascontiguousarray(windows).reshape(n, c * kh * kw, out_h * out_w)


def _col2im(cols, x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = output_shape((h, w), kernel, stride, padding)
    blocks = cols.reshape(n, c, kh, kw, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += (
                blocks[:, :, i, j]
            )
    return padded[:, :, ph : ph + h, pw : pw + w]


def subsample(out, stride):
    """A strided output from a stride-1 one: every stride-th row and column."""
    return out[:, :, :: stride[0], :: stride[1]]


def zero_stuff(grad, stride, shape):
    """The adjoint of :func:`subsample`: *grad* at every stride-th row and
    column of a zero array of the stride-1 output's *shape*."""
    full = np.zeros(shape, dtype=grad.dtype)
    full[:, :, :: stride[0], :: stride[1]] = grad
    return full


def conv2d_backward(grad_output, x, weight, stride, padding, with_bias=True):
    """(d_input, d_weight, d_bias): einsum grad-weight, scatter backward-data."""
    n = grad_output.shape[0]
    filters = weight.shape[0]
    kernel = (weight.shape[2], weight.shape[3])
    cols = _im2col(x, kernel, stride, padding)
    grad_flat = grad_output.reshape(n, filters, -1)  # (N, F, L)
    # The einsum C-loop accumulates in a fixed order.
    grad_weight = np.einsum("nfl,nkl->fk", grad_flat, cols)
    grad_weight = grad_weight.reshape(weight.shape)
    grad_bias = grad_output.sum(axis=(0, 2, 3)) if with_bias else None
    w_mat_t = weight.reshape(filters, -1).T
    grad_cols = np.matmul(w_mat_t, grad_flat)  # (N, K, L)
    grad_input = _col2im(grad_cols, x.shape, kernel, stride, padding)
    return grad_input, grad_weight, grad_bias


def batchnorm_forward(x, gamma, beta, mean, var, eps):
    """Divide-form normalisation; returns (output, x_hat, std)."""
    std = np.sqrt(var + eps)
    x_hat = (x - mean.reshape(1, -1, 1, 1)) / std.reshape(1, -1, 1, 1)
    out = gamma.reshape(1, -1, 1, 1) * x_hat + beta.reshape(1, -1, 1, 1)
    return out, x_hat, std


def batchnorm_backward(grad_output, x_hat, std, gamma, training):
    """(d_input, d_gamma, d_beta) in the legacy operation order."""
    grad_gamma = (grad_output * x_hat).sum(axis=(0, 2, 3))
    grad_beta = grad_output.sum(axis=(0, 2, 3))
    grad_x_hat = grad_output * gamma.reshape(1, -1, 1, 1)
    if not training:
        return grad_x_hat / std.reshape(1, -1, 1, 1), grad_gamma, grad_beta
    count = grad_output.shape[0] * grad_output.shape[2] * grad_output.shape[3]
    sum_g = grad_x_hat.sum(axis=(0, 2, 3), keepdims=True)
    sum_gx = (grad_x_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
    grad_input = (
        grad_x_hat - sum_g / count - x_hat * sum_gx / count
    ) / std.reshape(1, -1, 1, 1)
    return grad_input, grad_gamma, grad_beta


def avgpool2d_forward(x, kernel, padding=(0, 0), stride=None):
    """Average pooling via im2col (supports overlapping windows)."""
    kh, kw = kernel
    stride = stride or kernel
    n, c = x.shape[:2]
    cols = _im2col(x, kernel, stride, padding)
    out_h, out_w = output_shape(x.shape[2:], kernel, stride, padding)
    means = cols.reshape(n, c, kh * kw, -1).mean(axis=2)
    return means.reshape(n, c, out_h, out_w)


def avgpool2d_backward(grad_output, x_shape, kernel, padding=(0, 0), stride=None):
    """Adjoint of average pooling: spread gradients uniformly."""
    kh, kw = kernel
    stride = stride or kernel
    n, c = x_shape[:2]
    grad_flat = grad_output.reshape(n, c, 1, -1) / (kh * kw)
    grad_cols = np.broadcast_to(
        grad_flat, (n, c, kh * kw, grad_flat.shape[-1])
    ).reshape(n, c * kh * kw, -1)
    return _col2im(np.ascontiguousarray(grad_cols), x_shape, kernel, stride, padding)


def upsample_nearest_backward(grad_output, factor):
    """Adjoint of nearest upsampling: sum each factor x factor block."""
    n, c, h, w = grad_output.shape
    blocks = grad_output.reshape(n, c, h // factor, factor, w // factor, factor)
    return blocks.sum(axis=(3, 5))
