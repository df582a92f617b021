"""Edge-case coverage for the conv hot path: the per-tap kernel vs naive loops.

The vectorised (and workspace-backed) conv2d_forward/backward must agree
with a direct sliding-window reference for the awkward geometries the
happy-path tests never exercise: uneven padding, even kernels, and 1xN /
Nx1 kernels.  A strided geometry is the stride-1 kernel subsampled, and
its backward takes the zero-stuffed gradient (``ref.subsample``,
``ref.zero_stuff``), against the naive strided loops.
"""

import numpy as np
import pytest

from repro.nn.functional import Workspace, conv2d_backward, conv2d_forward
from tests import reference_conv as ref

#: (kernel, stride, padding) geometries under test.
GEOMETRIES = [
    pytest.param((3, 3), (2, 2), (1, 0), id="stride2-uneven-pad"),
    pytest.param((3, 3), (3, 2), (0, 1), id="mixed-stride"),
    pytest.param((2, 2), (1, 1), (0, 0), id="even-kernel"),
    pytest.param((2, 2), (2, 2), (1, 1), id="even-kernel-strided"),
    pytest.param((1, 5), (1, 1), (0, 2), id="1xN-kernel"),
    pytest.param((5, 1), (1, 1), (2, 0), id="Nx1-kernel"),
    pytest.param((1, 1), (2, 2), (0, 0), id="pointwise-strided"),
]


def naive_conv_forward(x, weight, bias, stride, padding):
    """Direct sliding-window convolution (correlation), looped."""
    n, c, h, w = x.shape
    filters, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, filters, out_h, out_w))
    for img in range(n):
        for f in range(filters):
            for i in range(out_h):
                for j in range(out_w):
                    patch = padded[
                        img, :, i * sh : i * sh + kh, j * sw : j * sw + kw
                    ]
                    out[img, f, i, j] = np.sum(patch * weight[f])
            if bias is not None:
                out[img, f] += bias[f]
    return out


def naive_conv_backward(grad_output, x, weight, stride, padding):
    """Gradients of the naive convolution, looped."""
    n, c, h, w = x.shape
    filters, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    grad_padded = np.zeros_like(padded)
    grad_weight = np.zeros_like(weight)
    _, _, out_h, out_w = grad_output.shape
    for img in range(n):
        for f in range(filters):
            for i in range(out_h):
                for j in range(out_w):
                    g = grad_output[img, f, i, j]
                    sl = (
                        img,
                        slice(None),
                        slice(i * sh, i * sh + kh),
                        slice(j * sw, j * sw + kw),
                    )
                    grad_weight[f] += g * padded[sl]
                    grad_padded[sl] += g * weight[f]
    grad_input = grad_padded[
        :, :, ph : ph + h, pw : pw + w
    ]
    grad_bias = grad_output.sum(axis=(0, 2, 3))
    return grad_input, grad_weight, grad_bias


@pytest.fixture(params=[None, "workspace"])
def workspace(request):
    return Workspace() if request.param else None


@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
class TestConvAgainstNaive:
    def _setup(self, kernel, stride, padding):
        rng = np.random.default_rng(42)
        kh, kw = kernel
        ph, pw = padding
        # Input just big enough for >= 2 output positions on each axis.
        h = max(kh + stride[0], kh - 2 * ph + stride[0]) + 3
        w = max(kw + stride[1], kw - 2 * pw + stride[1]) + 3
        x = rng.standard_normal((2, 3, h, w))
        weight = rng.standard_normal((4, 3, kh, kw))
        bias = rng.standard_normal(4)
        return x, weight, bias

    def test_forward_matches(self, kernel, stride, padding, workspace):
        x, weight, bias = self._setup(kernel, stride, padding)
        out, _ = conv2d_forward(x, weight, bias, padding, workspace)
        expected = naive_conv_forward(x, weight, bias, stride, padding)
        np.testing.assert_allclose(ref.subsample(out, stride), expected, atol=1e-12)

    def test_backward_matches(self, kernel, stride, padding, workspace):
        x, weight, bias = self._setup(kernel, stride, padding)
        out, saved = conv2d_forward(x, weight, bias, padding, workspace)
        rng = np.random.default_rng(7)
        grad_out = rng.standard_normal(ref.subsample(out, stride).shape)
        grad_input, grad_weight, grad_bias = conv2d_backward(
            ref.zero_stuff(grad_out, stride, out.shape), saved, x.shape, weight,
            padding, with_bias=True, workspace=workspace,
        )
        exp_input, exp_weight, exp_bias = naive_conv_backward(
            grad_out, x, weight, stride, padding
        )
        np.testing.assert_allclose(grad_input, exp_input, atol=1e-12)
        np.testing.assert_allclose(grad_weight, exp_weight, atol=1e-12)
        np.testing.assert_allclose(grad_bias, exp_bias, atol=1e-12)

    def test_im2col_col2im_adjoint(self, kernel, stride, padding, workspace):
        """<conv(x), y> == <x, conv^T(y)> for random x, y: the identity
        im2col/col2im held, now for the input gradient of conv2d_backward
        against conv2d_forward, at this geometry's stride."""
        x, weight, _ = self._setup(kernel, stride, padding)
        out, saved = conv2d_forward(x, weight, None, padding, workspace)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(ref.subsample(out, stride).shape)
        lhs = float(np.sum(ref.subsample(out, stride) * y))
        back, _, _ = conv2d_backward(
            ref.zero_stuff(y, stride, out.shape), saved, x.shape, weight,
            padding, with_bias=False, workspace=workspace,
        )
        rhs = float(np.sum(x * back))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestWorkspaceReuse:
    def test_repeated_calls_are_stable(self):
        """Buffer reuse across calls must not corrupt later results."""
        ws = Workspace()
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal((2, 3, 9, 9))
        x2 = rng.standard_normal((2, 3, 9, 9))
        w = rng.standard_normal((4, 3, 3, 3))
        fresh1, _ = conv2d_forward(x1, w, None, (1, 0))
        fresh2, _ = conv2d_forward(x2, w, None, (1, 0))
        for _ in range(3):
            out1, _ = conv2d_forward(x1, w, None, (1, 0), ws)
            out2, _ = conv2d_forward(x2, w, None, (1, 0), ws)
            np.testing.assert_array_equal(out1, fresh1)
            np.testing.assert_array_equal(out2, fresh2)

    def test_shape_change_reallocates(self):
        ws = Workspace()
        a = ws.request("buf", (4, 4), np.float32)
        b = ws.request("buf", (4, 4), np.float32)
        c = ws.request("buf", (2, 8), np.float32)
        assert a is b
        assert c.shape == (2, 8)

    def test_dtype_is_required_and_a_change_reallocates(self):
        ws = Workspace()
        with pytest.raises(TypeError):
            ws.request("buf", (4, 4))  # no silent float64 default
        narrow = ws.request("buf", (4, 4), np.float32)
        wide = ws.request("buf", (4, 4), np.float64)
        assert narrow.dtype == np.float32 and wide.dtype == np.float64
