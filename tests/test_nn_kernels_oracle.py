"""Training kernels of ``repro.nn`` against the reference forms they replaced.

``tests/reference_conv.py`` holds the fixed-order kernels float64 training
ran until PR 22 (einsum grad-weight, ``col2im`` scatter backward-data,
divide-form BatchNorm, im2col-mean pooling, 6-D reshape upsample
adjoint).  ``src/`` now has one stride-1 kernel per op for every dtype;
this file is the referee: float64 agrees to 1e-12 and float32 to 1e-5 of
the reference's largest magnitude, on every kernel / padding shape the
models use.  A strided reference case checks the stride-1 kernel through
``ref.subsample`` (forward) and ``ref.zero_stuff`` (backward); padding at
or above the kernel is refused.  Layers hold float32 parameters, the
network's dtype; a float64 layer-level case widens its layer first
(``tests.helpers.widen``), since kernels follow their inputs' dtype.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.functional import Workspace
from repro.nn.inference import PlannedAvgPool, PlannedConv
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    FusedConvBiasReLU,
)
from tests import reference_conv as ref
from tests.helpers import widen

TOLERANCE = {np.float64: 1e-12, np.float32: 1e-5}
DTYPES = [np.float64, np.float32]
KERNELS = [(1, 1), (3, 3), (5, 5), (7, 7), (1, 7), (7, 1), (2, 2)]
HW = (9, 10)
CHANNELS, FILTERS = 3, 4


def rel_err(got, want) -> float:
    """Largest deviation, relative to the reference's largest magnitude."""
    want = np.asarray(want, dtype=np.float64)
    scale = max(float(np.abs(want).max()), 1e-300)
    return float(np.abs(np.asarray(got, dtype=np.float64) - want).max()) / scale


#: 1x1's (1, 0) is at the kernel on one axis, so it is refused like 'over'.
ASYMMETRIC = {
    (1, 1): (1, 0), (3, 3): (1, 0), (5, 5): (2, 1), (7, 7): (3, 1),
    (1, 7): (0, 2), (7, 1): (2, 0), (2, 2): (1, 0),
}  # fmt: skip


def padding_for(kind: str, kernel):
    kh, kw = kernel
    return {
        "zero": (0, 0),
        "same": ((kh - 1) // 2, (kw - 1) // 2),
        "asymmetric": ASYMMETRIC[kernel],
        "over": kernel,  # padding >= kernel on both axes: refused
    }[kind]


def refused(kernel, padding) -> bool:
    """Padding at or above the kernel on either axis."""
    return padding[0] >= kernel[0] or padding[1] >= kernel[1]


def assert_conv_refused(kernel, padding):
    """Conv2d, conv2d_forward and conv2d_backward reject the padding."""
    x = np.zeros((1, CHANNELS, *HW))
    weight = np.zeros((FILTERS, CHANNELS, *kernel))
    with pytest.raises(ValueError, match="padding"):
        Conv2d(CHANNELS, FILTERS, kernel, padding=padding)
    with pytest.raises(ValueError, match="padding"):
        F.conv2d_forward(x, weight, None, padding)
    with pytest.raises(ValueError, match="padding"):
        F.conv2d_backward(x[:, :FILTERS], x, x.shape, weight, padding, True)


#: Every kernel with every padding kind; 'same' needs odd kernels.
CONV_CASES = [
    pytest.param(kernel, kind, id=f"{kernel[0]}x{kernel[1]}-{kind}")
    for kernel in KERNELS
    for kind in ("zero", "same", "asymmetric", "over")
    if kind != "same" or (kernel[0] % 2 and kernel[1] % 2)
]


def draw(rng, shape, dtype):
    """Values of *dtype*, and the same values widened for the reference."""
    values = rng.standard_normal(shape).astype(dtype)
    return values, values.astype(np.float64)


def spy(monkeypatch, name: str) -> list:
    """Count calls of ``repro.nn.functional.<name>`` without changing it."""
    calls = []
    original = getattr(F, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(F, name, wrapper)
    return calls


def no_einsum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum on a conv training path")

    monkeypatch.setattr(np, "einsum", refuse)


@pytest.mark.parametrize("dtype", DTYPES, ids=["fp64", "fp32"])
@pytest.mark.parametrize("stride", [(1, 1), (2, 2)], ids=["s1", "s2"])
@pytest.mark.parametrize("kernel,pad_kind", CONV_CASES)
def test_conv_backward_matches_reference(kernel, pad_kind, stride, dtype, monkeypatch):
    """The stride-1 kernel, subsampled, against the reference at *stride*;
    its backward takes the zero-stuffed gradient."""
    padding = padding_for(pad_kind, kernel)
    if refused(kernel, padding):
        assert_conv_refused(kernel, padding)
        return
    tol = TOLERANCE[dtype]
    rng = np.random.default_rng(sum(kernel) * 7 + stride[0])
    for n in (1, 3, 8):
        x, x_wide = draw(rng, (n, CHANNELS, *HW), dtype)
        weight, w_wide = draw(rng, (FILTERS, CHANNELS, *kernel), dtype)
        full = (n, FILTERS, *ref.output_shape(HW, kernel, (1, 1), padding))
        out_hw = ref.output_shape(HW, kernel, stride, padding)
        g, g_wide = draw(rng, (n, FILTERS, *out_hw), dtype)
        want = ref.conv2d_backward(g_wide, x_wide, w_wide, stride, padding)
        for workspace in (None, Workspace()):
            _, saved = F.conv2d_forward(x, weight, None, padding, workspace)
            with monkeypatch.context() as patch:
                no_einsum(patch)
                got = F.conv2d_backward(
                    ref.zero_stuff(g, stride, full), saved, x.shape, weight,
                    padding, True, workspace,
                )
            for name, a, b in zip(("input", "weight", "bias"), got, want):
                assert a.dtype == dtype, name
                assert a.shape == b.shape, name
                assert rel_err(a, b) <= tol, (name, n, workspace is not None)


@pytest.mark.parametrize("dtype", DTYPES, ids=["fp64", "fp32"])
def test_conv_backward_with_as_many_filters_as_channels(dtype):
    """F == C at 'same' padding: the staged gradient and the staged input
    have one shape, so they share one workspace buffer; grad-weight must
    read the input before the gradient is staged over it."""
    rng = np.random.default_rng(37)
    kernel, padding = (3, 3), (1, 1)
    workspace = Workspace()
    for n in (1, 3, 8):
        x, x_wide = draw(rng, (n, CHANNELS, *HW), dtype)
        weight, w_wide = draw(rng, (CHANNELS, CHANNELS, *kernel), dtype)
        g, g_wide = draw(rng, (n, CHANNELS, *HW), dtype)
        want = ref.conv2d_backward(g_wide, x_wide, w_wide, (1, 1), padding)
        _, saved = F.conv2d_forward(x, weight, None, padding, workspace)
        got = F.conv2d_backward(g, saved, x.shape, weight, padding, True, workspace)
        staged = [key for key in workspace._buffers if key.startswith("stage")]
        assert len(staged) == 1, staged
        for name, a, b in zip(("input", "weight", "bias"), got, want):
            assert a.dtype == dtype and a.shape == b.shape, name
            assert rel_err(a, b) <= TOLERANCE[dtype], (name, n)
        workspace.clear()  # one batch size per workspace, as in a layer


def test_conv_backward_without_bias_returns_none():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, CHANNELS, *HW))
    weight = rng.standard_normal((FILTERS, CHANNELS, 3, 3))
    out, saved = F.conv2d_forward(x, weight, None, (1, 1))
    grads = F.conv2d_backward(out, saved, x.shape, weight, (1, 1), False)
    assert grads[2] is None


@pytest.mark.parametrize("dtype", DTYPES, ids=["fp64", "fp32"])
@pytest.mark.parametrize(
    "kernel,stride,padding",
    [((3, 3), (1, 1), (1, 1)), ((1, 7), (1, 1), (0, 3)), ((3, 3), (1, 1), (2, 2)),
     ((1, 1), (1, 1), (0, 0)), ((3, 3), (2, 2), (1, 1)), ((5, 5), (1, 1), (5, 5))],
)  # fmt: skip
@pytest.mark.parametrize("use_workspace", [False, True], ids=["fresh", "arena"])
def test_conv_backward_noncontiguous_grad_output(
    kernel, stride, padding, dtype, use_workspace
):
    """A gradient arriving as a channel slice or a transposed view (a
    strided case zero-stuffs it into a Fortran-ordered array)."""
    if refused(kernel, padding):
        assert_conv_refused(kernel, padding)
        return
    rng = np.random.default_rng(11)
    workspace = Workspace() if use_workspace else None
    x, x_wide = draw(rng, (3, CHANNELS, *HW), dtype)
    weight, w_wide = draw(rng, (FILTERS, CHANNELS, *kernel), dtype)
    full = (3, FILTERS, *ref.output_shape(HW, kernel, (1, 1), padding))
    out_h, out_w = ref.output_shape(HW, kernel, stride, padding)
    wide, _ = draw(rng, (3, 2 * FILTERS, out_h, out_w), dtype)
    swapped, _ = draw(rng, (3, FILTERS, out_w, out_h), dtype)
    for g in (wide[:, ::2], swapped.transpose(0, 1, 3, 2)):
        want = ref.conv2d_backward(
            np.ascontiguousarray(g, dtype=np.float64), x_wide, w_wide, stride, padding
        )
        if stride != (1, 1):
            g = np.asfortranarray(ref.zero_stuff(g, stride, full))
        assert not g.flags.c_contiguous
        _, saved = F.conv2d_forward(x, weight, None, padding, workspace)
        got = F.conv2d_backward(g, saved, x.shape, weight, padding, True, workspace)
        for a, b in zip(got, want):
            assert rel_err(a, b) <= TOLERANCE[dtype]


@pytest.mark.parametrize("dtype", DTYPES, ids=["fp64", "fp32"])
class TestBatchNorm:
    def _layer(self, dtype):
        bn = BatchNorm2d(5)
        if dtype == np.float64:
            widen(bn)
        bn.gamma.data[...] = np.linspace(0.5, 1.5, 5)
        bn.beta.data[...] = np.linspace(-0.2, 0.2, 5)
        return bn

    def _check(self, bn, x, x_wide, mean, var, rng, dtype):
        tol = TOLERANCE[dtype]
        gamma, beta = bn.gamma.data, bn.beta.data
        want_out, x_hat, std = ref.batchnorm_forward(
            x_wide, gamma, beta, mean, var, bn.eps
        )
        out = bn(x)
        assert out.dtype == dtype
        assert rel_err(out, want_out) <= tol
        g, g_wide = draw(rng, x.shape, dtype)
        want = ref.batchnorm_backward(g_wide, x_hat, std, gamma, bn.training)
        bn.zero_grad()
        grad_input = bn.backward(g)
        assert bn.running_mean.dtype == bn.running_var.dtype == dtype
        got = (grad_input, bn.gamma.grad, bn.beta.grad)
        assert all(a.dtype == dtype for a in got)
        for a, b in zip(got, want):
            assert rel_err(a, b) <= tol

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_train_mode(self, dtype, n):
        rng = np.random.default_rng(17)
        bn = self._layer(dtype)
        x, x_wide = draw(rng, (n, 5, 6, 7), dtype)
        x, x_wide = x * 2 + 1, x_wide * 2 + 1
        mean, var = x_wide.mean(axis=(0, 2, 3)), x_wide.var(axis=(0, 2, 3))
        keep = 1 - bn.momentum
        old_mean, old_var = bn.running_mean.copy(), bn.running_var.copy()
        self._check(bn, x, x_wide, mean, var, rng, dtype)
        moved_mean = bn.running_mean - keep * old_mean
        moved_var = bn.running_var - keep * old_var
        assert rel_err(moved_mean, bn.momentum * mean) <= TOLERANCE[dtype]
        assert rel_err(moved_var, bn.momentum * var) <= TOLERANCE[dtype]

    def test_eval_mode(self, dtype):
        rng = np.random.default_rng(19)
        bn = self._layer(dtype)
        warm, _ = draw(rng, (4, 5, 6, 7), dtype)
        bn(warm * 3 - 1)  # non-trivial running buffers
        bn.eval()
        x, x_wide = draw(rng, (2, 5, 6, 7), dtype)
        self._check(bn, x, x_wide, bn.running_mean, bn.running_var, rng, dtype)


@pytest.mark.parametrize("dtype", DTYPES, ids=["fp64", "fp32"])
@pytest.mark.parametrize(
    "kernel,padding,stride,boxed",
    [
        ((3, 3), (1, 1), (1, 1), True),  # the Inception pool branch
        ((2, 2), (0, 0), (1, 1), True),
        ((3, 3), (0, 0), (1, 1), True),
        ((1, 7), (0, 3), (1, 1), True),
        ((5, 3), (2, 0), (1, 1), True),
        ((3, 3), (2, 1), (1, 1), True),
        ((2, 2), (2, 2), (1, 1), False),  # padding >= kernel: refused
        ((2, 2), (0, 0), (2, 2), False),
        ((3, 3), (1, 1), (2, 2), False),
        ((2, 2), (0, 0), None, False),  # stride defaults to the kernel
    ],
)
def test_avgpool_matches_reference(kernel, padding, stride, boxed, dtype, monkeypatch):
    """Every pool is the box filter.  A strided reference pool is it
    subsampled (*boxed* is false) and its adjoint takes the zero-stuffed
    gradient; padding at or above the kernel is refused."""
    if refused(kernel, padding):
        x = np.zeros((1, 3, 10, 12))
        for call in (
            lambda: AvgPool2d(kernel, padding=padding),
            lambda: F.avgpool2d_forward(x, kernel, padding),
            lambda: F.avgpool2d_backward(x, kernel, padding),
        ):
            with pytest.raises(ValueError, match="padding"):
                call()
        return
    step = stride or kernel  # the reference's stride defaults to the kernel
    assert boxed == (step == (1, 1))
    rng = np.random.default_rng(23)
    boxes = spy(monkeypatch, "box_filter")
    for n in (1, 3, 8):
        x, x_wide = draw(rng, (n, 3, 10, 12), dtype)
        full = F.avgpool2d_forward(x, kernel, padding)
        out = ref.subsample(full, step)
        want = ref.avgpool2d_forward(x_wide, kernel, padding, stride)
        assert out.dtype == dtype and out.shape == want.shape
        assert rel_err(out, want) <= TOLERANCE[dtype]
        g, g_wide = draw(rng, out.shape, dtype)
        back = F.avgpool2d_backward(
            ref.zero_stuff(g, step, full.shape), kernel, padding
        )
        want = ref.avgpool2d_backward(g_wide, x.shape, kernel, padding, stride)
        assert back.dtype == dtype and back.shape == x.shape
        assert rel_err(back, want) <= TOLERANCE[dtype]
    assert len(boxes) == 6


def test_planned_avgpool_is_the_training_kernel():
    """One box filter: the plan's op and the layer agree bit for bit."""
    rng = np.random.default_rng(29)
    x = rng.standard_normal((2, 3, 8, 8))
    layer = AvgPool2d(3, padding=1)
    planned = PlannedAvgPool(layer, Workspace())
    np.testing.assert_array_equal(planned(x), layer(x))
    np.testing.assert_array_equal(planned(x), layer(x))  # warm arena


@pytest.mark.parametrize("fused", [False, True], ids=["conv", "fused"])
@pytest.mark.parametrize(
    "kernel,channels",
    [((3, 3), 3), ((1, 7), 3), ((7, 7), 1), ((1, 1), 3)],
    ids=["3x3", "1x7", "7x7-one-channel", "1x1"],
)
def test_planned_conv_is_the_training_kernel(kernel, channels, fused):
    """One stride-1 conv kernel: the training forward and the plan's op
    (no BatchNorm to fold) agree bit for bit."""
    rng = np.random.default_rng(41)
    conv = Conv2d(channels, FILTERS, kernel, rng=rng)
    conv.bias.data[...] = rng.standard_normal(FILTERS)
    layer = FusedConvBiasReLU(conv) if fused else conv
    planned = PlannedConv(conv, None, relu=fused, arena=Workspace())
    x = rng.standard_normal((2, channels, 9, 10)).astype(np.float32)
    for _ in range(2):  # cold, then warm workspace and arena
        got, want = layer(x), planned(x)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)


@pytest.mark.parametrize("factor", [1, 2, 3])
def test_upsample_backward_matches_reference(factor):
    rng = np.random.default_rng(31)
    g = rng.standard_normal((3, 4, 6 * factor, 5 * factor))
    for grad in (g, g.transpose(0, 1, 3, 2)):
        got = F.upsample_nearest_backward(grad, factor)
        want = ref.upsample_nearest_backward(np.ascontiguousarray(grad), factor)
        assert got.shape == want.shape
        assert rel_err(got, want) <= 1e-15
