"""Gradient checks for every layer (analytic vs central differences)."""

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Concat,
    Conv2d,
    GlobalAvgPool,
    GlobalMaxPool,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
    UpsampleNearest,
)
from repro.nn.containers import Residual, Sequential
from tests.helpers import check_input_gradient, check_parameter_gradients


@pytest.fixture()
def x(rng):
    return rng.standard_normal((2, 3, 8, 8))


class TestConvLayers:
    def test_conv_input_grad(self, x, rng):
        check_input_gradient(Conv2d(3, 4, 3, rng=rng), x, rng)

    def test_conv_param_grad(self, x, rng):
        check_parameter_gradients(Conv2d(3, 2, 3, rng=rng), x, rng)

    def test_conv_asymmetric_kernel(self, x, rng):
        check_input_gradient(Conv2d(3, 2, (1, 7), rng=rng), x, rng)

    def test_conv_stride2(self, rng):
        """No layer takes a stride: every conv and average pool is stride
        1, and downsampling is MaxPool2d."""
        with pytest.raises(TypeError):
            Conv2d(3, 2, 2, stride=2, padding=0, rng=rng)
        with pytest.raises(TypeError):
            AvgPool2d(2, stride=2)

    def test_conv_no_bias(self, x, rng):
        layer = Conv2d(3, 2, 3, bias=False, rng=rng)
        assert layer.bias is None
        check_input_gradient(layer, x, rng)

    def test_conv_same_padding_even_kernel_rejected(self, rng):
        with pytest.raises(ValueError):
            Conv2d(3, 2, 4, padding="same", rng=rng)

    def test_conv_channel_mismatch_rejected(self, x, rng):
        with pytest.raises(ValueError):
            Conv2d(5, 2, 3, rng=rng)(x)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Conv2d(3, 2, 3, rng=rng).backward(np.zeros((1, 2, 4, 4)))


class TestNormActivations:
    def test_batchnorm_train_grad(self, x, rng):
        check_input_gradient(BatchNorm2d(3), x, rng, tol=1e-4)

    def test_batchnorm_param_grad(self, x, rng):
        check_parameter_gradients(BatchNorm2d(3), x, rng)

    def test_batchnorm_eval_uses_running_stats(self, x, rng):
        bn = BatchNorm2d(3)
        for _ in range(20):
            bn(rng.standard_normal((4, 3, 8, 8)) * 2.0 + 1.0)
        bn.eval()
        out = bn(np.full((1, 3, 8, 8), 1.0))
        assert np.isfinite(out).all()
        # eval output depends on running stats, not the batch itself
        out2 = bn(np.full((2, 3, 8, 8), 1.0))
        assert np.allclose(out2[0], out[0])

    def test_batchnorm_normalizes_batch(self, rng):
        bn = BatchNorm2d(3)
        out = bn(rng.standard_normal((8, 3, 8, 8)) * 5 + 2)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    @pytest.mark.parametrize(
        "layer_factory",
        [ReLU, lambda: LeakyReLU(0.1), Sigmoid, Tanh, Identity],
    )
    def test_activation_grads(self, layer_factory, x, rng):
        check_input_gradient(layer_factory(), x, rng)


class TestPoolingLayers:
    def test_maxpool_grad(self, x, rng):
        check_input_gradient(MaxPool2d(2), x, rng)

    def test_avgpool_grad(self, x, rng):
        check_input_gradient(AvgPool2d(3, padding=1), x, rng)

    def test_global_avg_grad(self, x, rng):
        check_input_gradient(GlobalAvgPool(), x, rng)

    def test_global_max_grad(self, x, rng):
        check_input_gradient(GlobalMaxPool(), x, rng)

    def test_upsample_grad(self, x, rng):
        check_input_gradient(UpsampleNearest(2), x, rng)

    def test_upsample_factor_validation(self):
        with pytest.raises(ValueError):
            UpsampleNearest(0)


class TestLinearAndConcat:
    def test_linear_grads(self, rng):
        x = rng.standard_normal((4, 6))
        check_input_gradient(Linear(6, 3, rng=rng), x, rng)
        check_parameter_gradients(Linear(6, 3, rng=rng), x, rng)

    def test_linear_rejects_4d(self, x, rng):
        with pytest.raises(ValueError):
            Linear(3, 2, rng=rng)(x)

    def test_concat_backward_splits(self, rng):
        concat = Concat()
        a = rng.standard_normal((2, 3, 4, 4))
        b = rng.standard_normal((2, 5, 4, 4))
        out = concat([a, b])
        assert out.shape == (2, 8, 4, 4)
        grads = concat.backward(np.ones_like(out))
        assert grads[0].shape == a.shape
        assert grads[1].shape == b.shape

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            Concat()([])


class TestContainers:
    def test_sequential_grad(self, x, rng):
        model = Sequential(
            Conv2d(3, 4, 3, rng=rng), ReLU(), Conv2d(4, 2, 3, rng=rng)
        )
        check_input_gradient(model, x, rng)

    def test_sequential_indexing(self, rng):
        model = Sequential(ReLU(), Sigmoid())
        assert len(model) == 2
        assert isinstance(model[1], Sigmoid)

    def test_residual_grad(self, x, rng):
        model = Residual(Sequential(Conv2d(3, 3, 3, rng=rng), ReLU()))
        check_input_gradient(model, x, rng)

    def test_residual_shape_mismatch_rejected(self, x, rng):
        with pytest.raises(ValueError):
            Residual(Conv2d(3, 5, 3, rng=rng))(x)
