"""Tests for the mixed-precision compute path (fp64 master weights,
fp32 kernels) and its agreement with the fp64 reference kernels of
``tests/reference_conv.py`` (``src`` has one kernel form per op, so a
layer-vs-layer comparison would only check that form against itself)."""

import numpy as np
import pytest

from repro.nn.layers import BatchNorm2d, Conv2d
from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.models import IRFusionNet
from tests import reference_conv


def tiny_model(seed=0):
    return IRFusionNet(in_channels=3, base_channels=4, depth=2, seed=seed)


def fp32_twin(model_fp64, seed=0):
    twin = tiny_model(seed=seed)
    twin.load_state_dict(model_fp64.state_dict())
    twin.set_compute_dtype(np.float32)
    return twin


class TestParameterPrecision:
    def test_master_data_stays_float64(self):
        p = Parameter(np.ones((2, 3), dtype=np.float32))
        assert p.data.dtype == np.float64
        p.set_compute_dtype(np.float32)
        assert p.data.dtype == np.float64
        assert p.compute.dtype == np.float32

    def test_fp64_compute_is_the_master_array(self):
        p = Parameter(np.ones(4))
        assert p.compute is p.data  # zero-overhead default

    def test_compute_cache_reused_until_synced(self):
        p = Parameter(np.arange(4.0))
        p.set_compute_dtype(np.float32)
        first = p.compute
        assert p.compute is first
        p.data[...] = 7.0
        assert p.compute is first  # stale until told otherwise
        p.sync_compute()
        np.testing.assert_array_equal(p.compute, np.full(4, 7.0, np.float32))

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError, match="compute dtype"):
            Parameter(np.ones(2)).set_compute_dtype(np.int32)

    def test_adam_step_refreshes_compute(self):
        p = Parameter(np.ones(3))
        p.set_compute_dtype(np.float32)
        _ = p.compute
        p.grad[...] = 1.0
        Adam([p], lr=0.1).step()
        np.testing.assert_allclose(p.compute, p.data.astype(np.float32))

    def test_load_state_dict_refreshes_compute(self):
        model = tiny_model()
        model.set_compute_dtype(np.float32)
        x = np.random.default_rng(0).standard_normal((1, 3, 8, 8)).astype(
            np.float32
        )
        model(x)  # populate the compute caches
        state = {k: v + 1.0 for k, v in model.state_dict().items()}
        model.load_state_dict(state)
        for _, parameter in model.named_parameters():
            np.testing.assert_array_equal(
                parameter.compute, parameter.data.astype(np.float32)
            )


class TestModelPrecision:
    def test_forward_dtype_follows_input(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        x64 = rng.standard_normal((2, 3, 16, 16))
        assert model(x64).dtype == np.float64
        model.set_compute_dtype(np.float32)
        assert model(x64.astype(np.float32)).dtype == np.float32

    def test_grads_accumulate_in_float64(self):
        model = tiny_model()
        model.set_compute_dtype(np.float32)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        out = model(x)
        model.backward(np.ones_like(out))
        for _, parameter in model.named_parameters():
            assert parameter.grad.dtype == np.float64

    def test_fp32_forward_close_to_fp64(self):
        model = tiny_model()
        twin = fp32_twin(model)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 16, 16))
        np.testing.assert_allclose(
            twin(x.astype(np.float32)), model(x), rtol=1e-4, atol=1e-5
        )

    def test_fp32_gradients_close_to_fp64(self):
        model = tiny_model()
        twin = fp32_twin(model)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 16, 16))
        out64 = model(x)
        model.backward(np.ones_like(out64))
        out32 = twin(x.astype(np.float32))
        twin.backward(np.ones_like(out32))
        ref = dict(model.named_parameters())
        for name, parameter in twin.named_parameters():
            scale = max(np.abs(ref[name].grad).max(), 1.0)
            np.testing.assert_allclose(
                parameter.grad, ref[name].grad, atol=2e-4 * scale, err_msg=name
            )


class TestConvPrecision:
    @pytest.mark.parametrize("kernel,padding", [(3, "same"), (1, 0), ((1, 7), "same")])
    def test_backward_fast_path_matches_fp64(self, kernel, padding):
        rng = np.random.default_rng(5)
        conv32 = Conv2d(4, 6, kernel, padding=padding, rng=np.random.default_rng(9))
        conv32.set_compute_dtype(np.float32)
        x = rng.standard_normal((2, 4, 12, 12))
        out32 = conv32(x.astype(np.float32))
        g = rng.standard_normal(out32.shape)
        # fp64 side: the reference einsum / col2im-scatter kernels on the
        # master weights; the layer computes backward-data as a
        # correlation GEMM — same operator, different order.
        grad64, grad_w64, _ = reference_conv.conv2d_backward(
            g, x, conv32.weight.data, conv32.stride, conv32.padding
        )
        grad32 = conv32.backward(g.astype(np.float32))
        np.testing.assert_allclose(grad32, grad64, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(
            conv32.weight.grad, grad_w64, rtol=1e-4, atol=1e-4
        )


class TestBatchNormPrecision:
    def _layer(self):
        bn32 = BatchNorm2d(5)
        bn32.gamma.data[...] = np.linspace(0.5, 1.5, 5)
        bn32.beta.data[...] = np.linspace(-0.2, 0.2, 5)
        bn32.set_compute_dtype(np.float32)
        return bn32

    def _reference(self, bn, x, g, mean, var):
        """fp64 side: divide-form forward, legacy-order backward."""
        out, x_hat, std = reference_conv.batchnorm_forward(
            x, bn.gamma.data, bn.beta.data, mean, var, bn.eps
        )
        return out, reference_conv.batchnorm_backward(
            g, x_hat, std, bn.gamma.data, bn.training
        )

    def test_train_mode_matches_fp64(self):
        bn32 = self._layer()
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 5, 8, 8)) * 2.0 + 1.0
        g = rng.standard_normal(x.shape)
        out64, (grad64, gamma64, beta64) = self._reference(
            bn32, x, g, x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        )
        np.testing.assert_allclose(
            bn32(x.astype(np.float32)), out64, rtol=1e-4, atol=1e-5
        )
        # The layer folds the input gradient into one per-channel affine
        # form; it must still agree with the fp64 reference order.
        np.testing.assert_allclose(
            bn32.backward(g.astype(np.float32)), grad64, rtol=1e-3, atol=1e-5
        )
        np.testing.assert_allclose(bn32.gamma.grad, gamma64, rtol=1e-4)
        np.testing.assert_allclose(bn32.beta.grad, beta64, rtol=1e-4)

    def test_eval_mode_matches_fp64(self):
        bn32 = self._layer()
        rng = np.random.default_rng(7)
        # Train once so the running buffers are non-trivial, then compare
        # the eval-mode scale-and-shift in both precisions.
        bn32(rng.standard_normal((3, 5, 8, 8)).astype(np.float32))
        bn32.eval()
        x = rng.standard_normal((2, 5, 8, 8))
        g = rng.standard_normal(x.shape)
        out64, (grad64, _, _) = self._reference(
            bn32, x, g, bn32.running_mean, bn32.running_var
        )
        np.testing.assert_allclose(
            bn32(x.astype(np.float32)), out64, rtol=1e-4, atol=1e-5
        )
        np.testing.assert_allclose(
            bn32.backward(g.astype(np.float32)), grad64, rtol=1e-4, atol=1e-5
        )
