"""Unit tests for conv/pool primitives (adjoint identities included)."""

import numpy as np
import pytest

from repro.nn.functional import (
    avgpool2d_backward,
    avgpool2d_forward,
    conv2d_forward,
    maxpool2d_backward,
    maxpool2d_forward,
    to_pair,
    upsample_nearest_backward,
    upsample_nearest_forward,
)


class TestToPair:
    def test_int(self):
        assert to_pair(3) == (3, 3)

    def test_pair(self):
        assert to_pair((1, 7)) == (1, 7)

    def test_triple_rejected(self):
        with pytest.raises(ValueError):
            to_pair((1, 2, 3))


class TestConvOutputShape:
    def test_same_padding(self, rng):
        x = rng.standard_normal((1, 2, 8, 8))
        out, _ = conv2d_forward(x, rng.standard_normal((3, 2, 3, 3)), None, (1, 1))
        assert out.shape == (1, 3, 8, 8)

    def test_nonpositive_rejected(self, rng):
        x = rng.standard_normal((1, 1, 2, 2))
        with pytest.raises(ValueError):
            conv2d_forward(x, rng.standard_normal((1, 1, 5, 5)), None, (0, 0))


class TestMaxPool:
    def test_forward_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out, _ = maxpool2d_forward(x, (2, 2))
        assert np.array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_backward_routes_to_argmax(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out, arg = maxpool2d_forward(x, (2, 2))
        grad = maxpool2d_backward(np.ones_like(out), arg, x.shape, (2, 2))
        assert grad.sum() == 4.0
        assert grad[0, 0, 1, 1] == 1.0
        assert grad[0, 0, 0, 0] == 0.0

    def test_indivisible_rejected(self, rng):
        with pytest.raises(ValueError):
            maxpool2d_forward(rng.standard_normal((1, 1, 5, 4)), (2, 2))


class TestAvgPool:
    def test_uniform_input(self):
        x = np.full((1, 1, 4, 4), 3.0)
        out = avgpool2d_forward(x, (2, 2))
        assert np.allclose(out, 3.0)

    def test_adjoint_identity(self, rng):
        x = rng.standard_normal((2, 2, 6, 6))
        out = avgpool2d_forward(x, (3, 3), (1, 1))
        g = rng.standard_normal(out.shape)
        lhs = float((out * g).sum())
        # forward is linear, so <Ax, g> == <x, A^T g>
        rhs = float((x * avgpool2d_backward(g, (3, 3), (1, 1))).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestUpsample:
    def test_forward_repeats(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = upsample_nearest_forward(x, 2)
        assert out.shape == (1, 1, 4, 4)
        assert np.array_equal(out[0, 0, :2, :2], np.full((2, 2), 1.0))

    def test_adjoint_identity(self, rng):
        x = rng.standard_normal((1, 3, 4, 4))
        out = upsample_nearest_forward(x, 2)
        g = rng.standard_normal(out.shape)
        lhs = float((out * g).sum())
        rhs = float((x * upsample_nearest_backward(g, 2)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_backward_shape_validation(self, rng):
        with pytest.raises(ValueError):
            upsample_nearest_backward(rng.standard_normal((1, 1, 5, 4)), 2)
