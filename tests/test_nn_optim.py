"""Unit tests for the Adam optimiser and gradient clipping."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import Adam, clip_grad_norm


def quadratic_step(optimizer, parameter, target):
    """One gradient step on 0.5*||p - target||^2."""
    parameter.zero_grad()
    parameter.grad += parameter.data - target
    optimizer.step()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([10.0, -4.0]))
        optimizer = Adam([p], lr=0.3)
        target = np.array([1.0, 2.0])
        for _ in range(300):
            quadratic_step(optimizer, p, target)
        assert np.allclose(p.data, target, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes the very first Adam step ~= lr * sign(grad)
        p = Parameter(np.array([5.0]))
        optimizer = Adam([p], lr=0.1)
        p.grad += 3.7
        optimizer.step()
        assert p.data[0] == pytest.approx(5.0 - 0.1, abs=1e-6)

    def test_scale_invariance(self):
        """Adam steps are (nearly) invariant to gradient scale."""
        outs = []
        for scale in (1.0, 1000.0):
            p = Parameter(np.array([1.0]))
            optimizer = Adam([p], lr=0.01)
            for _ in range(10):
                p.zero_grad()
                p.grad += scale
                optimizer.step()
            outs.append(float(p.data[0]))
        assert outs[0] == pytest.approx(outs[1], abs=1e-8)

    def test_invalid_hyperparams(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            Adam([p], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([p], lr=0.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        p = Parameter(np.zeros(4))
        p.grad += 10.0
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_leaves_small_gradients(self):
        p = Parameter(np.zeros(4))
        p.grad += 0.01
        clip_grad_norm([p], max_norm=1.0)
        assert np.allclose(p.grad, 0.01)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([Parameter(np.zeros(1))], max_norm=0.0)
