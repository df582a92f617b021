"""Test utilities: numerical gradient checking for nn modules and losses."""

from __future__ import annotations

import numpy as np


def widen(module):
    """Rebind *module*'s parameters, gradients and buffers as float64.

    The network is float32; the finite-difference checks below run in
    float64, so their tolerances hold the kernels, not float32 rounding.
    The kernels follow their inputs' dtype.
    """
    for parameter in module.parameters():
        parameter.data = parameter.data.astype(np.float64)
        parameter.grad = np.zeros_like(parameter.data)
    for _, owner, attr in module.named_buffers():
        setattr(owner, attr, np.asarray(getattr(owner, attr), dtype=np.float64))
    return module


def numerical_input_gradient(
    module, x: np.ndarray, grad_out: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of ``sum(module(x) * grad_out)`` w.r.t. x."""
    x = x.copy()
    num = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + eps
        plus = np.array(module(x))  # snapshot: modules may return views
        x[idx] = orig - eps
        minus = np.array(module(x))
        x[idx] = orig
        num[idx] = float(((plus - minus) * grad_out).sum()) / (2 * eps)
    return num


def check_input_gradient(module, x: np.ndarray, rng, tol: float = 1e-5) -> None:
    """Assert analytic input gradient matches numeric for *module* (float64)."""
    widen(module)
    y = module(x)
    grad_out = rng.standard_normal(y.shape)
    module(x)  # refresh caches after probing shape
    module.zero_grad()
    analytic = module.backward(grad_out)
    numeric = numerical_input_gradient(module, x, grad_out)
    err = np.abs(analytic - numeric).max()
    assert err < tol, f"input gradient error {err:.3e} exceeds {tol}"


def check_parameter_gradients(module, x: np.ndarray, rng, tol: float = 1e-4) -> None:
    """Assert analytic parameter gradients match numeric for *module* (float64)."""
    widen(module)
    y = module(x)
    grad_out = rng.standard_normal(y.shape)
    module.zero_grad()
    module.backward(grad_out)
    for name, parameter in module.named_parameters():
        analytic = parameter.grad.copy()
        flat = parameter.data.reshape(-1)
        # probe a handful of coordinates to keep runtime bounded
        probe = np.linspace(0, flat.size - 1, min(flat.size, 6)).astype(int)
        for k in probe:
            orig = flat[k]
            flat[k] = orig + 1e-6
            plus = float((module(x) * grad_out).sum())
            flat[k] = orig - 1e-6
            minus = float((module(x) * grad_out).sum())
            flat[k] = orig
            numeric = (plus - minus) / 2e-6
            err = abs(analytic.reshape(-1)[k] - numeric)
            assert err < tol, (
                f"param {name}[{k}] gradient error {err:.3e} exceeds {tol}"
            )
    module(x)  # restore caches to a consistent state
