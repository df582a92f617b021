"""Optimisers: SGD with momentum and Adam, plus gradient clipping."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base: holds the parameter list and zeroes gradients."""

    def __init__(self, parameters: list[Parameter]) -> None:
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.parameters = parameters

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict[str, np.ndarray]:
        """Optimiser internal state as flat arrays (for checkpointing)."""
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state written by :meth:`state_dict`."""
        if state:
            raise KeyError(f"unexpected optimizer state keys: {sorted(state)[:5]}")


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in parameters]

    def step(self) -> None:
        for parameter, velocity in zip(self.parameters, self._velocity):
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            velocity *= self.momentum
            velocity += grad
            parameter.data -= self.lr * velocity
            parameter.bump_version()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {f"velocity.{i}": v.copy() for i, v in enumerate(self._velocity)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        expected = {f"velocity.{i}" for i in range(len(self._velocity))}
        if set(state) != expected:
            raise KeyError(
                f"SGD state mismatch: got {sorted(state)[:5]}, "
                f"expected {len(expected)} velocity arrays"
            )
        for i, velocity in enumerate(self._velocity):
            velocity[...] = state[f"velocity.{i}"]


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("lr must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in parameters]
        self._v = [np.zeros_like(p.data) for p in parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            parameter.bump_version()

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {f"m.{i}": m.copy() for i, m in enumerate(self._m)}
        state.update({f"v.{i}": v.copy() for i, v in enumerate(self._v)})
        state["t"] = np.array(self._t, dtype=np.int64)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        expected = (
            {f"m.{i}" for i in range(len(self._m))}
            | {f"v.{i}" for i in range(len(self._v))}
            | {"t"}
        )
        if set(state) != expected:
            raise KeyError(
                f"Adam state mismatch: got {sorted(state)[:5]}, "
                f"expected m/v arrays for {len(self._m)} parameters plus 't'"
            )
        for i in range(len(self._m)):
            self._m[i][...] = state[f"m.{i}"]
            self._v[i][...] = state[f"v.{i}"]
        self._t = int(state["t"])


def clip_grad_norm(parameters: list[Parameter], max_norm: float) -> float:
    """Scale gradients so their global 2-norm is at most *max_norm*.

    Returns the pre-clip norm.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = float(
        np.sqrt(sum(float((p.grad**2).sum()) for p in parameters))
    )
    if total > max_norm and total > 0:
        scale = max_norm / total
        for parameter in parameters:
            parameter.grad *= scale
    return total
