"""The Adam optimiser and global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter


class Adam:
    """Adam with bias correction (Kingma & Ba), the trainer's optimiser."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError("lr must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.parameters = parameters
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
        """Moments and step count as flat arrays (for checkpointing)."""
        state = {f"m.{i}": m.copy() for i, m in enumerate(self._m)}
        state.update({f"v.{i}": v.copy() for i, v in enumerate(self._v)})
        state["t"] = np.array(self._t, dtype=np.int64)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state written by :meth:`state_dict`."""
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
