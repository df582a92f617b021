"""The Adam optimiser and global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter


#: Adam's moment decay rates and denominator guard (Kingma & Ba).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class Adam:
    """Adam with bias correction (Kingma & Ba), the trainer's optimiser."""

    def __init__(self, parameters: list[Parameter], lr: float) -> None:
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.parameters = parameters
        self.lr = lr
        self._m = [np.zeros_like(p.data) for p in parameters]
        self._v = [np.zeros_like(p.data) for p in parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - _BETA1**self._t
        bias2 = 1.0 - _BETA2**self._t
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            grad = parameter.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * grad
            v *= _BETA2
            v += (1.0 - _BETA2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data -= self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
            parameter.bump_version()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Moments and step count as flat arrays (NaN recovery's snapshot)."""
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
