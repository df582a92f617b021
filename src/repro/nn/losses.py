"""Loss functions.

All losses expose ``forward(prediction, target) -> float`` and
``backward() -> grad`` (gradient of the mean loss w.r.t. the prediction).
:class:`WeightedHotspotLoss` emphasises the >90 %-of-max region that the
contest F1 metric scores; :class:`KirchhoffLoss` is the physics-constraint
regulariser IRPnet adds (discrete current conservation on the predicted
voltage-drop field).
"""

from __future__ import annotations

import numpy as np


class _Loss:
    """Shared cache/plumbing for losses."""

    def __init__(self) -> None:
        self._cache: dict | None = None

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)

    def _check(self, prediction: np.ndarray, target: np.ndarray) -> None:
        if prediction.shape != target.shape:
            raise ValueError(
                f"prediction {prediction.shape} vs target {target.shape}"
            )

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError


class MSELoss(_Loss):
    """Mean squared error."""

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        self._check(prediction, target)
        diff = prediction - target
        self._cache = {"diff": diff}
        return float(np.mean(diff**2))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        diff = self._cache["diff"]
        return 2.0 * diff / diff.size


class MAELoss(_Loss):
    """Mean absolute error (the contest's headline metric as a loss)."""

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        self._check(prediction, target)
        diff = prediction - target
        self._cache = {"diff": diff}
        return float(np.mean(np.abs(diff)))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        diff = self._cache["diff"]
        return np.sign(diff) / diff.size


class HuberLoss(_Loss):
    """Huber loss: quadratic near zero, linear in the tails."""

    def __init__(self, delta: float = 1.0) -> None:
        super().__init__()
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        self._check(prediction, target)
        diff = prediction - target
        abs_diff = np.abs(diff)
        quadratic = abs_diff <= self.delta
        loss = np.where(
            quadratic,
            0.5 * diff**2,
            self.delta * (abs_diff - 0.5 * self.delta),
        )
        self._cache = {"diff": diff, "quadratic": quadratic}
        return float(loss.mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        diff = self._cache["diff"]
        grad = np.where(
            self._cache["quadratic"], diff, self.delta * np.sign(diff)
        )
        return grad / diff.size


class WeightedHotspotLoss(_Loss):
    """MAE with extra weight on the hotspot region of the *target*.

    Pixels whose golden drop exceeds ``threshold`` x max are weighted by
    ``hotspot_weight``; this mirrors the label-distribution-smoothing idea
    of PGAU (hotspots are rare but score-critical).
    """

    def __init__(self, hotspot_weight: float = 4.0, threshold: float = 0.9) -> None:
        super().__init__()
        if hotspot_weight < 1.0:
            raise ValueError("hotspot_weight must be >= 1")
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        self.hotspot_weight = hotspot_weight
        self.threshold = threshold

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        self._check(prediction, target)
        diff = prediction - target
        per_sample_max = target.max(axis=tuple(range(1, target.ndim)), keepdims=True)
        hot = target > self.threshold * per_sample_max
        # np.where over two python scalars yields float64; cast so the
        # weighted gradient keeps the prediction's dtype.
        weights = np.where(hot, self.hotspot_weight, 1.0).astype(
            prediction.dtype, copy=False
        )
        weights = weights / weights.mean()
        self._cache = {"diff": diff, "weights": weights}
        return float(np.mean(weights * np.abs(diff)))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        diff = self._cache["diff"]
        return self._cache["weights"] * np.sign(diff) / diff.size


def _laplacian(field: np.ndarray) -> np.ndarray:
    """5-point discrete Laplacian with replicated borders, per (N,1,H,W)."""
    padded = np.pad(field, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")
    return (
        padded[:, :, :-2, 1:-1]
        + padded[:, :, 2:, 1:-1]
        + padded[:, :, 1:-1, :-2]
        + padded[:, :, 1:-1, 2:]
        - 4.0 * field
    )


def _laplacian_adjoint(grad: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_laplacian` under the edge-replication padding."""
    n, c, h, w = grad.shape
    out = -4.0 * grad
    padded = np.zeros((n, c, h + 2, w + 2), dtype=grad.dtype)
    padded[:, :, :-2, 1:-1] += grad
    padded[:, :, 2:, 1:-1] += grad
    padded[:, :, 1:-1, :-2] += grad
    padded[:, :, 1:-1, 2:] += grad
    core = padded[:, :, 1:-1, 1:-1].copy()
    # fold the replicated borders back onto the edge rows/columns
    core[:, :, 0, :] += padded[:, :, 0, 1:-1]
    core[:, :, -1, :] += padded[:, :, -1, 1:-1]
    core[:, :, :, 0] += padded[:, :, 1:-1, 0]
    core[:, :, :, -1] += padded[:, :, 1:-1, -1]
    core[:, :, 0, 0] += padded[:, :, 0, 0]
    core[:, :, 0, -1] += padded[:, :, 0, -1]
    core[:, :, -1, 0] += padded[:, :, -1, 0]
    core[:, :, -1, -1] += padded[:, :, -1, -1]
    return out + core


class KirchhoffLoss(_Loss):
    """Physics-constrained loss: data term + current-conservation term.

    On a uniform resistive sheet, KCL gives ``Lap(v_drop) ∝ current``.
    The regulariser penalises the residual between the Laplacian of the
    predicted drop map and a least-squares-scaled current map, steering
    predictions toward circuit-consistent fields (the IRPnet idea).
    """

    def __init__(self, current_map: np.ndarray | None = None, weight: float = 0.1):
        super().__init__()
        if weight < 0:
            raise ValueError("weight must be non-negative")
        self.weight = weight
        self.current_map = current_map
        self._data = MAELoss()

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        self._check(prediction, target)
        data_loss = self._data.forward(prediction, target)
        if self.current_map is None or self.weight == 0.0:
            self._cache = {"physics": None}
            return data_loss
        current = np.broadcast_to(
            np.asarray(self.current_map, dtype=prediction.dtype), prediction.shape
        )
        lap = _laplacian(prediction)
        denom = float((current * current).sum())
        alpha = float((lap * current).sum()) / denom if denom > 0 else 0.0
        residual = lap - alpha * current
        self._cache = {"physics": residual}
        return data_loss + self.weight * float(np.mean(residual**2))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad = self._data.backward()
        residual = self._cache["physics"]
        if residual is not None:
            # alpha treated as a constant (stop-gradient), standard for
            # scale-matched physics regularisers
            grad = grad + self.weight * _laplacian_adjoint(
                2.0 * residual / residual.size
            )
        return grad
