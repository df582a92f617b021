"""Inference plan: a frozen, BatchNorm-folded twin of a module tree.

:class:`InferencePlan` rewrites the *leaves* of a tree once and reuses
every composite forward (``FlexUNet``, ``_MultiBranch``, ``CBAM`` ...)
unchanged: in a ``Sequential``, ``Conv2d [+ BatchNorm2d] [+ ReLU]`` becomes
one :class:`PlannedConv` (``Identity`` placeholders keep the source tree's
op paths); a lone ``BatchNorm2d`` is ``x*s + t``; ``MaxPool2d`` is a max of
strided views; ``AvgPool2d`` is separable shifted adds; any other leaf
(``ChannelAttention``, ``Sigmoid`` ...) keeps its own forward on a shallow
copy that shares the source's :class:`Parameter` objects.  Nothing is
cached for a backward.

Folded tensors are a derived cache of the weights: an op remembers the
``Parameter.version`` sum and the BatchNorm buffer objects it folded from,
and a run re-folds (never rebuilds) the ops whose stamp moved.  Buffers hold scratch only — outputs
are fresh arrays — and one lock makes a run single-flight per plan.
See docs/performance.md, "Inference plan".
"""

from __future__ import annotations

import copy
import threading
from types import SimpleNamespace

import numpy as np

from repro.nn.containers import Sequential
from repro.nn.functional import Workspace, box_filter, conv_taps, tap_conv
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    FusedConvBiasReLU,
    Identity,
    MaxPool2d,
    ReLU,
)
from repro.nn.module import Module, _collect
from repro.obs import counter_add
from repro.obs.registry import NN_PLAN_BUILDS, NN_PLAN_REFOLDS

class _PlannedOp(Module):
    """A leaf of the planned tree: forward only, always in eval mode."""

    training = False


class _Folded(_PlannedOp):
    """A planned op whose tensors derive from source parameters."""

    def __init__(self, conv, bn: BatchNorm2d | None) -> None:
        # In a namespace, not as attributes: module discovery (children(),
        # named_modules()) must see a planned op as a leaf.
        self._source = SimpleNamespace(conv=conv, bn=bn)
        self._parameters = [
            p for owner in (conv, bn) if owner is not None for p in owner.parameters()
        ]
        self.fold()

    def stale(self) -> bool:
        bn = self._source.bn
        return self._version != sum(p.version for p in self._parameters) or (
            bn is not None
            and (bn.running_mean is not self._mean or bn.running_var is not self._var)
        )

    def fold(self) -> None:
        bn = self._source.bn
        self._version = sum(p.version for p in self._parameters)
        scale = shift = None
        if bn is not None:
            # Running buffers are rebound on every update, so holding the
            # folded-from arrays makes identity a sufficient stamp.
            self._mean, self._var = bn.running_mean, bn.running_var
            scale = bn.gamma.data / np.sqrt(self._var + bn.eps)
            shift = bn.beta.data - self._mean * scale
        self._fold(self._source.conv, scale, shift)


class PlannedConv(_Folded):
    """Conv [+ BN] [+ ReLU] on folded taps: the training layers'
    :func:`~repro.nn.functional.tap_conv`, with staging and scratch in the
    plan's arena; nothing cached."""

    def __init__(self, conv, bn, relu: bool, arena: Workspace) -> None:
        self.kernel, self.padding = conv.kernel, conv.padding
        self._relu, self._arena = relu, arena
        super().__init__(conv, bn)

    def _fold(self, conv, scale, shift) -> None:
        weight = conv.weight.data
        bias = None if conv.bias is None else conv.bias.data
        if scale is not None:
            weight = weight * scale[:, None, None, None]
            bias = shift if bias is None else bias * scale + shift
        self._taps = conv_taps(weight)
        self._bias = None if bias is None else bias.reshape(1, -1, 1, 1).copy()

    def forward(self, x: np.ndarray) -> np.ndarray:
        conv = (self._taps, self._bias, self.kernel, self.padding, self._relu)
        out, _ = tap_conv(x, *conv, self._arena, self._arena)
        return out


class PlannedNorm(_Folded):
    """Standalone eval-mode BatchNorm: one multiply, one add."""

    def __init__(self, bn: BatchNorm2d) -> None:
        super().__init__(None, bn)

    def _fold(self, conv, scale, shift) -> None:
        self._scale = scale.reshape(1, -1, 1, 1)
        self._shift = shift.reshape(1, -1, 1, 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x * self._scale
        out += self._shift
        return out


class PlannedMaxPool(_PlannedOp):
    """Non-overlapping max pooling as the max of ``kh*kw`` strided views."""

    def __init__(self, pool: MaxPool2d) -> None:
        self.kernel = pool.kernel

    def forward(self, x: np.ndarray) -> np.ndarray:
        kh, kw = self.kernel
        if x.shape[2] % kh or x.shape[3] % kw:
            raise ValueError(
                f"input {x.shape[2]}x{x.shape[3]} not divisible by pool {self.kernel}"
            )
        out = x[:, :, ::kh, ::kw].copy()
        for t in range(1, kh * kw):
            np.maximum(out, x[:, :, t // kw :: kh, t % kw :: kw], out=out)
        return out


class PlannedAvgPool(_PlannedOp):
    """Average pooling (zero padding counted): the training layer's box
    filter, with its scratch in the plan's arena."""

    def __init__(self, pool: AvgPool2d, arena: Workspace) -> None:
        self.kernel, self.padding, self._arena = pool.kernel, pool.padding, arena

    def forward(self, x: np.ndarray) -> np.ndarray:
        return box_filter(x, self.kernel, self.padding, self._arena)


class InferencePlan:
    """Planned twin of *model* computing its eval-mode forward in float32.

    A call casts its input to float32 once (a float64 feature stack is
    the usual input); the output is float32, like the network's weights.
    """

    def __init__(self, model: Module) -> None:
        self._arena = Workspace()
        self._folded: list[_Folded] = []
        self.num_ops = 0
        self._shape: tuple | None = None
        self._lock = threading.Lock()
        #: The planned tree; its leaf paths equal the source model's.
        self.root = self._plan(model)
        counter_add(NN_PLAN_BUILDS)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_lock": None}  # and the arena ships empty

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _lock=threading.Lock())

    @property
    def buffer_bytes(self) -> int:
        with self._lock:
            return self._arena.nbytes

    def __call__(self, x: np.ndarray) -> np.ndarray:
        with self._lock:
            stale = [op for op in self._folded if op.stale()]
            for op in stale:
                op.fold()
            if stale:
                counter_add(NN_PLAN_REFOLDS)
            if x.shape != self._shape:
                # Buffer names carry their shapes; a new input size starts
                # a new set, so the arena never outgrows one size's worth.
                self._arena.clear()
                self._shape = x.shape
            return self.root(x.astype(np.float32, copy=False))

    # -- the graph pass ----------------------------------------------------------

    def _leaf(self, op: Module) -> Module:
        self.num_ops += 1
        if isinstance(op, _Folded):
            self._folded.append(op)
        return op

    def _plan(self, value):
        """The planned twin of a module, or of a list/tuple/dict holding some."""
        if isinstance(value, (list, tuple)):
            return type(value)(self._plan(item) for item in value)
        if isinstance(value, dict):
            return {key: self._plan(item) for key, item in value.items()}
        if not isinstance(value, Module):
            return value
        kind = type(value)
        if kind in (Conv2d, FusedConvBiasReLU):
            relu = kind is FusedConvBiasReLU
            return self._leaf(PlannedConv(value, None, relu, self._arena))
        if kind is BatchNorm2d:
            return self._leaf(PlannedNorm(value))
        if kind is MaxPool2d:
            return self._leaf(PlannedMaxPool(value))
        if kind is AvgPool2d:
            return self._leaf(PlannedAvgPool(value, self._arena))
        twin = copy.copy(value)  # shares Parameters; forward caches diverge
        twin.training = False
        if isinstance(value, Sequential):
            twin.modules = self._plan_chain(value.modules)
        elif value.children():
            for attr, held in value.__dict__.items():
                if _collect(held, Module):
                    twin.__dict__[attr] = self._plan(held)
        elif kind is not Identity:
            self._leaf(twin)
        return twin

    def _plan_chain(self, modules: list[Module]) -> list[Module]:
        planned: list[Module] = []
        i = 0
        while i < len(modules):
            conv = modules[i]
            if type(conv) is not Conv2d:
                planned.append(self._plan(conv))
                i += 1
                continue
            j = i + 1
            bn = None
            if j < len(modules) and type(modules[j]) is BatchNorm2d:
                bn = modules[j]
                j += 1
            relu = j < len(modules) and type(modules[j]) is ReLU
            j += relu
            planned.append(
                self._leaf(PlannedConv(conv, bn, relu, self._arena))
            )
            planned.extend(Identity() for _ in range(j - i - 1))
            i = j
        return planned
