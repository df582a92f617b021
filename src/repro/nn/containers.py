"""Composite module containers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class Sequential(Module):
    """Chain of modules: forward in order, backward in reverse."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.modules = list(modules)

    def append(self, module: Module) -> "Sequential":
        self.modules.append(module)
        return self

    def __len__(self) -> int:
        return len(self.modules)

    def __getitem__(self, index: int) -> Module:
        return self.modules[index]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self.modules:
            x = module(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for module in reversed(self.modules):
            grad_output = module.backward(grad_output)
        return grad_output


def fuse_conv_relu(module: Module) -> None:
    """Fuse adjacent ``(Conv2d, ReLU)`` pairs inside Sequential chains.

    Walks the module tree and replaces each eligible pair with a
    :class:`~repro.nn.layers.FusedConvBiasReLU` (sharing the conv's
    Parameter objects) followed by an :class:`~repro.nn.layers.Identity`
    placeholder, so state-dict paths, parameter ordering and optimizer
    slots are all unchanged.  Only exact ``Conv2d``/``ReLU`` instances
    are fused (subclasses may override forward/backward).  Numerically
    the fused kernel computes the same conv + bias + ReLU, so outputs and
    gradients are unchanged.
    """
    from repro.nn.layers import Conv2d, FusedConvBiasReLU, Identity, ReLU

    if isinstance(module, Sequential):
        mods = module.modules
        for i in range(len(mods) - 1):
            if type(mods[i]) is Conv2d and type(mods[i + 1]) is ReLU:
                mods[i] = FusedConvBiasReLU(mods[i])
                mods[i + 1] = Identity()
    for child in module.children():
        fuse_conv_relu(child)
