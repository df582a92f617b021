"""A compact from-scratch neural-network framework on numpy.

The paper trains PyTorch models; this environment has no deep-learning
runtime, so the framework is reimplemented here: explicit forward/backward
modules (no autodiff tape), per-tap GEMM convolutions, batch normalisation,
pooling/upsampling, the CBAM and attention-gate blocks, Inception blocks,
standard losses and Adam/SGD optimisers.  Every layer's backward pass is
verified against numerical gradients in the test suite.

Conventions: activations are ``(N, C, H, W)`` float32 arrays, PyTorch's
default and the dtype of every parameter, gradient, optimiser slot and
buffer.  The kernels follow their inputs' dtype; the trainer and the
inference plan cast the float64 features to float32 once at the network's
boundary.  Modules cache what their backward pass needs during forward and
must be called in forward-then-backward order.
"""

from repro.nn.attention import CBAM, AttentionGate, ChannelAttention, SpatialAttention
from repro.nn.containers import Residual, Sequential
from repro.nn.inception import InceptionA, InceptionB, InceptionC
from repro.nn.inference import InferencePlan
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Concat,
    Conv2d,
    GlobalAvgPool,
    GlobalMaxPool,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
    UpsampleNearest,
)
from repro.nn.losses import (
    HuberLoss,
    KirchhoffLoss,
    MAELoss,
    MSELoss,
    WeightedHotspotLoss,
)
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.nn.serialize import load_state, save_state

__all__ = [
    "Adam",
    "AttentionGate",
    "AvgPool2d",
    "BatchNorm2d",
    "CBAM",
    "ChannelAttention",
    "Concat",
    "Conv2d",
    "GlobalAvgPool",
    "GlobalMaxPool",
    "HuberLoss",
    "Identity",
    "InceptionA",
    "InceptionB",
    "InceptionC",
    "InferencePlan",
    "KirchhoffLoss",
    "LeakyReLU",
    "Linear",
    "MAELoss",
    "MSELoss",
    "MaxPool2d",
    "Module",
    "Parameter",
    "ReLU",
    "Residual",
    "SGD",
    "Sequential",
    "Sigmoid",
    "SpatialAttention",
    "Tanh",
    "UpsampleNearest",
    "WeightedHotspotLoss",
    "clip_grad_norm",
    "load_state",
    "save_state",
]
