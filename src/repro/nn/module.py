"""Parameter and Module base classes.

A :class:`Module` owns :class:`Parameter` leaves and/or child modules as
plain attributes; discovery walks ``__dict__`` (lists and dicts of modules
included).  There is no autodiff tape: each module caches its forward
inputs and implements an explicit ``backward`` that consumes the gradient
of the loss w.r.t. its output and returns the gradient w.r.t. its input,
accumulating parameter gradients along the way.
"""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable tensor with an accumulated gradient.

    Precision contract: ``data`` is always the float64 **master** copy —
    it is what optimisers update, what ``state_dict`` saves and what
    checkpoints restore.  ``compute`` is what forward/backward kernels
    read: identical to ``data`` in the default fp64 mode (zero overhead,
    bitwise-neutral), or a cached lower-precision cast after
    :meth:`set_compute_dtype`.  Gradients always accumulate in float64
    regardless of the compute dtype.
    """

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name
        self._compute_dtype = np.float64
        self._compute_cache: np.ndarray | None = None
        #: Bumped by :meth:`sync_compute`; stamps caches derived from ``data``.
        self.version = 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def compute_dtype(self) -> np.dtype:
        return np.dtype(self._compute_dtype)

    @property
    def compute(self) -> np.ndarray:
        """The tensor kernels should read: master data, or its cached cast."""
        if self._compute_dtype == np.float64:
            return self.data
        if self._compute_cache is None:
            self._compute_cache = self.data.astype(self._compute_dtype)
        return self._compute_cache

    def set_compute_dtype(self, dtype) -> None:
        """Switch the compute precision; the master copy stays float64."""
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"unsupported compute dtype: {dtype}")
        self._compute_dtype = dtype.type
        self._compute_cache = None

    def sync_compute(self) -> None:
        """Invalidate everything derived from the master copy after it changed."""
        self._compute_cache = None
        self.version += 1

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses with non-trainable state that must survive checkpointing
    (e.g. BatchNorm running statistics) declare the attribute names in
    ``buffer_names``; buffers are then included in ``state_dict``.
    """

    buffer_names: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.training = True

    # -- forward / backward ---------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> np.ndarray:
        return self.forward(*args, **kwargs)

    # -- parameter / child discovery -------------------------------------------

    def children(self) -> list["Module"]:
        """Direct child modules, in attribute insertion order."""
        found: list[Module] = []
        for value in self.__dict__.values():
            found.extend(_collect(value, Module))
        return found

    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its descendants."""
        params: list[Parameter] = []
        for value in self.__dict__.values():
            params.extend(_collect(value, Parameter))
        for child in self.children():
            params.extend(child.parameters())
        return params

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # -- compute precision -------------------------------------------------------

    def set_compute_dtype(self, dtype) -> "Module":
        """Set the compute precision of every parameter in the tree.

        Master weights stay float64; kernels reading ``Parameter.compute``
        see the requested dtype.  fp64 restores the zero-overhead default.
        """
        for parameter in self.parameters():
            parameter.set_compute_dtype(dtype)
        return self

    def workspaces(self) -> list:
        """Every :class:`~repro.nn.functional.Workspace` in the module tree."""
        from repro.nn.functional import Workspace

        found: list = []
        for value in self.__dict__.values():
            if isinstance(value, Workspace):
                found.append(value)
        for child in self.children():
            found.extend(child.workspaces())
        return found

    # -- train / eval -----------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects BatchNorm/Dropout)."""
        self.training = mode
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- state dict ----------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        """(path, parameter) pairs; paths follow attribute/index structure."""
        named: list[tuple[str, Parameter]] = []
        for attr, value in self.__dict__.items():
            for sub_path, leaf in _collect_named(value, attr):
                if isinstance(leaf, Parameter):
                    named.append((f"{prefix}{sub_path}", leaf))
                elif isinstance(leaf, Module):
                    named.extend(leaf.named_parameters(prefix=f"{prefix}{sub_path}."))
        return named

    def named_buffers(self, prefix: str = "") -> list[tuple[str, "Module", str]]:
        """(path, owner module, attribute) triples for every buffer."""
        named: list[tuple[str, Module, str]] = []
        for attr in self.buffer_names:
            named.append((f"{prefix}{attr}", self, attr))
        for attr, value in self.__dict__.items():
            for sub_path, leaf in _collect_named(value, attr):
                if isinstance(leaf, Module):
                    named.extend(leaf.named_buffers(prefix=f"{prefix}{sub_path}."))
        return named

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter and buffer keyed by its path."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, owner, attr in self.named_buffers():
            state[name] = np.array(getattr(owner, attr), dtype=np.float64)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters and buffers; keys and shapes must match exactly."""
        named = dict(self.named_parameters())
        buffers = {name: (owner, attr) for name, owner, attr in self.named_buffers()}
        expected = set(named) | set(buffers)
        missing = expected - set(state)
        unexpected = set(state) - expected
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)[:5]}, "
                f"unexpected={sorted(unexpected)[:5]}"
            )
        for name, parameter in named.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs "
                    f"{parameter.data.shape}"
                )
            parameter.data = value.copy()
            parameter.grad = np.zeros_like(parameter.data)
            parameter.sync_compute()
        for name, (owner, attr) in buffers.items():
            current = np.asarray(getattr(owner, attr))
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != current.shape:
                raise ValueError(
                    f"shape mismatch for buffer {name}: {value.shape} vs "
                    f"{current.shape}"
                )
            setattr(owner, attr, value.copy())


def _collect(value, kind) -> list:
    """Instances of *kind* directly inside an attribute value."""
    if isinstance(value, kind):
        return [value]
    if isinstance(value, (list, tuple)):
        out = []
        for item in value:
            if isinstance(item, kind):
                out.append(item)
        return out
    if isinstance(value, dict):
        return [item for item in value.values() if isinstance(item, kind)]
    return []


def _collect_named(value, path: str) -> list[tuple[str, object]]:
    """(path, leaf) pairs for Parameters/Modules inside an attribute value."""
    if isinstance(value, (Parameter, Module)):
        return [(path, value)]
    if isinstance(value, (list, tuple)):
        out = []
        for i, item in enumerate(value):
            if isinstance(item, (Parameter, Module)):
                out.append((f"{path}.{i}", item))
        return out
    if isinstance(value, dict):
        out = []
        for key, item in value.items():
            if isinstance(item, (Parameter, Module)):
                out.append((f"{path}.{key}", item))
        return out
    return []
