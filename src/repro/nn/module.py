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
    """A trainable float32 tensor with an accumulated float32 gradient.

    float32 is the network's one dtype: whatever *data* arrives as, it is
    stored as float32.  ``data`` is what kernels read, optimisers update,
    ``state_dict`` saves and ``load_state_dict`` restores.  Whoever changes
    ``data`` calls :meth:`bump_version`, which stamps caches derived from
    it (the inference plan's folded weights).
    """

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)
        self.name = name
        #: Bumped by :meth:`bump_version`; stamps caches derived from ``data``.
        self.version = 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def bump_version(self) -> None:
        """Mark ``data`` changed, so caches derived from it rebuild."""
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

    def named_modules(self, path: str = "model") -> list[tuple[str, "Module"]]:
        """(dotted path, module) for this module and every descendant, pre-order."""
        named: list[tuple[str, Module]] = [(path, self)]
        for attr, value in self.__dict__.items():
            for sub_path, leaf in _collect_named(value, attr):
                if isinstance(leaf, Module):
                    named.extend(leaf.named_modules(f"{path}.{sub_path}"))
        return named

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
            state[name] = np.array(getattr(owner, attr), dtype=np.float32)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters and buffers; keys and shapes must match exactly.

        Every entry must be a real floating array; it loads through one
        cast to float32, so float64 model files (written before the network
        was float32) load as their rounding.
        Any other kind raises ``ValueError`` naming the key.  Everything
        is checked before the first weight is touched.
        """
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
        shapes = {name: p.data.shape for name, p in named.items()}
        shapes.update(
            (name, np.shape(getattr(owner, attr)))
            for name, (owner, attr) in buffers.items()
        )
        values = {}
        for name, shape in shapes.items():
            value = np.asarray(state[name])
            if value.dtype.kind != "f":
                raise ValueError(
                    f"state dict entry {name} has dtype {value.dtype}; "
                    "expected a real floating array"
                )
            if value.shape != shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {shape}"
                )
            values[name] = value.astype(np.float32)
        for name, parameter in named.items():
            parameter.data = values[name]
            parameter.grad = np.zeros_like(parameter.data)
            parameter.bump_version()
        for name, (owner, attr) in buffers.items():
            setattr(owner, attr, values[name])


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
