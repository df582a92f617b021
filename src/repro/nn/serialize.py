"""Model weights: state dicts to/from ``.npz`` archives.

:func:`save_state` installs its archive atomically, so a process that
reloads a model while a retrain replaces it (the serving registry) sees
either the old file or the new one, never a torn one.
"""

from __future__ import annotations

import hashlib
import io
import os

import numpy as np

from repro.nn.module import Module


def install_file(path: str | os.PathLike[str], payload: bytes) -> None:
    """Write *payload* to *path* atomically.

    The bytes go to the temporary sibling ``<path>.tmp``, which is then
    renamed over *path*: until the rename a reader still gets the
    previous file.  A write that fails removes the temporary and leaves
    *path* as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


def save_state(module: Module, path: str | os.PathLike[str]) -> None:
    """Install a module's state dict at *path* as a compressed npz archive."""
    state = module.state_dict()
    if not state:
        raise ValueError("module has no parameters to save")
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **state)
    install_file(path, buffer.getvalue())


def _name_list(names: set[str], limit: int = 8) -> str:
    """Render a key set for error messages: every name, bounded."""
    ordered = sorted(names)
    shown = ", ".join(ordered[:limit])
    extra = len(ordered) - limit
    return shown + (f", ... (+{extra} more)" if extra > 0 else "")


def load_state(module: Module, path: str | os.PathLike[str]) -> None:
    """Load an archive written by :func:`save_state` into *module*.

    An archive whose keys do not match the module raises a
    :class:`ValueError` naming the missing and unexpected keys before any
    weight is touched, instead of a raw ``load_state_dict`` KeyError
    three layers down.
    """
    path = os.fspath(path)
    with np.load(path) as archive:
        state = {key: archive[key] for key in archive.files}
    expected = {name for name, _ in module.named_parameters()}
    expected.update(name for name, _, _ in module.named_buffers())
    missing = expected - set(state)
    unexpected = set(state) - expected
    if missing or unexpected:
        parts = [f"{path!r} does not match the target module"]
        if missing:
            parts.append(
                f"missing {len(missing)} key(s): {_name_list(missing)}"
            )
        if unexpected:
            parts.append(
                f"unexpected {len(unexpected)} key(s): "
                f"{_name_list(unexpected)}"
            )
        parts.append(
            "the archive was saved from a different architecture or "
            "configuration than the module being restored"
        )
        raise ValueError("; ".join(parts))
    module.load_state_dict(state)


def state_fingerprint(state: dict[str, np.ndarray]) -> str:
    """Content hash of a state dict covering every weight byte.

    Keys, dtypes, shapes and raw array bytes all feed the digest, so
    two states collide only if they are byte-identical — the property
    the worker-side model cache in :mod:`repro.core.batch` relies on to
    never serve a stale model after a retrain.
    """
    digest = hashlib.blake2b(digest_size=16)
    for key in sorted(state):
        value = np.asarray(state[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(value.dtype).encode("ascii"))
        digest.update(repr(value.shape).encode("ascii"))
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()
