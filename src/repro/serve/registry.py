"""Warm model registry for the serving daemon.

A daemon that rebuilds the model for every request pays the load cost —
``model_build`` (create + probe forward) + weight copy — on the request
path, exactly the overhead :mod:`repro.core.batch` built its
fingerprint-keyed worker-side pipeline cache to avoid.  The registry is
the parent-process counterpart: every ``<name>.npz`` / ``<name>.npz.json``
checkpoint pair in the model directory is loaded **once** through
:meth:`repro.core.pipeline.IRFusionPipeline.from_model_file` (the same
load path the CLI uses) and kept warm, keyed by name.

Hot reload is stat-based: each lookup compares the stored
``(mtime_ns, size)`` stamp of both files against the filesystem and
reloads only when a retrain actually replaced the checkpoint.  Because
``repro train`` installs both files with
:func:`~repro.nn.serialize.install_file` (a temporary sibling renamed
over the target), a lookup never observes a half-written file — it sees
either the old stamp (old entry stays valid) or the new one (reload).
The entry's weight fingerprint (:func:`~repro.nn.serialize.state_fingerprint`)
rides into every response — a reloaded model changes the fingerprint, so
a client can tell which weights produced a reply.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro.core.pipeline import IRFusionPipeline
from repro.nn.serialize import state_fingerprint
from repro.obs import counter_add
from repro.obs.registry import SERVE_MODEL_LOADS, SERVE_MODEL_RELOADS

_WEIGHTS_SUFFIX = ".npz"
_META_SUFFIX = ".npz.json"


class ModelNotFoundError(LookupError):
    """The requested model name has no checkpoint pair in the model dir."""


class ModelLoadError(RuntimeError):
    """A checkpoint pair exists but could not be loaded into a pipeline."""


@dataclass
class ModelEntry:
    """One warm, ready-to-analyze model.

    ``stamp`` is the ``(mtime_ns, size)`` pair of both checkpoint files
    at load time; a mismatch on lookup triggers a hot reload.
    """

    name: str
    path: str
    pipeline: IRFusionPipeline
    fingerprint: str
    in_channels: int
    stamp: tuple

    def describe(self) -> dict:
        """JSON-ready row for ``GET /models``."""
        config = self.pipeline.config
        plan = self.pipeline.trainer.inference_plan()
        return {
            "name": self.name,
            "loaded": True,
            "fingerprint": self.fingerprint,
            "in_channels": self.in_channels,
            "pixels": config.pixels,
            "base_channels": config.base_channels,
            "depth": config.depth,
            "solver_iterations": config.solver_iterations,
            "plan_ops": plan.num_ops,
            "plan_buffer_bytes": plan.buffer_bytes,
        }


class ModelRegistry:
    """Named, warm, hot-reloadable pipelines backed by a checkpoint dir.

    Every pipeline is loaded through
    :meth:`IRFusionPipeline.from_model_file` with the config its
    checkpoint recorded.
    """

    def __init__(self, model_dir) -> None:
        self._dir = os.fspath(model_dir)
        self._lock = threading.Lock()
        self._entries: dict[str, ModelEntry] = {}

    # -- discovery -------------------------------------------------------------

    def discover(self) -> list[str]:
        """Sorted names of every complete checkpoint pair on disk."""
        try:
            files = set(os.listdir(self._dir))
        except FileNotFoundError:
            raise ModelNotFoundError(
                f"model directory {self._dir!r} does not exist"
            ) from None
        return sorted(
            name[: -len(_WEIGHTS_SUFFIX)]
            for name in files
            if name.endswith(_WEIGHTS_SUFFIX)
            and name[: -len(_WEIGHTS_SUFFIX)] + _META_SUFFIX in files
        )

    def resolve(self, name: str | None) -> str:
        """Map a request's model field to a concrete name.

        ``None`` means "the only model" — legal exactly when the
        directory holds one checkpoint pair, so single-model deployments
        need no client-side configuration.
        """
        if name is not None:
            return str(name)
        names = self.discover()
        if len(names) == 1:
            return names[0]
        if not names:
            raise ModelNotFoundError(
                f"model directory {self._dir!r} contains no "
                f"<name>{_WEIGHTS_SUFFIX} / <name>{_META_SUFFIX} checkpoint "
                "pairs (write one with `repro train --out ...`)"
            )
        raise ModelNotFoundError(
            "request omitted 'model' but the registry serves "
            f"{len(names)} models: {', '.join(names)}"
        )

    # -- lookup / load ---------------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self._dir, name + _WEIGHTS_SUFFIX)

    @staticmethod
    def _stamp(path: str) -> tuple:
        weights = os.stat(path)
        meta = os.stat(path + ".json")
        return (
            weights.st_mtime_ns,
            weights.st_size,
            meta.st_mtime_ns,
            meta.st_size,
        )

    def get(self, name: str | None) -> ModelEntry:
        """The warm entry for *name*, (re)loading from disk if needed."""
        name = self.resolve(name)
        path = self._path(name)
        with self._lock:
            try:
                stamp = self._stamp(path)
            except FileNotFoundError:
                self._entries.pop(name, None)
                available = ", ".join(self.discover()) or "<none>"
                raise ModelNotFoundError(
                    f"no model named {name!r} in {self._dir!r} "
                    f"(available: {available})"
                ) from None
            entry = self._entries.get(name)
            if entry is not None and entry.stamp == stamp:
                return entry
            reloading = entry is not None
            try:
                pipeline = IRFusionPipeline.from_model_file(path)
            except Exception as exc:
                # A broken file on disk invalidates any stale entry too:
                # serving old weights while the operator believes a new
                # checkpoint is live would be silently wrong.
                self._entries.pop(name, None)
                raise ModelLoadError(
                    f"failed to load model {name!r} from {path!r}: {exc}"
                ) from exc
            entry = ModelEntry(
                name=name,
                path=path,
                pipeline=pipeline,
                # _trained_channels is stamped by the load path above; it
                # is the channel count inference will demand of decks.
                in_channels=int(pipeline._trained_channels),
                fingerprint=state_fingerprint(pipeline.model.state_dict()),
                stamp=stamp,
            )
            self._entries[name] = entry
            counter_add(SERVE_MODEL_RELOADS if reloading else SERVE_MODEL_LOADS)
            return entry

    def warm(self) -> list[ModelEntry]:
        """Eagerly load every discovered model (daemon startup).

        Fail-fast by design: a daemon that cannot load its advertised
        models should refuse to start, not 500 on first use.
        """
        return [self.get(name) for name in self.discover()]

    def describe(self) -> list[dict]:
        """JSON-ready rows for ``GET /models`` (disk is the source of truth)."""
        rows = []
        for name in self.discover():
            with self._lock:
                entry = self._entries.get(name)
            if entry is not None:
                rows.append(entry.describe())
            else:
                rows.append({"name": name, "loaded": False})
        return rows
