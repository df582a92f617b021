"""Opt-in lock-order/race sanitizer (``REPRO_RACE_CHECK``).

Module tables are read-only and module state lives behind locks; this
runtime mode proves the locking that exists is *used consistently*.
Two dynamic properties no static pass can check:

- **lock-order inversions** — thread A acquires ``obs.metrics`` then
  ``solvers.amg_cache`` while thread B acquires them in the opposite
  order: no test deadlocks (the windows are microseconds) until a
  loaded serving daemon does.  The sanitizer wraps the project's long-lived locks in
  :class:`TrackedLock` and records every *held-while-acquiring* edge;
  an edge in both directions is an inversion.
- **unlocked writes** — shared dicts (metrics registry, AMG setup
  cache, pipeline cache) mutated by a thread that does not hold the
  lock that is supposed to guard them.  The dicts are
  replaced by :class:`GuardedDict`/:class:`GuardedOrderedDict` views
  that verify the guard on every mutating operation.

Modes, via the ``REPRO_RACE_CHECK`` environment variable:

- ``strict`` (or ``1``) — raise :class:`RaceError` at the violation
  site; the chaos-smoke CI job runs in this mode so a regression fails
  the build with the offending stack, not a flaky hang three jobs later.
- ``record`` — collect findings and print a ``racecheck:`` summary to
  stderr at exit; for local archaeology on a known-dirty branch.
- unset/``0`` — everything in this module stays dormant and the
  instrumented code paths are bit-identical to the uninstrumented ones.

:func:`install_from_env` is called from the CLI entry point and from
the pool worker bootstrap, so parent and worker processes are both
covered; instrumentation replaces *instance* attributes, never
classes.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field

ENV_VAR = "REPRO_RACE_CHECK"


class RaceError(RuntimeError):
    """Raised at the violation site in strict mode."""


@dataclass(frozen=True)
class RaceFinding:
    """One observed ordering inversion or unlocked mutation."""

    kind: str  # "lock-inversion" | "unlocked-write"
    detail: str
    thread: str
    stack: str  # abbreviated acquisition/mutation stack

    def summary(self) -> str:
        return f"{self.kind}: {self.detail} [thread {self.thread}]"


def _stack_summary(skip: int = 2, limit: int = 4) -> str:
    frames = traceback.extract_stack()[: -skip][-limit:]
    return " <- ".join(
        f"{os.path.basename(f.filename)}:{f.lineno}:{f.name}"
        for f in reversed(frames)
    )


@dataclass
class _Recorder:
    """Process-global acquisition-order graph and finding sink."""

    strict: bool = False
    findings: list[RaceFinding] = field(default_factory=list)
    #: (held label, acquired label) -> stack where first observed
    edges: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)

    def _held_stack(self) -> list:
        stack = getattr(self._local, "held", None)
        if stack is None:
            stack = []
            self._local.held = stack
        return stack

    def _emit(self, finding: RaceFinding) -> None:
        with self._lock:
            self.findings.append(finding)
        if self.strict:
            raise RaceError(finding.summary() + f"\n  at {finding.stack}")

    # -- lock events -----------------------------------------------------------

    def on_acquire(self, label: str) -> None:
        if getattr(self._local, "busy", False):
            return
        self._local.busy = True
        try:
            held = self._held_stack()
            stack = _stack_summary(skip=3)
            inversion = None
            with self._lock:
                for prior in held:
                    if prior == label:
                        continue
                    edge = (prior, label)
                    reverse = (label, prior)
                    if reverse in self.edges and edge not in self.edges:
                        inversion = (prior, self.edges[reverse])
                    self.edges.setdefault(edge, stack)
            held.append(label)
            if inversion is not None:
                prior, reverse_stack = inversion
                self._emit(
                    RaceFinding(
                        kind="lock-inversion",
                        detail=(
                            f"'{label}' acquired while holding '{prior}', "
                            f"but the opposite order was recorded at "
                            f"[{reverse_stack}]"
                        ),
                        thread=threading.current_thread().name,
                        stack=stack,
                    )
                )
        finally:
            self._local.busy = False

    def on_release(self, label: str) -> None:
        held = self._held_stack()
        if label in held:
            held.remove(label)

    def holds(self, label: str) -> bool:
        return label in self._held_stack()

    # -- dict events -----------------------------------------------------------

    def on_unlocked_write(self, label: str, op: str, key) -> None:
        if getattr(self._local, "busy", False):
            return
        self._local.busy = True
        try:
            self._emit(
                RaceFinding(
                    kind="unlocked-write",
                    detail=(
                        f"{op}({key!r}) on shared dict '{label}' without "
                        f"holding its guard lock"
                    ),
                    thread=threading.current_thread().name,
                    stack=_stack_summary(skip=3),
                )
            )
        finally:
            self._local.busy = False


_RECORDER: _Recorder | None = None
_INSTALL_LOCK = threading.Lock()


def recorder() -> _Recorder | None:
    """The active recorder, or None when the sanitizer is dormant."""
    return _RECORDER


def findings() -> list[RaceFinding]:
    """Findings collected so far (empty when dormant)."""
    return list(_RECORDER.findings) if _RECORDER is not None else []


class TrackedLock:
    """A lock wrapper that reports acquisition order to the recorder.

    Drop-in for the ``threading.Lock``/``RLock`` surface the project
    uses (``acquire``/``release``/context manager/``locked``).
    """

    def __init__(self, inner, label: str, rec: _Recorder) -> None:
        self._inner = inner
        self._label = label
        self._recorder = rec

    @property
    def label(self) -> str:
        return self._label

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._recorder.on_acquire(self._label)
        return acquired

    def release(self) -> None:
        self._recorder.on_release(self._label)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


def _guard_check(rec: _Recorder, guard_label: str, dict_label: str, op, key):
    if not rec.holds(guard_label):
        rec.on_unlocked_write(dict_label, op, key)


class GuardedDict(dict):
    """A dict that requires its guard lock to be held for mutation."""

    def __init__(self, data, guard_label: str, label: str, rec: _Recorder):
        super().__init__(data)
        self._guard_label = guard_label
        self._label = label
        self._recorder = rec

    def _check(self, op: str, key=None) -> None:
        _guard_check(
            self._recorder, self._guard_label, self._label, op, key
        )

    def __setitem__(self, key, value):
        self._check("__setitem__", key)
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._check("__delitem__", key)
        super().__delitem__(key)

    def pop(self, *args, **kwargs):
        self._check("pop", args[0] if args else None)
        return super().pop(*args, **kwargs)

    def popitem(self):
        self._check("popitem")
        return super().popitem()

    def update(self, *args, **kwargs):
        self._check("update")
        return super().update(*args, **kwargs)

    def setdefault(self, key, default=None):
        self._check("setdefault", key)
        return super().setdefault(key, default)

    def clear(self):
        self._check("clear")
        return super().clear()


class GuardedOrderedDict(OrderedDict):
    """OrderedDict flavour (the AMG setup cache relies on move_to_end)."""

    def __init__(self, data, guard_label: str, label: str, rec: _Recorder):
        super().__init__(data)
        self._guard_label = guard_label
        self._label = label
        self._recorder = rec

    def _check(self, op: str, key=None) -> None:
        _guard_check(
            self._recorder, self._guard_label, self._label, op, key
        )

    def __setitem__(self, key, value):
        # OrderedDict.__init__/update bootstrap through __setitem__
        # before our attributes exist; stay silent until installed.
        if hasattr(self, "_recorder"):
            self._check("__setitem__", key)
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._check("__delitem__", key)
        super().__delitem__(key)

    def pop(self, *args, **kwargs):
        self._check("pop", args[0] if args else None)
        return super().pop(*args, **kwargs)

    def popitem(self, last: bool = True):
        self._check("popitem")
        return super().popitem(last)

    def move_to_end(self, key, last: bool = True):
        self._check("move_to_end", key)
        return super().move_to_end(key, last)

    def clear(self):
        self._check("clear")
        return super().clear()


def wrap_lock(owner, attr: str, label: str) -> None:
    """Replace ``owner.<attr>`` with a tracked wrapper (idempotent)."""
    if _RECORDER is None:
        return
    current = getattr(owner, attr)
    if isinstance(current, TrackedLock):
        return
    setattr(owner, attr, TrackedLock(current, label, _RECORDER))


def wrap_lock_factory(owner, attr: str, label: str) -> None:
    """Track every lock ``owner.<attr>()`` makes from now on (idempotent).

    For locks on instances created after :func:`install` (one per
    inference plan); they share *label*, which order tracking keys on.
    """
    factory = getattr(owner, attr)
    if _RECORDER is None or getattr(factory, "label", None) == label:
        return
    rec = _RECORDER

    def tracked() -> TrackedLock:
        return TrackedLock(factory(), label, rec)

    tracked.label = label
    setattr(owner, attr, tracked)


def wrap_dict(owner, attr: str, guard_label: str, label: str) -> None:
    """Replace ``owner.<attr>`` with a guarded view (idempotent)."""
    if _RECORDER is None:
        return
    current = getattr(owner, attr)
    if isinstance(current, (GuardedDict, GuardedOrderedDict)):
        return
    cls = (
        GuardedOrderedDict
        if isinstance(current, OrderedDict)
        else GuardedDict
    )
    setattr(owner, attr, cls(current, guard_label, label, _RECORDER))


def _report_at_exit() -> None:
    if _RECORDER is None or not _RECORDER.findings:
        return
    print(
        f"racecheck: {len(_RECORDER.findings)} finding(s):", file=sys.stderr
    )
    for finding in _RECORDER.findings:
        print(f"racecheck:   {finding.summary()}", file=sys.stderr)
        print(f"racecheck:     at {finding.stack}", file=sys.stderr)


def install(strict: bool = True) -> _Recorder:
    """Activate the sanitizer and instrument the known shared state.

    Targets (instance attributes only — no class is mutated):

    - ``repro.obs.metrics._REGISTRY``: the metrics lock + both tables;
    - ``repro.solvers.cache._GLOBAL_CACHE``: the AMG setup cache lock +
      LRU table;
    - ``repro.solvers.amg._RELAXATION_LOCK``: held while a hierarchy
      builds its per-level relaxations (order tracking only: the memo
      dicts are per hierarchy);
    - ``repro.nn.inference._new_run_lock``: the factory of every inference
      plan's run lock (order tracking only: buffers are per plan);
    - ``repro.core.batch``: the worker-side pipeline cache + its lock.
    """
    global _RECORDER
    with _INSTALL_LOCK:
        if _RECORDER is not None:
            _RECORDER.strict = strict
            return _RECORDER
        _RECORDER = _Recorder(strict=strict)

        from repro.core import batch as _batch
        from repro.nn import inference as _inference
        from repro.obs import metrics as _metrics
        from repro.solvers import amg as _amg
        from repro.solvers import cache as _cache

        registry = _metrics._REGISTRY
        wrap_lock(registry, "_lock", "obs.metrics")
        wrap_dict(registry, "_counters", "obs.metrics", "obs.metrics._counters")
        wrap_dict(registry, "_gauges", "obs.metrics", "obs.metrics._gauges")

        cache = _cache._GLOBAL_CACHE
        wrap_lock(cache, "_lock", "solvers.amg_cache")
        wrap_dict(cache, "_entries", "solvers.amg_cache", "amg_cache._entries")
        wrap_lock(_amg, "_RELAXATION_LOCK", "solvers.amg_relaxation")
        wrap_lock_factory(_inference, "_new_run_lock", "nn.inference_plan")

        wrap_lock(_batch, "_PIPELINE_CACHE_LOCK", "batch.pipeline_cache")
        wrap_dict(
            _batch,
            "_PIPELINE_CACHE",
            "batch.pipeline_cache",
            "batch._PIPELINE_CACHE",
        )

        if not strict:
            atexit.register(_report_at_exit)
        return _RECORDER


def install_from_env() -> _Recorder | None:
    """Activate when ``REPRO_RACE_CHECK`` requests it (CLI/worker hook)."""
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if value in ("", "0", "off", "false"):
        return None
    return install(strict=value not in ("record", "report"))
