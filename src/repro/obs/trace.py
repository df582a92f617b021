"""Nested, labelled spans on the monotonic clock.

A :class:`Span` records one named interval (``parse``, ``amg_setup``,
``pcg``, ``features``, ``inference``, a per-epoch ``train`` …) plus
free-form attributes and child spans, and is opened with a declared
:class:`~repro.obs.registry.SpanName` handle, never a string.  A
:class:`Tracer` owns one span tree and a stack of open spans;
:func:`trace` installs a tracer as the calling thread's *active* trace,
and :func:`span` attaches to whatever is active — or, when nothing is,
opens an implicit trace for its own dynamic extent so deeply nested
instrumentation still produces a correctly nested subtree.  Library code therefore never threads a tracer
through its call signatures: the pipeline opens ``span(ANALYZE)``, the
solver opens ``span(PCG)`` five frames down, and they nest.

Only the monotonic clock is read here (``time.perf_counter``): span
timestamps are intervals, never wall-clock data, so traces stay out of
the reproducibility story.
Pool workers share the parent's monotonic epoch on Linux, so their span
timestamps remain directly comparable with the parent's.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs.registry import RUN, SpanName


def monotonic() -> float:
    """The one timing primitive in the repository (monotonic seconds).

    Every interval measurement outside this package goes through spans
    or this function — never ``time.time()`` and never a private
    ``perf_counter`` call.
    """
    return time.perf_counter()


def _name_of(handle: SpanName) -> str:
    if not isinstance(handle, SpanName):
        raise TypeError(f"spans take a registry SpanName, not {handle!r}")
    return handle.name


class Span:
    """One named interval with attributes and children.

    ``start``/``end`` are monotonic-clock readings; :attr:`duration` is
    the only value consumers should report.  A span whose ``end`` is not
    yet set reports the elapsed time so far.
    """

    __slots__ = ("name", "attrs", "start", "end", "children")

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = str(name)
        self.attrs = dict(attrs or {})
        self.start = monotonic()
        self.end: float | None = None
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        """Span length in seconds (elapsed-so-far while still open)."""
        end = self.end if self.end is not None else monotonic()
        return max(end - self.start, 0.0)

    def close(self) -> None:
        """Stamp the end time (idempotent)."""
        if self.end is None:
            self.end = monotonic()

    # -- queries --------------------------------------------------------------

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, handle: SpanName) -> "Span | None":
        """First span named *handle* in the subtree (preorder), or None."""
        name = _name_of(handle)
        for candidate in self.iter_spans():
            if candidate.name == name:
                return candidate
        return None

    def total(self, handle: SpanName) -> float:
        """Summed duration of every span named *handle* in the subtree."""
        name = _name_of(handle)
        return sum(s.duration for s in self.iter_spans() if s.name == name)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe tree; times become (start, duration) floats."""
        return {
            "name": self.name,
            "start": float(self.start),
            "duration": float(self.duration),
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        span = cls(payload["name"], payload.get("attrs"))
        span.start = float(payload["start"])
        span.end = span.start + float(payload["duration"])
        span.children = [
            cls.from_dict(child) for child in payload.get("children", [])
        ]
        return span


class Tracer:
    """Owns one span tree and the stack of currently open spans.

    A tracer is single-threaded by design: it belongs to the thread that
    installed it via :func:`trace` (thread-local), and pool workers
    build their own and ship the serialized tree back (see
    :mod:`repro.core.pool`).
    """

    def __init__(self, name: SpanName = RUN, attrs: dict | None = None) -> None:
        self.root = Span(_name_of(name), attrs)
        self._stack: list[Span] = [self.root]

    @property
    def active(self) -> Span:
        """The innermost open span (the attach point for children)."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: SpanName, **attrs):
        child = Span(_name_of(name), attrs)
        self.active.children.append(child)
        self._stack.append(child)
        try:
            yield child
        finally:
            child.close()
            if self._stack and self._stack[-1] is child:
                self._stack.pop()

    def attach(self, payload: dict) -> Span:
        """Graft a serialized span tree under the active span.

        Used by the batch engine to re-root a worker's trace inside the
        parent's; timestamps are comparable because Linux shares one
        monotonic epoch across processes.
        """
        span = Span.from_dict(payload)
        self.active.children.append(span)
        return span

    def finish(self) -> Span:
        """Close every open span (root last) and return the root."""
        while self._stack:
            self._stack.pop().close()
        self._stack = [self.root]
        return self.root


#: Per-thread active tracer; pool workers install their own per item.
_ACTIVE = threading.local()


def current_tracer() -> Tracer | None:
    """The tracer installed on this thread, or None."""
    return getattr(_ACTIVE, "tracer", None)


@contextmanager
def trace(name: SpanName = RUN, **attrs):
    """Install a fresh :class:`Tracer` as this thread's active trace.

    Yields the tracer; on exit the tree is finished and the previously
    active tracer (if any) restored.  The caller keeps the tracer object
    and decides what to do with ``tracer.root`` (export, summarise,
    attach to diagnostics).
    """
    tracer = Tracer(name, attrs)
    previous = current_tracer()
    _ACTIVE.tracer = tracer
    try:
        yield tracer
    finally:
        tracer.finish()
        _ACTIVE.tracer = previous


@contextmanager
def span(name: SpanName, **attrs):
    """Open a span under the active trace; yields the :class:`Span`.

    With no active trace, an implicit one is opened for this span's
    dynamic extent, so nested :func:`span` calls still build a correctly
    nested subtree reachable through the yielded span — this is how
    ``AnalysisResult.solver_seconds``-style fields stay meaningful in
    untraced runs.
    """
    tracer = current_tracer()
    if tracer is not None:
        with tracer.span(name, **attrs) as opened:
            yield opened
        return
    with trace(name, **attrs) as implicit:
        yield implicit.root


def span_record(name: SpanName, start: float, end: float, **attrs) -> dict:
    """A completed leaf span in the serialized form :meth:`Tracer.attach` takes.

    For intervals measured outside a ``with span(...)`` block: pool task
    attempts.
    """
    return {
        "name": _name_of(name),
        "start": float(start),
        "duration": float(max(end - start, 0.0)),
        "attrs": attrs,
        "children": [],
    }
