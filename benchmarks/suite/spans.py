"""Benchmark-owned spans: the per-layer timing source of the traced run.

The program's own ``repro.obs`` spans stay untouched (and unread): this
PR measures every layer *from outside*, by wrapping the calls the suite
makes into each layer's public functions.  A span is ``(id, name, start,
end, parent, op)``; spans of one op share its ``op`` id.  Everything is
held in memory and written as JSONL once, after the timed region.

A layer's *self time* is its span's duration minus the part its child
spans cover, so nested spans never double count and the root span's self
time is the glue the suite could not attribute to a layer.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span store; thread-safe, one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Time the body as span *name*; nests under the thread's open span.

        *op* names the operation a root span belongs to; children inherit
        their parent's.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": None,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else op,
            "start": 0.0,
            "end": 0.0,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, parent: dict) -> None:
        """Record an interval another process reported (no clock read here)."""
        record = {
            "id": None,
            "name": name,
            "parent": parent["id"],
            "op": parent["op"],
            "start": start,
            "end": end,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)

    # -- analysis --------------------------------------------------------------

    def _child_seconds(self) -> dict[int, float]:
        """span id -> summed duration of its direct children."""
        covered: dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        return covered

    def self_seconds_per_op(self) -> dict[int, dict[str, float]]:
        """``{op: {span name: summed self time}}`` over all closed spans."""
        covered = self._child_seconds()
        per_op: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for record in self.spans:
            if record["op"] is None:
                continue
            duration = record["end"] - record["start"]
            own = max(0.0, duration - covered[record["id"]])
            per_op[record["op"]][record["name"]] += own
        return per_op

    def coverage_per_op(self) -> dict[int, float]:
        """Share of each op's root span that its direct children cover."""
        covered = self._child_seconds()
        out: dict[int, float] = {}
        for record in self.spans:
            if record["parent"] is None and record["op"] is not None:
                duration = record["end"] - record["start"]
                if duration > 0.0:
                    out[record["op"]] = min(1.0, covered[record["id"]] / duration)
        return out

    def write_jsonl(self, path, header: dict) -> None:
        """One header line, then one line per span in creation order."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "header", **header}) + "\n")
            for record in self.spans:
                handle.write(json.dumps({"type": "span", **record}) + "\n")
