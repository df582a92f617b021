"""Process-wide named counters and gauges.

One registry per process, guarded by a lock so the batch engine's
threads and the solver cascade can bump counters concurrently.  The
registry crosses processes by delta: a pool worker takes
:func:`metrics_snapshot` when it starts an item and ships
:func:`counters_delta` back with the result so the parent can
:func:`merge_metrics` the movement without double counting.

Emit sites pass declared handles (:mod:`repro.obs.registry`), never
strings; the registry below is keyed by the handles' names.
"""

from __future__ import annotations

import threading

from repro.obs.registry import Counter, Gauge


class MetricsRegistry:
    """Thread-safe map of counter / gauge names to values."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}

    def counter_add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge_set(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def snapshot(self) -> dict:
        """Point-in-time copy: ``{"counters": {...}, "gauges": {...}}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
            }

    def counters_delta(self, earlier: dict) -> dict:
        """Counter movement since an *earlier* :meth:`snapshot`.

        Only counters that actually moved appear, so worker payloads
        stay tiny.  Gauges ride along as absolute values (last writer
        wins on merge).
        """
        before = earlier.get("counters", {})
        with self._lock:
            counters = {
                name: value - before.get(name, 0.0)
                for name, value in self._counters.items()
                if value != before.get(name, 0.0)
            }
            gauges = dict(self._gauges)
        return {"counters": counters, "gauges": gauges}

    def merge(self, delta: dict) -> None:
        """Fold a :meth:`counters_delta` payload into this registry."""
        with self._lock:
            for name, value in delta.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in delta.get("gauges", {}).items():
                self._gauges[name] = float(value)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()


#: The process-wide registry every instrumented module writes to.
_REGISTRY = MetricsRegistry()


def counter_add(counter: Counter, value: float = 1.0) -> None:
    """Add *value* to a declared process-wide counter."""
    if not isinstance(counter, Counter):
        raise TypeError(f"counter_add takes a registry Counter, not {counter!r}")
    _REGISTRY.counter_add(counter.name, value)


def gauge_set(gauge: Gauge, value: float) -> None:
    """Set a declared process-wide gauge."""
    if not isinstance(gauge, Gauge):
        raise TypeError(f"gauge_set takes a registry Gauge, not {gauge!r}")
    _REGISTRY.gauge_set(gauge.name, value)


def metrics_snapshot() -> dict:
    """Snapshot of every counter and gauge."""
    return _REGISTRY.snapshot()


def counters_delta(earlier: dict) -> dict:
    """Counter movement since *earlier* (a :func:`metrics_snapshot`)."""
    return _REGISTRY.counters_delta(earlier)


def merge_metrics(delta: dict) -> None:
    """Fold a worker's shipped delta into this process's registry."""
    _REGISTRY.merge(delta)


def reset_metrics() -> None:
    """Zero every counter and gauge (tests and fresh CLI runs)."""
    _REGISTRY.reset()
