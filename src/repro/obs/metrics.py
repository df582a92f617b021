"""Process-wide named counters and gauges.

One registry per process, guarded by a lock so the batch engine's
threads and the solver cascade can bump counters concurrently.  The
registry crosses processes by delta: a pool worker takes
:func:`metrics_snapshot` when it starts an item and ships
:func:`counters_delta` back with the result so the parent can
:func:`merge_metrics` the movement without double counting.

Counter names are dotted, lowest-level owner first::

    amg_setup_cache.hits        amg_setup_cache.misses
    amg_setup_cache.evictions   pcg.iterations
    solver.attempts             solver.fallbacks
    train.overflow_steps        batch.items
"""

from __future__ import annotations

import threading


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


def counter_add(name: str, value: float = 1.0) -> None:
    """Add *value* to the named process-wide counter."""
    _REGISTRY.counter_add(name, value)


def gauge_set(name: str, value: float) -> None:
    """Set the named process-wide gauge."""
    _REGISTRY.gauge_set(name, value)


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
