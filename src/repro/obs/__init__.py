"""Unified observability layer: tracing, metrics and run telemetry.

This package is the *only* module in the repository that touches timing
primitives directly (a convention; docs/observability.md states it).  Every
other module expresses timing through :func:`span` / :func:`trace` and
reads durations back from the resulting :class:`Span` tree, so one run
produces one coherent account of where its time went instead of eight
modules each keeping private stopwatches.

Three pieces:

- :mod:`repro.obs.trace` — nested, labelled spans on the monotonic
  clock.  ``span(PCG)`` attaches to whatever trace is active on the
  calling thread, or times a detached subtree when none is (so
  ``SolveResult.setup_seconds``-style fields work with zero
  configuration).
- :mod:`repro.obs.metrics` — process-wide named counters and gauges
  (cache hits, fallback attempts, PCG iterations, plan re-folds).
  Process-aware: :mod:`repro.core.pool` workers snapshot the registry
  at item start and ship the delta back with each result.
- :mod:`repro.obs.export` — structured JSONL trace files plus the
  human-readable span summary tree; ``python -m repro.obs --validate``
  checks an emitted file against the schema.
- :mod:`repro.obs.deadline` — thread-local cooperative deadlines on the
  same monotonic clock: the worker pool scopes each task attempt, the
  solver cascade reads the remaining budget to short-circuit stages it
  cannot finish in time.
- :mod:`repro.obs.registry` — one declared handle per counter, gauge
  and span name; the emit functions accept nothing else, so a name is
  written exactly once.
"""

from repro.obs.deadline import (
    deadline_active,
    deadline_remaining,
    deadline_scope,
)
from repro.obs.export import (
    summary_lines,
    validate_trace_file,
    validate_trace_lines,
    write_trace,
)
from repro.obs.metrics import (
    counter_add,
    counters_delta,
    gauge_set,
    merge_metrics,
    metrics_snapshot,
    reset_metrics,
)
from repro.obs.trace import (
    Span,
    Tracer,
    current_tracer,
    monotonic,
    span,
    span_record,
    trace,
)

__all__ = [
    "Span",
    "Tracer",
    "counter_add",
    "counters_delta",
    "current_tracer",
    "deadline_active",
    "deadline_remaining",
    "deadline_scope",
    "gauge_set",
    "merge_metrics",
    "metrics_snapshot",
    "monotonic",
    "reset_metrics",
    "span",
    "span_record",
    "summary_lines",
    "trace",
    "validate_trace_file",
    "validate_trace_lines",
    "write_trace",
]
