"""Declared contract for every metric and span name in the project.

The observability layer is stringly typed at the emit sites —
``counter_add("amg_setup_cache.hits")`` — which is ergonomic but means a
typo'd name produces a silently-dead dashboard series rather than an
error.  This module is the single source of truth the tooling checks
those strings against:

- the ``metrics-contract`` analysis pass resolves every
  ``counter_add``/``gauge_set``/``span(...)`` string literal in ``src/``
  against this registry at lint time;
- ``python -m repro.obs --validate`` cross-checks the names that appear
  in an exported trace file against the same registry at runtime, so a
  name that only materialises dynamically (f-strings, dispatch tables)
  is still caught in CI.

Adding a new counter/gauge/span is a two-line change: emit it, and
declare it here.  Dynamic families (names built with a runtime suffix,
e.g. per-reason serial-fallback counters) are declared with a trailing
``.*`` wildcard that matches exactly one-or-more extra segments.
"""

from __future__ import annotations

#: Every exact counter name ``counter_add`` may be called with.
COUNTERS: frozenset[str] = frozenset(
    {
        "amg.relaxation_builds",
        "amg_setup_cache.evictions",
        "amg_setup_cache.hits",
        "amg_setup_cache.misses",
        "batch.items",
        "batch.pipeline_cache_hits",
        "batch.pipeline_cache_misses",
        "batch.serial_fallbacks",
        "incremental.aborted",
        "incremental.base_solves",
        "incremental.column_cache_hits",
        "incremental.column_solves",
        "incremental.deltas",
        "incremental.direct_solves",
        "incremental.factorizations",
        "incremental.fallbacks",
        "incremental.full_solves",
        "incremental.polish_iterations",
        "incremental.rebuilds",
        "incremental.setup_builds",
        "incremental.setup_cache_hits",
        "incremental.smw_solves",
        "incremental.solves",
        "incremental.warm_solves",
        "nn.plan_builds",
        "nn.plan_refolds",
        "pad_placement.candidates",
        "pcg.iterations",
        "pool.workers_respawned",
        "serve.completed",
        "serve.failed",
        "serve.model_loads",
        "serve.model_reloads",
        "serve.rejected",
        "serve.requests",
        "shm.attaches",
        "shm.bytes_adopted",
        "shm.bytes_shared",
        "shm.inline_fallbacks",
        "shm.segments_leaked",
        "shm.segments_released",
        "shm.segments_swept",
        "solver.attempts",
        "solver.deadline_skips",
        "solver.fallbacks",
        "task.quarantined",
        "task.retries",
        "task.timeouts",
        "train.overflow_steps",
        "transport.pickled_bytes",
    }
)

#: Counter families with a runtime-built suffix.  ``name.*`` matches
#: ``name.anything`` (one or more extra dotted segments), never bare
#: ``name`` — declare the bare name separately if it is also emitted.
COUNTER_FAMILIES: frozenset[str] = frozenset(
    {
        # per-reason breakdown emitted next to batch.serial_fallbacks:
        # nested_in_worker, pool_unusable
        "batch.serial_fallbacks.*",
    }
)

#: Every exact gauge name ``gauge_set`` may be called with.
GAUGES: frozenset[str] = frozenset(
    {
        "serve.active_jobs",
        "serve.queue_depth",
        "shm.segments_active",
    }
)

GAUGE_FAMILIES: frozenset[str] = frozenset()

#: Every span name ``span(...)``/``trace(...)`` may open.
SPANS: frozenset[str] = frozenset(
    {
        "amg_setup",
        "analysis",  # python -m repro.analysis total wall time
        "analyze",
        "batch",
        "features",
        "fit",
        "generate",
        "grid_build",
        "imports",
        "incremental.factorize",
        "incremental.preview_batch",  # one per preview_many: candidates=, polished=
        "incremental.rebuild",
        "incremental.solve",
        "inference",
        "item",
        "model_build",
        "model_load",
        "pad_placement",
        "parse",
        "pcg",
        "plan_build",  # InferencePlan construction (under model_load)
        "run",  # Tracer default root
        "serve.request",  # per-request root span in the serving daemon
        "shm_attach",
        "shm_externalize",
        "simulate",
        "solve",
        "solve_attempt",
        "stamp",
        "task_attempt",
        "train",
        "train_backward",  # per batch under train: zero_grad + loss/model backward
        "train_forward",  # per batch under train: model + loss forward
        "train_step",  # per batch under train: unscale/reduce, clip, optimizer
        "validate",
    }
)

SPAN_FAMILIES: frozenset[str] = frozenset()

_KINDS = {
    "counter": (COUNTERS, COUNTER_FAMILIES),
    "gauge": (GAUGES, GAUGE_FAMILIES),
    "span": (SPANS, SPAN_FAMILIES),
}


def _family_match(name: str, families: frozenset[str]) -> bool:
    for pattern in families:
        prefix = pattern[:-1]  # "batch.serial_fallbacks." from "....*"
        if name.startswith(prefix) and len(name) > len(prefix):
            return True
    return False


def is_registered(kind: str, name: str) -> bool:
    """True when *name* is a declared ``counter``/``gauge``/``span``."""
    try:
        exact, families = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown registry kind: {kind!r}") from None
    return name in exact or _family_match(name, families)


def registered_names(kind: str) -> frozenset[str]:
    """The exact (non-wildcard) names declared for *kind*."""
    try:
        exact, _ = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown registry kind: {kind!r}") from None
    return exact


def suggest(kind: str, name: str) -> str | None:
    """The closest registered name, for "did you mean" messages."""
    import difflib

    exact, _ = _KINDS.get(kind, (frozenset(), frozenset()))
    matches = difflib.get_close_matches(name, sorted(exact), n=1, cutoff=0.6)
    return matches[0] if matches else None


def unregistered_names(
    kind: str, names: "set[str] | frozenset[str]"
) -> list[str]:
    """The subset of *names* missing from the registry, sorted."""
    return sorted(name for name in names if not is_registered(kind, name))
