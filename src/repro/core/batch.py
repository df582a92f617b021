"""Parallel batch-analysis engine.

Fans independent per-design work (end-to-end analysis, training-set
feature extraction) across the persistent spawn-safe worker pool in
:mod:`repro.core.pool`:

- **spawn-safe**: the pool parallelizes correctly from non-main threads;
  concurrent callers share it one batch at a time;
- **supervised in the caller**: the calling thread runs its batch's
  supervision loop, so crashed workers are respawned and their items
  retried with backoff, hung items are killed at ``task_timeout``, and
  repeat offenders are quarantined with a structured record (see
  :mod:`repro.core.pool`);
- **deadline-bound**: a whole-batch ``deadline`` quarantines every item
  unfinished when it expires, on either engine;
- **seed-deterministic**: results are keyed back to their submission
  index, so the output list is identical to a serial run regardless of
  completion order;
- **slim results**: a per-deck task returns the two maps, the stage
  timings and the :class:`~repro.diagnostics.RunDiagnostics` — not the
  grid, reduced system and feature stack, which the caller can rebuild
  from the deck it submitted — so both engines return one result shape
  and the pool pipes tens of kilobytes per deck, not megabytes;
- **gracefully degrading**: per-item exceptions are captured as data,
  and when the pool cannot run a job at all (unpicklable closure, no
  spawn support) the batch runs serially in the parent — never an
  exception.

There are exactly two engines: the in-process serial loop (``jobs == 1``,
or a nested call inside a pool worker) and the supervised pool.  Every
fallback to serial execution increments the ``batch.serial_fallbacks``
counter and is surfaced as a note on :class:`BatchReport`, so lost
parallelism is visible to operators instead of silent.  ``REPRO_CHAOS``
(a :meth:`repro.testing.faults.WorkerFaultPlan.from_spec` string such as
``kill@1,flaky@3``) injects worker faults into every pool batch — the
hook the CI chaos-smoke job uses.
"""

from __future__ import annotations

import os
import threading
import traceback as _traceback
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.pool import (
    PoolUnusableError,
    QuarantineRecord,
    TaskOutcome,
    WORKER_ENV,
    get_pool,
)
from repro.obs import counter_add, deadline_scope, monotonic, span
from repro.obs.registry import (
    BATCH,
    BATCH_ITEMS,
    BATCH_PIPELINE_CACHE_HITS,
    BATCH_PIPELINE_CACHE_MISSES,
    BATCH_SERIAL_FALLBACKS,
    BATCH_SERIAL_FALLBACKS_NESTED_IN_WORKER,
    BATCH_SERIAL_FALLBACKS_POOL_UNUSABLE,
    TASK_QUARANTINED,
    Counter,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import AnalysisResult, IRFusionPipeline


def _serial_fallback(reason: Counter, count: int = 1) -> None:
    """Record that *count* batches lost parallelism (obs + nothing else)."""
    counter_add(BATCH_SERIAL_FALLBACKS, count)
    counter_add(reason, count)


def _apply_serial(fn: Callable, item, index: int) -> TaskOutcome:
    try:
        return TaskOutcome(index=index, result=fn(item))
    except Exception as exc:  # noqa: BLE001 - captured per item by design
        return TaskOutcome(
            index=index,
            error=f"{type(exc).__name__}: {exc}",
            traceback=_traceback.format_exc(),
        )


def _deadline_outcome(
    index: int, overdue: float, when: str, elapsed: float
) -> TaskOutcome:
    """The pool's quarantine record for an item the deadline cut off."""
    counter_add(TASK_QUARANTINED)
    error = f"DeadlineExceededError: batch deadline expired {overdue:.3g}s ago {when}"
    record = QuarantineRecord(
        index=index,
        reason="deadline",
        error=error,
        traceback=None,
        attempts=1,
        elapsed_seconds=elapsed,
    )
    return TaskOutcome(index=index, error=error, quarantine=record)


def _serial_map(
    fn: Callable, items: Sequence, deadline: float | None = None
) -> list[TaskOutcome]:
    """Run each item once, in order, in this process.

    A *deadline* keeps the pool's contract: an item not yet started when
    it expires is quarantined, and a started item runs under
    ``deadline_scope`` of the time left.  This engine cannot kill a
    running item, so one that returns after the deadline is quarantined
    then, as the pool would have done when the deadline expired.
    """
    if deadline is None:
        return [_apply_serial(fn, item, k) for k, item in enumerate(items)]
    deadline_at = monotonic() + deadline
    outcomes = []
    for k, item in enumerate(items):
        started = monotonic()
        if started > deadline_at:
            outcomes.append(
                _deadline_outcome(
                    k, started - deadline_at, f"before item {k} started", 0.0
                )
            )
            continue
        with deadline_scope(deadline_at - started):
            outcome = _apply_serial(fn, item, k)
        now = monotonic()
        if now > deadline_at:
            outcome = _deadline_outcome(
                k, now - deadline_at, f"while item {k} was running", now - started
            )
        outcomes.append(outcome)
    return outcomes


def check_controls(
    task_timeout: float | None, retries: int, deadline: float | None
) -> None:
    """Refuse a budget that is not a number > 0, or a negative retry count."""
    for name, value in (("task_timeout", task_timeout), ("deadline", deadline)):
        # ``not value > 0`` also refuses NaN.
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be a number > 0, got {value}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")


def _chaos_plan():
    """The ``REPRO_CHAOS`` worker-fault plan, or ``None``."""
    spec = os.environ.get("REPRO_CHAOS")
    if not spec:
        return None
    from repro.testing.faults import WorkerFaultPlan  # lazy: avoids a cycle

    return WorkerFaultPlan.from_spec(spec)


def parallel_map_ex(
    fn: Callable,
    items: Sequence,
    jobs: int,
    *,
    task_timeout: float | None = None,
    retries: int = 2,
    deadline: float | None = None,
    fault_plan=None,
) -> tuple[list[TaskOutcome], bool]:
    """Order-preserving supervised map of *fn* over *items*.

    Returns ``(outcomes, degraded)`` where ``outcomes[k]`` is the
    :class:`~repro.core.pool.TaskOutcome` for item *k* — a result, a
    captured error (with traceback and attempt count), or a
    :class:`~repro.core.pool.QuarantineRecord` — and *degraded* is True
    when any part of the batch fell back to serial execution.

    *deadline* is honoured on both paths.  *task_timeout* and *retries*
    are pool-only (see :meth:`~repro.core.pool.WorkerPool.map`): the
    serial path (``jobs == 1``, a call nested inside a pool worker —
    workers are daemonic and cannot have children — or a job the pool
    cannot ship) runs each item once with no per-item timeout, because
    it cannot kill an item that overruns one.

    On the pool path, items and results cross the worker pipes as
    pickles.  Results are bitwise-identical to the serial path.

    Worker counter movement is merged into this process's metrics, and
    when the calling thread has an active :mod:`repro.obs` trace the
    workers' span trees are grafted into it, so a traced batch reads
    like one run.
    """
    items = list(items)
    jobs = max(1, min(int(jobs), len(items))) if items else 1

    if jobs == 1:
        return _serial_map(fn, items, deadline), False
    if os.environ.get(WORKER_ENV):
        # Nested call inside a pool worker: daemonic processes cannot
        # have children, so run serially (correct, just not parallel).
        _serial_fallback(BATCH_SERIAL_FALLBACKS_NESTED_IN_WORKER)
        return _serial_map(fn, items, deadline), True

    try:
        outcomes = get_pool(jobs).map(
            fn,
            items,
            jobs=jobs,
            timeout=task_timeout,
            retries=retries,
            deadline=deadline,
            fault_plan=fault_plan if fault_plan is not None else _chaos_plan(),
        )
        return outcomes, False
    except PoolUnusableError:
        _serial_fallback(BATCH_SERIAL_FALLBACKS_POOL_UNUSABLE)
        return _serial_map(fn, items, deadline), True


#: Worker-side pipeline cache keyed by (weight fingerprint, config repr).
#: A persistent pool worker analysing repeat jobs with the same trained
#: model skips the model rebuild + weight copy entirely; bounded so a
#: long-lived worker cycling through many models cannot grow without
#: limit.
_PIPELINE_CACHE: dict[tuple[str, str], object] = {}
_PIPELINE_CACHE_MAX = 4
#: Guards _PIPELINE_CACHE: a worker's heartbeat thread runs next to
#: task execution, and a caller may run tasks from threads of its own.
_PIPELINE_CACHE_LOCK = threading.Lock()


class _PipelineTask:
    """Shippable per-deck analysis task with a worker-side model cache.

    In the parent this is a thin wrapper over a trained
    :class:`~repro.core.pipeline.IRFusionPipeline`; the serial engine
    calls straight through.  Under the spawn pool it pickles as
    ``(config, channels, state_dict, fingerprint)`` — so weights ship
    once per (job, worker) — and the worker rebuilds the pipeline once
    per fingerprint, caching it across tasks *and* jobs.  The
    fingerprint (:func:`repro.nn.serialize.state_fingerprint`) covers
    every weight byte, so a retrained model can never hit a stale
    cache entry.

    Either way a call returns the slim :class:`AnalysisResult`: maps,
    stage timings and diagnostics, with ``report`` and ``features``
    ``None``.
    """

    def __init__(self, pipeline: "IRFusionPipeline") -> None:
        self.pipeline = pipeline

    def __getstate__(self) -> dict:
        from repro.nn.serialize import state_fingerprint

        state = self.pipeline.model.state_dict()
        return {
            "config": self.pipeline.config,
            "channels": self.pipeline._trained_channels,
            "state": state,
            "fingerprint": state_fingerprint(state),
        }

    def __setstate__(self, payload: dict) -> None:
        self.pipeline = None
        self._payload = payload

    def _rebuild(self) -> "IRFusionPipeline":
        payload = self._payload
        key = (payload["fingerprint"], repr(payload["config"]))
        with _PIPELINE_CACHE_LOCK:
            pipeline = _PIPELINE_CACHE.get(key)
        if pipeline is None:
            counter_add(BATCH_PIPELINE_CACHE_MISSES)
            from repro.core.pipeline import IRFusionPipeline

            pipeline = IRFusionPipeline(payload["config"])
            pipeline.load_model_state(payload["state"], payload["channels"])
            # The rebuild itself runs outside the lock (it is the slow
            # part); a racing duplicate build is resolved first-writer
            # -wins, same policy as the AMG setup cache.
            with _PIPELINE_CACHE_LOCK:
                winner = _PIPELINE_CACHE.get(key)
                if winner is not None:
                    pipeline = winner
                else:
                    while len(_PIPELINE_CACHE) >= _PIPELINE_CACHE_MAX:
                        _PIPELINE_CACHE.pop(next(iter(_PIPELINE_CACHE)))
                    _PIPELINE_CACHE[key] = pipeline
        else:
            counter_add(BATCH_PIPELINE_CACHE_HITS)
        self.pipeline = pipeline
        return pipeline

    def __call__(self, path) -> "AnalysisResult":
        pipeline = self.pipeline
        if pipeline is None:
            pipeline = self._rebuild()
        result = pipeline.analyze_file(path)
        # The report (grid + reduced system) and the feature stack are
        # ~95% of a pickled result and no batch caller reads them.
        return replace(result, report=None, features=None)


@dataclass
class BatchItem:
    """Outcome of one design in a batch run.

    ``error`` holds the one-line summary, ``traceback`` the full worker
    traceback when one was captured, ``attempts`` how many times the
    item ran (> 1 after crash/timeout/transient retries), and
    ``quarantine`` the structured record when the item was removed from
    the batch instead of resolved.
    """

    name: str
    result: "AnalysisResult | None"
    error: str | None = None
    traceback: str | None = None
    attempts: int = 1
    quarantine: QuarantineRecord | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    @property
    def quarantined(self) -> bool:
        return self.quarantine is not None


@dataclass
class BatchReport:
    """Everything a batch-analysis run produced.

    Attributes
    ----------
    items:
        Per-design outcomes, in submission order.
    jobs:
        Worker count the batch was asked to use.
    degraded:
        True when any work fell back to serial execution (a job the
        pool could not ship, missing spawn support, nested callers).
    total_seconds:
        Wall-clock time for the whole batch.
    notes:
        Operator-facing observations (lost parallelism, quarantines).
    """

    items: list[BatchItem] = field(default_factory=list)
    jobs: int = 1
    degraded: bool = False
    total_seconds: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def results(self) -> list["AnalysisResult"]:
        """Successful results only (submission order)."""
        return [item.result for item in self.items if item.ok]

    @property
    def num_failed(self) -> int:
        return sum(1 for item in self.items if not item.ok)

    @property
    def num_quarantined(self) -> int:
        return sum(1 for item in self.items if item.quarantined)

    def summary_lines(self) -> list[str]:
        lines = [
            f"batch: designs={len(self.items)} failed={self.num_failed} "
            f"jobs={self.jobs} degraded={str(self.degraded).lower()} "
            f"wall_s={self.total_seconds:.2f}"
        ]
        for item in self.items:
            if item.quarantined:
                record = item.quarantine
                lines.append(
                    f"  quarantined[{item.name}]: reason={record.reason} "
                    f"attempts={record.attempts} "
                    f"elapsed_s={record.elapsed_seconds:.2f}: {item.error}"
                )
            elif not item.ok:
                suffix = (
                    f" (attempts={item.attempts})" if item.attempts > 1 else ""
                )
                lines.append(f"  failed[{item.name}]: {item.error}{suffix}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return lines


class BatchAnalyzer:
    """Fan a trained pipeline's analysis across worker processes.

    Parameters
    ----------
    pipeline:
        A trained :class:`~repro.core.pipeline.IRFusionPipeline`; an
        untrained one raises ``RuntimeError`` here, not once per design.
    jobs:
        Worker count; defaults to the pipeline config's ``jobs`` field.
    task_timeout:
        Per-design budget in seconds, > 0 (pool path only); hung designs
        are killed, retried and eventually quarantined.
    retries:
        Extra attempts per design after a crash/timeout/transient error,
        >= 0 (pool path only).
    deadline:
        Whole-batch budget in seconds, > 0; on either path, designs
        unfinished when it expires are quarantined.
    """

    def __init__(
        self,
        pipeline: "IRFusionPipeline",
        jobs: int | None = None,
        *,
        task_timeout: float | None = None,
        retries: int = 2,
        deadline: float | None = None,
    ) -> None:
        pipeline._require_trainer()
        self.pipeline = pipeline
        self.jobs = int(jobs if jobs is not None else pipeline.config.jobs)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        check_controls(task_timeout, retries, deadline)
        self.task_timeout = task_timeout
        self.retries = retries
        self.deadline = deadline

    def analyze_files(self, paths: Sequence) -> BatchReport:
        """Analyse many SPICE decks from disk; per-deck failures are recorded.

        Spawn workers cache the rebuilt model by weight fingerprint, and
        every result comes back slim, whichever engine ran it.
        """
        counter_add(BATCH_ITEMS, len(paths))
        with span(BATCH, items=len(paths), jobs=self.jobs) as batch_span:
            outcomes, degraded = parallel_map_ex(
                _PipelineTask(self.pipeline),
                paths,
                self.jobs,
                task_timeout=self.task_timeout,
                retries=self.retries,
                deadline=self.deadline,
            )
        report = BatchReport(
            items=[
                BatchItem(
                    name=str(path),
                    result=outcome.result,
                    error=outcome.error,
                    traceback=outcome.traceback,
                    attempts=outcome.attempts,
                    quarantine=outcome.quarantine,
                )
                for path, outcome in zip(paths, outcomes)
            ],
            jobs=self.jobs,
            degraded=degraded,
            total_seconds=batch_span.duration,
        )
        if degraded and self.jobs > 1:
            note = (
                "parallelism degraded: part of the batch ran serially "
                "(see the batch.serial_fallbacks counter)"
            )
            report.notes.append(note)
            for item in report.items:
                if item.ok and item.result.diagnostics is not None:
                    item.result.diagnostics.warnings.append(note)
        if report.num_quarantined:
            report.notes.append(
                f"{report.num_quarantined} item(s) quarantined; see "
                "quarantine records above"
            )
        retried = sum(1 for item in report.items if item.attempts > 1)
        if retried:
            report.notes.append(f"{retried} item(s) needed retries")
        return report
