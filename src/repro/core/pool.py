"""Persistent, spawn-safe worker pool that supervises each batch in its caller.

This is the execution substrate under
:func:`repro.core.batch.parallel_map_ex` and
:class:`~repro.core.batch.BatchAnalyzer`:

- **spawn context** — workers are started with the ``spawn`` method, so
  the pool is safe off the main thread, under threaded callers, and on
  platforms without ``fork``.  A batch's job payload (the callable, a
  chaos plan and the caller's ``np.geterr()`` float-error mode) is
  pickled once and sent once to each worker the batch hands a task;
  items are pickled once per batch.  Items run under that mode, so
  float traps the caller set hold inside the workers too.
- **persistent** — workers start on first use and stay up across
  ``map`` calls, amortising interpreter start-up, until :meth:`shutdown`
  (the module pool's runs at interpreter exit).
- **supervised in the caller** — ``map`` runs its batch's supervision
  loop in the calling thread: reap and respawn dead workers, expire the
  batch deadline, kill tasks past their timeout or silent past the
  heartbeat budget, promote due retries, dispatch, then poll the worker
  pipes for at most 0.25 s.  A crashed worker is respawned and its item
  retried with exponential backoff plus deterministic jitter; an item
  that keeps killing or hanging workers is *quarantined* with a
  structured :class:`QuarantineRecord` instead of poisoning the batch.
- **one batch at a time** — ``map`` holds the pool's lock for its whole
  batch, so concurrent callers run one after another.  A worker holds
  one job payload and at most one task, and answers ``("start",)`` and
  ``("result", blob)`` for that task; it sends heartbeats only while it
  holds one, and the parent judges its silence only then.
- **deadline-aware** — a whole-batch deadline caps every per-task budget,
  and the effective budget rides into the worker as a
  :func:`repro.obs.deadline_scope`, so the solver cascade inside can
  short-circuit stages it cannot finish in time.
- **observable** — when the calling thread has an active
  :mod:`repro.obs` trace, workers run each item under an ``item`` span
  and ship it back; ``map`` grafts those and one ``task_attempt`` span
  per attempt into the caller's trace.  Counter deltas always ride
  back, and the loop emits ``pool.workers_respawned``,
  ``task.retries``, ``task.timeouts`` and ``task.quarantined``.

The parent **never deadlocks on a sick pool**: every worker has its own
pipe (a SIGKILL'd worker can only corrupt its own channel), every wait
is bounded, and every item resolves to a result, a captured error, or a
quarantine record.  An exception escaping the loop discards every worker
still holding a task, so no later batch can read a stale result, and
surfaces as :class:`PoolUnusableError` (callers fall back to serial); a
``KeyboardInterrupt`` propagates unchanged.  :meth:`WorkerPool.shutdown`
from another thread makes a running ``map`` raise
:class:`PoolUnusableError` at its next poll.

Chaos testing: a :class:`repro.testing.faults.WorkerFaultPlan` handed to
``map(fault_plan=...)`` (or via the ``REPRO_CHAOS`` environment variable,
see :mod:`repro.core.batch`) deterministically kills, hangs, slows or
transiently fails chosen items inside the workers, so every supervision
path above is testable on schedule.

Span timestamps from workers are comparable with the parent's because
Linux shares one ``CLOCK_MONOTONIC`` epoch across processes.

Supervision timing is fixed by the module constants below; tests
monkeypatch them on this module.  A worker reads the heartbeat interval
once, from its spawn arguments.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import traceback as _tb
import zlib
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection, get_context
from typing import Callable, Sequence

import numpy as np

from repro.obs import (
    counter_add,
    counters_delta,
    current_tracer,
    deadline_scope,
    merge_metrics,
    metrics_snapshot,
    monotonic,
    span_record,
    trace,
)
from repro.obs.registry import (
    ITEM,
    POOL_WORKERS_RESPAWNED,
    TASK_ATTEMPT,
    TASK_QUARANTINED,
    TASK_RETRIES,
    TASK_TIMEOUTS,
    TRANSPORT_PICKLED_BYTES,
)

#: Environment marker set inside pool workers.  ``parallel_map_ex`` checks
#: it so a nested call inside a worker runs serially instead of spawning
#: grandchild pools (workers are daemonic and cannot have children).
WORKER_ENV = "REPRO_POOL_WORKER"

#: Exponential retry backoff: attempt ``k`` waits
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(k-1))`` seconds, scaled by a
#: deterministic jitter in ``[0.5, 1.5)``.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
#: A worker holding a task sends a heartbeat every HEARTBEAT_INTERVAL
#: seconds from a daemon thread; one silent for HEARTBEAT_TIMEOUT seconds
#: since its task was dispatched or it last spoke is presumed frozen,
#: killed and respawned.
HEARTBEAT_INTERVAL = 1.0
HEARTBEAT_TIMEOUT = 30.0


class PoolUnusableError(RuntimeError):
    """The pool cannot run this job (unpicklable payload, dead runtime).

    Callers treat this as "use another execution path", never as a
    per-item failure: :func:`repro.core.batch.parallel_map_ex` falls back
    to serial execution in the parent, counted and flagged ``degraded``.
    """


class TransientTaskError(RuntimeError):
    """An error the pool retries (with backoff) instead of recording.

    Raise it — or a subclass — from task code for failures that are
    expected to succeed on a second attempt (lost locks, torn caches,
    injected flakiness).  Any other exception is captured as the item's
    final error without retry, as the serial path does: deterministic
    failures are data, not crashes.
    """


@dataclass(frozen=True)
class QuarantineRecord:
    """Why an item was removed from the batch instead of resolved.

    ``reason`` is machine-readable: ``"crash"`` (kept killing workers),
    ``"timeout"`` (kept exceeding the task budget), ``"transient"``
    (retryable errors past the retry budget) or ``"deadline"`` (the
    whole-batch deadline expired first).
    """

    index: int
    reason: str
    error: str | None
    traceback: str | None
    attempts: int
    elapsed_seconds: float


@dataclass
class TaskOutcome:
    """Terminal state of one item: result, captured error, or quarantine."""

    index: int
    result: object | None = None
    error: str | None = None
    traceback: str | None = None
    attempts: int = 1
    quarantine: QuarantineRecord | None = None
    injected_faults: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and self.quarantine is None

    @property
    def quarantined(self) -> bool:
        return self.quarantine is not None


def _jitter(index: int, attempt: int) -> float:
    """Deterministic pseudo-jitter in ``[0, 1)`` (no RNG, no wall clock)."""
    return (zlib.crc32(f"{index}:{attempt}".encode()) % 1024) / 1024.0


def backoff_delay(attempt: int, index: int) -> float:
    """Jittered exponential backoff before retry *attempt* (1-based)."""
    raw = BACKOFF_BASE * (2.0 ** max(attempt - 1, 0))
    return min(BACKOFF_CAP, raw) * (0.5 + _jitter(index, attempt))


# -- worker side ---------------------------------------------------------------


def _execute(fn: Callable, item, budget: float | None, float_errors: dict) -> tuple:
    """Run one item; returns ``(result, error, traceback, retryable)``."""
    try:
        with np.errstate(**float_errors):
            if budget is not None:
                with deadline_scope(budget):
                    return fn(item), None, None, False
            return fn(item), None, None, False
    except Exception as exc:  # noqa: BLE001 - captured per item by design
        return (
            None,
            f"{type(exc).__name__}: {exc}",
            _tb.format_exc(),
            isinstance(exc, TransientTaskError),
        )


def _run_task(job, index: int, attempt: int, item_bytes: bytes, budget):
    """One task attempt inside the worker; everything becomes data."""
    payload = {
        "index": index,
        "attempt": attempt,
        "result": None,
        "error": None,
        "traceback": None,
        "retryable": False,
        "injected": None,
        "span_tree": None,
        "metrics": None,
    }
    if isinstance(job, str):  # the job payload failed to unpickle
        payload["error"] = f"JobSetupError: {job}"
        return payload
    fn, fault_plan, traced, float_errors = job
    before = metrics_snapshot()
    try:
        item = pickle.loads(item_bytes)
        if fault_plan is not None:
            # May SIGKILL us, hang, sleep, or raise TransientTaskError.
            payload["injected"] = fault_plan.apply(index, attempt)
    except Exception as exc:  # noqa: BLE001 - injected/transport failures
        payload["error"] = f"{type(exc).__name__}: {exc}"
        payload["traceback"] = _tb.format_exc()
        payload["retryable"] = isinstance(exc, TransientTaskError)
    else:
        if traced:
            with trace(ITEM, index=index, attempt=attempt) as tracer:
                result, error, tb, retryable = _execute(
                    fn, item, budget, float_errors
                )
            payload["span_tree"] = tracer.root.to_dict()
        else:
            result, error, tb, retryable = _execute(fn, item, budget, float_errors)
        payload.update(
            result=result, error=error, traceback=tb, retryable=retryable
        )
    payload["metrics"] = counters_delta(before)
    return payload


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _dump_result(payload: dict) -> bytes:
    """Serialize a task result; an unpicklable one becomes the item's error."""
    try:
        return _dumps(payload)
    except Exception as exc:  # noqa: BLE001 - unpicklable result
        payload.update(
            result=None,
            span_tree=None,
            metrics=None,
            retryable=False,
            error=f"{type(exc).__name__}: result of item "
            f"{payload['index']} is not picklable ({exc})",
        )
        return _dumps(payload)


def _worker_main(conn, heartbeat_interval: float) -> None:
    """Worker loop: hold the latest job payload, run one task at a time."""
    os.environ[WORKER_ENV] = "1"
    send_lock = threading.Lock()
    stop = threading.Event()
    busy = threading.Event()  # holds a task

    def send(message) -> bool:
        try:
            with send_lock:
                # Checked under the lock: no heartbeat trails a result.
                if message[0] != "heartbeat" or busy.is_set():
                    conn.send(message)
            return True
        except (OSError, ValueError, EOFError, BrokenPipeError):
            return False

    def heartbeat() -> None:
        while not stop.wait(heartbeat_interval):
            if not send(("heartbeat",)):
                return

    threading.Thread(
        target=heartbeat, name="repro-pool-heartbeat", daemon=True
    ).start()

    job: tuple | str | None = None
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent is gone
            kind = message[0]
            if kind == "exit":
                break
            if kind == "job":
                try:
                    job = pickle.loads(message[1])
                except Exception as exc:  # noqa: BLE001 - reported per task
                    job = f"{type(exc).__name__}: {exc}"
            elif kind == "task":
                _, index, attempt, item_bytes, budget = message
                busy.set()
                if not send(("start",)):
                    break
                blob = _dump_result(
                    _run_task(job, index, attempt, item_bytes, budget)
                )
                busy.clear()
                if not send(("result", blob)):
                    break
    finally:
        stop.set()


# -- parent-side bookkeeping ---------------------------------------------------


class _Task:
    __slots__ = ("index", "attempt", "budget", "dispatched_at", "acked_at")

    def __init__(self, index: int, attempt: int):
        self.index = index
        self.attempt = attempt
        self.budget: float | None = None
        self.dispatched_at: float | None = None
        self.acked_at: float | None = None


class _Job:
    """One ``map`` call: items, retry state and terminal outcomes."""

    def __init__(
        self,
        payload: bytes,
        items: list[bytes],
        timeout: float | None,
        retries: int,
        deadline: float | None,
    ) -> None:
        self.payload = payload
        self.items = items
        self.timeout = timeout
        self.retries = retries
        self.deadline_at = None if deadline is None else monotonic() + deadline
        self.outcomes: list[TaskOutcome | None] = [None] * len(items)
        self.remaining = len(items)
        self.pending: deque[_Task] = deque(
            _Task(index, attempt=1) for index in range(len(items))
        )
        self.waiting: list[tuple[float, _Task]] = []  # (due, task) retries
        self.first_dispatch: dict[int, float] = {}
        self.injected: dict[int, list[str]] = {}
        self.span_payloads: list[dict] = []
        self.attempt_spans: list[dict] = []

    def record_attempt_span(self, task: _Task, end: float, outcome: str) -> None:
        start = task.acked_at or task.dispatched_at or end
        attrs = dict(index=task.index, attempt=task.attempt, outcome=outcome)
        self.attempt_spans.append(span_record(TASK_ATTEMPT, start, end, **attrs))

    def resolve(self, task: _Task, **fields) -> None:
        """Give *task*'s item its terminal outcome from this attempt."""
        index = task.index
        if self.outcomes[index] is None:
            self.outcomes[index] = TaskOutcome(
                index=index,
                attempts=task.attempt,
                injected_faults=self.injected.get(index, []),
                **fields,
            )
            self.remaining -= 1

    def quarantine(
        self, task: _Task, reason: str, error: str, traceback: str | None, now: float
    ) -> None:
        counter_add(TASK_QUARANTINED)
        record = QuarantineRecord(
            index=task.index,
            reason=reason,
            error=error,
            traceback=traceback,
            attempts=task.attempt,
            elapsed_seconds=now - self.first_dispatch.get(task.index, now),
        )
        self.resolve(task, error=error, traceback=traceback, quarantine=record)

    def retry_or_quarantine(
        self, task: _Task, reason: str, error: str, traceback: str | None, now: float
    ) -> None:
        """Schedule a backoff retry, or quarantine past the budget."""
        if task.attempt <= self.retries:
            counter_add(TASK_RETRIES)
            due = now + backoff_delay(task.attempt, task.index)
            self.waiting.append((due, _Task(task.index, task.attempt + 1)))
        else:
            self.quarantine(task, reason, error, traceback, now)


class _WorkerHandle:
    __slots__ = ("process", "conn", "has_job", "task", "last_seen")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.has_job = False  # holds the running batch's job payload
        self.task: _Task | None = None
        self.last_seen = 0.0  # set at dispatch, then by every message


class WorkerPool:
    """Spawn pool whose ``map`` supervises its own batch; see the module
    docstring for semantics."""

    def __init__(self, max_workers: int = 1) -> None:
        self._context = get_context("spawn")
        #: Held by ``map`` for its whole batch and by ``shutdown``: one
        #: batch runs at a time, and only the holder touches the workers.
        self._map_lock = threading.Lock()
        self._target = max(1, int(max_workers))
        self._shutdown = False
        self._workers: list[_WorkerHandle] = []

    # -- public API ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._shutdown

    def map(
        self,
        fn: Callable,
        items: Sequence,
        *,
        jobs: int | None = None,
        timeout: float | None = None,
        retries: int = 2,
        deadline: float | None = None,
        fault_plan=None,
    ) -> list[TaskOutcome]:
        """Run *fn* over *items* on the pool; every item terminates.

        *timeout* bounds one attempt, *retries* counts the extra attempts
        after a crash, timeout or :class:`TransientTaskError` (an item
        runs at most ``retries + 1`` times before quarantine), and
        *deadline* bounds the whole batch; ``None`` means unlimited.
        When the calling thread has an active :mod:`repro.obs` trace,
        the workers' ``item`` spans and the per-attempt ``task_attempt``
        spans are grafted into it before returning.  A second caller
        waits until this batch has finished.

        Raises :class:`PoolUnusableError` when the job cannot run on the
        pool at all (unpicklable payload, pool shut down, a fault in the
        supervision loop) — per-item failures never raise.
        """
        items = list(items)
        tracer = current_tracer()
        if self._shutdown:
            raise PoolUnusableError("pool is shut down")
        try:
            payload = _dumps((fn, fault_plan, tracer is not None, np.geterr()))
            item_blobs = [_dumps(item) for item in items]
        except Exception as exc:  # noqa: BLE001 - anything unpicklable
            raise PoolUnusableError(
                f"job payload is not picklable: {type(exc).__name__}: {exc}"
            ) from exc
        counter_add(
            TRANSPORT_PICKLED_BYTES,
            len(payload) + sum(len(blob) for blob in item_blobs),
        )
        if not items:
            return []
        # Built first: time spent waiting for another batch counts
        # against this one's deadline.
        job = _Job(payload, item_blobs, timeout, retries, deadline)
        with self._map_lock:
            if self._shutdown:
                raise PoolUnusableError("pool is shut down")
            if jobs is not None:
                self._target = max(
                    self._target, max(1, min(int(jobs), len(items)))
                )
            for worker in self._workers:
                worker.has_job = False
            try:
                self._run_batch(job)
            except Exception as exc:
                self._abandon()
                if isinstance(exc, PoolUnusableError):
                    raise
                raise PoolUnusableError(
                    f"pool supervision failed: {type(exc).__name__}: {exc}"
                ) from exc
            except BaseException:  # KeyboardInterrupt: re-raised unchanged
                self._abandon()
                raise
        if tracer is not None:
            for record in job.span_payloads + job.attempt_spans:
                tracer.attach(record)
        return list(job.outcomes)

    def shutdown(self) -> None:
        """Stop every worker (idempotent); a running ``map`` raises
        :class:`PoolUnusableError` at its next poll, then this returns."""
        self._shutdown = True
        with self._map_lock:
            self._stop_workers(self._workers)
            self._workers = []

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of live workers (observability / tests)."""
        return [
            w.process.pid
            for w in self._workers
            if w.process.is_alive() and w.process.pid is not None
        ]

    # -- worker lifecycle ------------------------------------------------------

    def _spawn_worker(self) -> _WorkerHandle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, HEARTBEAT_INTERVAL),
            name="repro-pool-worker",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    def _discard_worker(self, worker: _WorkerHandle, kill: bool) -> None:
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _stop_workers(self, workers: list[_WorkerHandle]) -> None:
        for worker in workers:
            try:
                worker.conn.send(("exit",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for worker in workers:
            worker.process.join(timeout=1.0)
            self._discard_worker(worker, kill=True)

    def _kill(self, worker: _WorkerHandle) -> None:
        """Kill a wedged or silent worker; the next reap replaces it."""
        self._workers.remove(worker)
        self._discard_worker(worker, kill=True)
        counter_add(POOL_WORKERS_RESPAWNED)

    def _abandon(self) -> None:
        """After a fault in the loop, kill every worker still holding a
        task, so no later batch can read its result."""
        for worker in self._workers:
            if worker.task is not None:
                self._discard_worker(worker, kill=True)
        self._workers = [w for w in self._workers if w.task is None]

    # -- supervision -----------------------------------------------------------

    def _run_batch(self, job: _Job) -> None:
        """The supervision loop; returns once every item has an outcome."""
        while True:
            if self._shutdown:
                raise PoolUnusableError("pool is shut down")
            now = monotonic()
            self._reap_and_respawn(job, now)
            self._check_deadline(job, now)
            self._check_timeouts(job, now)
            self._check_heartbeats(job, now)
            self._promote_retries(job, now)
            self._dispatch(job, now)
            if job.remaining == 0:
                return
            self._poll(job, now)

    def _poll(self, job: _Job, now: float) -> None:
        """Wait for worker messages, bounded by the next event."""
        timeout = 0.25
        if job.deadline_at is not None:
            timeout = min(timeout, job.deadline_at - now)
        for due, _ in job.waiting:
            timeout = min(timeout, due - now)
        for worker in self._workers:
            task = worker.task
            if task is not None and task.budget is not None:
                if task.acked_at is not None:
                    timeout = min(timeout, task.acked_at + task.budget - now)
        live = {w.conn: w for w in self._workers if w.process.is_alive()}
        for ready in connection.wait(list(live), max(0.01, timeout)):
            self._drain(live[ready], job)

    def _drain(self, worker: _WorkerHandle, job: _Job) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                # Channel torn — the reaper will confirm death and retry
                # the in-flight item; nothing more to read here.
                return
            worker.last_seen = monotonic()
            task = worker.task
            if task is None:
                continue  # nothing is in flight on this worker
            if message[0] == "start":
                task.acked_at = worker.last_seen
            elif message[0] == "result":
                worker.task = None
                self._on_result(job, task, message[1])

    def _on_result(self, job: _Job, task: _Task, blob: bytes) -> None:
        now = monotonic()
        counter_add(TRANSPORT_PICKLED_BYTES, len(blob))
        try:
            payload = pickle.loads(blob)
        except Exception as exc:  # noqa: BLE001 - corrupt payload
            payload = {
                "error": f"PayloadError: {type(exc).__name__}: {exc}",
                "traceback": None,
                "retryable": True,
            }
        metrics = payload.get("metrics")
        if metrics:
            merge_metrics(metrics)
        span_tree = payload.get("span_tree")
        if span_tree is not None:
            job.span_payloads.append(span_tree)
        injected = payload.get("injected")
        if injected:
            job.injected.setdefault(task.index, []).append(injected)
        error = payload.get("error")
        if error is None:
            job.record_attempt_span(task, now, "ok")
            job.resolve(task, result=payload.get("result"))
        elif payload.get("retryable"):
            job.record_attempt_span(task, now, "transient_error")
            job.retry_or_quarantine(
                task, "transient", error, payload.get("traceback"), now
            )
        else:
            job.record_attempt_span(task, now, "error")
            job.resolve(task, error=error, traceback=payload.get("traceback"))

    def _on_worker_death(self, worker: _WorkerHandle, job: _Job, now: float) -> None:
        task, worker.task = worker.task, None
        if task is None:
            return
        job.record_attempt_span(task, now, "crash")
        error = (
            f"WorkerCrashError: worker died while running item "
            f"{task.index} (attempt {task.attempt})"
        )
        job.retry_or_quarantine(task, "crash", error, None, now)

    def _reap_and_respawn(self, job: _Job, now: float) -> None:
        respawns = 0
        for worker in list(self._workers):
            if worker.process.is_alive():
                continue
            self._drain(worker, job)  # salvage results sent before death
            self._workers.remove(worker)
            self._discard_worker(worker, kill=False)
            self._on_worker_death(worker, job, now)
            respawns += 1
        if respawns:
            counter_add(POOL_WORKERS_RESPAWNED, respawns)
        while len(self._workers) < self._target:
            self._workers.append(self._spawn_worker())

    def _check_timeouts(self, job: _Job, now: float) -> None:
        for worker in list(self._workers):
            task = worker.task
            if task is None or task.budget is None or task.acked_at is None:
                continue
            if now - task.acked_at <= task.budget:
                continue
            counter_add(TASK_TIMEOUTS)
            # The worker is wedged inside the task: kill it.
            worker.task = None
            self._kill(worker)
            job.record_attempt_span(task, now, "timeout")
            error = (
                f"TimeoutError: item {task.index} exceeded the task "
                f"timeout of {task.budget:.3g}s (attempt {task.attempt})"
            )
            job.retry_or_quarantine(task, "timeout", error, None, now)

    def _check_heartbeats(self, job: _Job, now: float) -> None:
        for worker in list(self._workers):
            if worker.task is None or now - worker.last_seen <= HEARTBEAT_TIMEOUT:
                continue
            # Holding a task but silent past the heartbeat budget:
            # presumed frozen.
            self._kill(worker)
            self._on_worker_death(worker, job, now)

    def _check_deadline(self, job: _Job, now: float) -> None:
        if job.deadline_at is None or now <= job.deadline_at:
            return
        message = (
            "DeadlineExceededError: batch deadline expired "
            f"{now - job.deadline_at:.3g}s ago"
        )
        stranded = []
        for worker in list(self._workers):
            task, worker.task = worker.task, None
            if task is not None:
                self._kill(worker)
                job.record_attempt_span(task, now, "deadline")
                stranded.append((task, "while item {} was running"))
        stranded += [(task, "before item {} could retry") for _, task in job.waiting]
        stranded += [(task, "before item {} started") for task in job.pending]
        job.waiting, job.pending = [], deque()
        for task, when in stranded:
            error = f"{message} {when.format(task.index)}"
            job.quarantine(task, "deadline", error, None, now)

    def _promote_retries(self, job: _Job, now: float) -> None:
        job.pending.extend(task for due, task in job.waiting if due <= now)
        job.waiting = [(due, task) for due, task in job.waiting if due > now]

    def _dispatch(self, job: _Job, now: float) -> None:
        idle = [w for w in self._workers if w.task is None and w.process.is_alive()]
        while idle and job.pending:
            worker = idle.pop()
            task = job.pending.popleft()
            budget = job.timeout
            if job.deadline_at is not None:
                remaining = max(job.deadline_at - now, 0.01)
                budget = remaining if budget is None else min(budget, remaining)
            task.budget = budget
            task.dispatched_at = now
            # Held before the send: an interrupt after it discards this
            # worker rather than leaving its result for the next batch.
            worker.task, worker.last_seen = task, now
            try:
                if not worker.has_job:
                    worker.conn.send(("job", job.payload))
                    worker.has_job = True
                item = job.items[task.index]
                worker.conn.send(("task", task.index, task.attempt, item, budget))
            except (OSError, ValueError, BrokenPipeError):
                # Send failed ⇒ the worker is dead; the attempt never
                # started, so requeue without burning a retry.
                worker.task = None
                job.pending.appendleft(task)
                continue
            job.first_dispatch.setdefault(task.index, now)


# -- module-level pool ---------------------------------------------------------

_GLOBAL: WorkerPool | None = None
_GLOBAL_LOCK = threading.Lock()


def get_pool(max_workers: int | None = None) -> WorkerPool:
    """The shared lazy pool (created on first use, replaced if shut down)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None or _GLOBAL.closed:
            _GLOBAL = WorkerPool(max_workers or 1)
        return _GLOBAL


def shutdown_pool() -> None:
    """Stop the shared pool's workers (no-op when never started)."""
    with _GLOBAL_LOCK:
        pool = _GLOBAL
    if pool is not None:
        pool.shutdown()


atexit.register(shutdown_pool)
