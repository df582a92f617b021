"""Persistent, spawn-safe, supervised worker pool.

This is the execution substrate under
:func:`repro.core.batch.parallel_map_ex` and
:class:`~repro.core.batch.BatchAnalyzer`, built for long-lived processes
(servers, schedulers):

- **spawn context** — workers are started with the ``spawn`` method, so
  the pool is safe off the main thread, under nested/threaded callers,
  and on platforms without ``fork``.  Job payloads (the callable, a
  chaos plan and the caller's ``np.geterr()`` float-error mode) are
  pickled once per worker per job; items once per job.  Items run under
  that mode, so float traps the caller set hold inside the workers too.
- **persistent** — workers are long-lived and lazily started; the module
  pool survives across ``map`` calls, amortising interpreter start-up,
  and shuts itself down after :data:`IDLE_TIMEOUT` seconds without work.
- **supervised** — the parent watches per-worker heartbeats, process
  liveness and per-task budgets.  A crashed worker is respawned and its
  in-flight item retried with exponential backoff plus deterministic
  jitter; a hung task is killed at its timeout; an item that keeps
  killing or hanging workers is *quarantined* with a structured
  :class:`QuarantineRecord` instead of poisoning the batch.
- **deadline-aware** — a whole-batch deadline caps every per-task budget,
  and the effective budget rides into the worker as a
  :func:`repro.obs.deadline_scope`, so the solver cascade inside can
  short-circuit stages it cannot finish in time.
- **observable** — when the calling thread has an active
  :mod:`repro.obs` trace, workers run each item under an ``item`` span
  and ship it back; ``map`` grafts those and one ``task_attempt`` span
  per attempt into the caller's trace.  Counter deltas always ride
  back, and the supervisor emits ``pool.workers_respawned``,
  ``task.retries``, ``task.timeouts`` and ``task.quarantined``.

The parent **never deadlocks on a sick pool**: every worker has its own
pipe (a SIGKILL'd worker can only corrupt its own channel), the
supervisor is a daemon thread whose crash fails pending jobs with
:class:`PoolUnusableError` (callers fall back to serial), and every item
of every job resolves to a result, a captured error, or a quarantine
record.

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
#: Workers send a heartbeat every HEARTBEAT_INTERVAL seconds from a
#: daemon thread; one silent for HEARTBEAT_TIMEOUT seconds is presumed
#: frozen, killed and respawned.
HEARTBEAT_INTERVAL = 1.0
HEARTBEAT_TIMEOUT = 30.0
#: The supervisor stops every worker and exits after this many seconds
#: without jobs; the next ``map`` restarts it lazily.
IDLE_TIMEOUT = 300.0


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
    if job is None:
        payload["error"] = "RuntimeError: worker has no payload for this job"
        payload["retryable"] = True
        return payload
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


def _worker_main(slot: int, conn, heartbeat_interval: float) -> None:
    """Worker loop: receive job payloads and tasks, send acks and results."""
    os.environ[WORKER_ENV] = "1"
    send_lock = threading.Lock()

    def send(message) -> bool:
        try:
            with send_lock:
                conn.send(message)
            return True
        except (OSError, ValueError, EOFError, BrokenPipeError):
            return False

    stop = threading.Event()

    def heartbeat() -> None:
        while not stop.wait(heartbeat_interval):
            if not send(("heartbeat", slot)):
                return

    threading.Thread(
        target=heartbeat, name=f"repro-pool-{slot}-heartbeat", daemon=True
    ).start()

    jobs: dict[int, tuple | str] = {}
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
                _, job_id, blob = message
                try:
                    jobs[job_id] = pickle.loads(blob)
                except Exception as exc:  # noqa: BLE001 - reported per task
                    jobs[job_id] = f"{type(exc).__name__}: {exc}"
            elif kind == "forget":
                jobs.pop(message[1], None)
            elif kind == "task":
                _, job_id, task_id, index, attempt, item_bytes, budget = message
                if not send(("start", slot, job_id, task_id)):
                    break
                payload = _run_task(
                    jobs.get(job_id), index, attempt, item_bytes, budget
                )
                blob = _dump_result(payload)
                if not send(("result", slot, job_id, task_id, blob)):
                    break
    finally:
        stop.set()


# -- parent-side bookkeeping ---------------------------------------------------


class _Task:
    __slots__ = (
        "job",
        "task_id",
        "index",
        "attempt",
        "budget",
        "dispatched_at",
        "acked_at",
        "worker_slot",
    )

    def __init__(self, job: "_Job", task_id: int, index: int, attempt: int):
        self.job = job
        self.task_id = task_id
        self.index = index
        self.attempt = attempt
        self.budget: float | None = None
        self.dispatched_at: float | None = None
        self.acked_at: float | None = None
        self.worker_slot: int | None = None


class _Job:
    """One ``map`` call: items, retry state and terminal outcomes."""

    def __init__(
        self,
        job_id: int,
        payload: bytes,
        items: list[bytes],
        timeout: float | None,
        retries: int,
        deadline: float | None,
    ) -> None:
        self.id = job_id
        self.payload = payload
        self.items = items
        self.timeout = timeout
        self.retries = retries
        self.deadline_at = None if deadline is None else monotonic() + deadline
        self.outcomes: list[TaskOutcome | None] = [None] * len(items)
        self.remaining = len(items)
        self.pending: deque[_Task] = deque(
            _Task(self, task_id, index, attempt=1)
            for task_id, index in enumerate(range(len(items)))
        )
        self.waiting: list[tuple[float, _Task]] = []  # (due, task) retries
        self.active: dict[int, _Task] = {}
        self.first_dispatch: dict[int, float] = {}
        self.injected: dict[int, list[str]] = {}
        self.task_counter = len(items)
        self.span_payloads: list[dict] = []
        self.attempt_spans: list[dict] = []
        self.done = threading.Event()
        self.fatal: str | None = None

    def next_task_id(self) -> int:
        self.task_counter += 1
        return self.task_counter

    def record_attempt_span(
        self, task: _Task, end: float, outcome: str
    ) -> None:
        start = task.acked_at or task.dispatched_at or end
        self.attempt_spans.append(
            span_record(
                TASK_ATTEMPT,
                start,
                end,
                index=task.index,
                attempt=task.attempt,
                outcome=outcome,
            )
        )

    def resolve(self, index: int, outcome: TaskOutcome) -> None:
        if self.outcomes[index] is None:
            outcome.injected_faults = self.injected.get(index, [])
            self.outcomes[index] = outcome
            self.remaining -= 1

    def elapsed(self, index: int, now: float) -> float:
        return now - self.first_dispatch.get(index, now)

    def quarantine(
        self,
        task: _Task,
        reason: str,
        error: str | None,
        traceback: str | None,
        now: float,
    ) -> None:
        counter_add(TASK_QUARANTINED)
        record = QuarantineRecord(
            index=task.index,
            reason=reason,
            error=error,
            traceback=traceback,
            attempts=task.attempt,
            elapsed_seconds=self.elapsed(task.index, now),
        )
        self.resolve(
            task.index,
            TaskOutcome(
                index=task.index,
                error=error,
                traceback=traceback,
                attempts=task.attempt,
                quarantine=record,
            ),
        )

    def retry_or_quarantine(
        self,
        task: _Task,
        reason: str,
        error: str,
        traceback: str | None,
        now: float,
    ) -> None:
        """Schedule a backoff retry, or quarantine past the budget."""
        if task.attempt <= self.retries:
            counter_add(TASK_RETRIES)
            retry = _Task(
                self, self.next_task_id(), task.index, task.attempt + 1
            )
            due = now + backoff_delay(task.attempt, task.index)
            self.waiting.append((due, retry))
        else:
            self.quarantine(task, reason, error, traceback, now)


class _WorkerHandle:
    __slots__ = ("slot", "process", "conn", "jobs_sent", "task", "last_seen")

    def __init__(self, slot: int, process, conn, now: float) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        self.jobs_sent: set[int] = set()
        self.task: _Task | None = None
        self.last_seen = now


class WorkerPool:
    """Supervised spawn pool; see the module docstring for semantics."""

    def __init__(self, max_workers: int = 1) -> None:
        self._context = get_context("spawn")
        self._lock = threading.Lock()
        self._intake: deque[_Job] = deque()
        self._target = max(1, int(max_workers))
        self._running = False
        self._shutdown = False
        self._supervisor: threading.Thread | None = None
        self._workers: list[_WorkerHandle] = []
        self._wake_r: int | None = None
        self._wake_w: int | None = None
        self._job_counter = 0
        self._slot_counter = 0

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
        spans are grafted into it before returning.

        Raises :class:`PoolUnusableError` when the job cannot run on the
        pool at all (unpicklable payload, pool shut down, supervisor
        dead) — per-item failures never raise.
        """
        items = list(items)
        tracer = current_tracer()
        with self._lock:
            if self._shutdown:
                raise PoolUnusableError("pool is shut down")
            self._job_counter += 1
            job_id = self._job_counter
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
        with self._lock:
            if self._shutdown:
                raise PoolUnusableError("pool is shut down")
            job = _Job(job_id, payload, item_blobs, timeout, retries, deadline)
            if jobs is not None:
                self._target = max(
                    self._target, max(1, min(int(jobs), len(items)))
                )
            self._ensure_running_locked()
            self._intake.append(job)
        self._wake()
        while not job.done.wait(0.2):
            supervisor = self._supervisor
            if supervisor is None or not supervisor.is_alive():
                raise PoolUnusableError("pool supervisor died")
        if job.fatal is not None:
            raise PoolUnusableError(job.fatal)
        if tracer is not None:
            for record in job.span_payloads + job.attempt_spans:
                tracer.attach(record)
        return list(job.outcomes)

    def shutdown(self) -> None:
        """Stop the supervisor and every worker (idempotent)."""
        with self._lock:
            self._shutdown = True
            running = self._running
            supervisor = self._supervisor
        if running:
            self._wake()
        if supervisor is not None:
            supervisor.join(timeout=10.0)

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of live workers (observability / tests)."""
        return [
            w.process.pid
            for w in self._workers
            if w.process.is_alive() and w.process.pid is not None
        ]

    # -- lifecycle -------------------------------------------------------------

    def _ensure_running_locked(self) -> None:
        if self._running:
            return
        self._wake_r, self._wake_w = os.pipe()
        self._running = True
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-pool-supervisor", daemon=True
        )
        self._supervisor.start()

    def _wake(self) -> None:
        wake_w = self._wake_w
        if wake_w is not None:
            try:
                os.write(wake_w, b"x")
            except OSError:
                pass

    def _spawn_worker(self, now: float) -> _WorkerHandle:
        self._slot_counter += 1
        slot = self._slot_counter
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(slot, child_conn, HEARTBEAT_INTERVAL),
            name=f"repro-pool-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(slot, process, parent_conn, now)

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

    def _retire_locked(self) -> tuple[tuple, list[_WorkerHandle]]:
        """Atomically claim this supervisor's runtime for teardown.

        Must run under ``self._lock``.  Marks the pool not-running and
        *moves* the wake pipe and worker list into the caller: a
        ``map`` arriving after this point starts a fresh supervisor with
        fresh resources, and the retiring thread can only ever tear down
        what it claimed here.  (The old code reset ``_running`` and
        closed ``self._wake_*`` unconditionally in the supervisor's
        ``finally`` — a successor supervisor started in the gap had its
        wake pipe closed and its workers stopped out from under it,
        stranding freshly queued work.)
        """
        self._running = False
        wake = (self._wake_r, self._wake_w)
        self._wake_r = self._wake_w = None
        workers = self._workers
        self._workers = []
        return wake, workers

    # -- supervision -----------------------------------------------------------

    def _supervise(self) -> None:
        jobs: list[_Job] = []
        last_activity = monotonic()
        retired: tuple[tuple, list[_WorkerHandle]] | None = None
        try:
            while True:
                with self._lock:
                    while self._intake:
                        jobs.append(self._intake.popleft())
                    shutdown = self._shutdown
                    target = self._target
                if shutdown:
                    for job in jobs:
                        job.fatal = "pool shut down"
                        job.done.set()
                    break
                now = monotonic()
                if jobs:
                    last_activity = now
                self._reap_and_respawn(jobs, target if jobs else 0, now)
                self._check_deadlines(jobs, now)
                self._check_timeouts(jobs, now)
                self._check_heartbeats(jobs, now)
                self._promote_retries(jobs, now)
                self._dispatch(jobs, now)
                finished = [job for job in jobs if job.remaining == 0]
                for job in finished:
                    self._finish(job)
                jobs = [job for job in jobs if job.remaining > 0]
                if not jobs and monotonic() - last_activity > IDLE_TIMEOUT:
                    with self._lock:
                        if not self._intake and not self._shutdown:
                            retired = self._retire_locked()
                            break
                self._poll(jobs, now)
        except Exception:  # noqa: BLE001 - a sick supervisor must not hang callers
            error = _tb.format_exc()
            with self._lock:
                pending = list(self._intake)
                self._intake.clear()
                retired = self._retire_locked()
            for job in jobs + pending:
                job.fatal = f"pool supervisor crashed:\n{error}"
                job.done.set()
        finally:
            if retired is None:
                # Shutdown path (or an exit without an explicit retire):
                # claim whatever still belongs to this supervisor run,
                # unless a successor already took over the runtime.
                with self._lock:
                    if self._supervisor is threading.current_thread():
                        retired = self._retire_locked()
            if retired is not None:
                wake, workers = retired
                self._stop_workers(workers)
                for fd in wake:
                    if fd is not None:
                        try:
                            os.close(fd)
                        except OSError:
                            pass

    def _poll(self, jobs: list[_Job], now: float) -> None:
        """Wait for worker messages / wake-ups, bounded by the next event."""
        timeout = 0.25 if jobs else 0.5
        for job in jobs:
            if job.deadline_at is not None:
                timeout = min(timeout, job.deadline_at - now)
            for due, _ in job.waiting:
                timeout = min(timeout, due - now)
            for task in job.active.values():
                if task.budget is not None and task.acked_at is not None:
                    timeout = min(
                        timeout, task.acked_at + task.budget - now
                    )
        timeout = max(0.01, timeout)
        sources: list = [
            w.conn for w in self._workers if w.process.is_alive()
        ]
        if self._wake_r is not None:
            sources.append(self._wake_r)
        if not sources:
            return
        for ready in connection.wait(sources, timeout):
            if ready == self._wake_r:
                try:
                    os.read(self._wake_r, 4096)
                except OSError:
                    pass
                continue
            worker = next(
                (w for w in self._workers if w.conn is ready), None
            )
            if worker is not None:
                self._drain(worker, jobs)

    def _drain(self, worker: _WorkerHandle, jobs: list[_Job]) -> None:
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
            kind = message[0]
            if kind == "heartbeat":
                continue
            if kind == "start":
                _, _, job_id, task_id = message
                job = next((j for j in jobs if j.id == job_id), None)
                task = job.active.get(task_id) if job is not None else None
                if task is not None:
                    task.acked_at = monotonic()
            elif kind == "result":
                _, _, job_id, task_id, blob = message
                worker.task = None
                job = next((j for j in jobs if j.id == job_id), None)
                if job is None:
                    continue  # late result for a finished/cancelled job
                task = job.active.pop(task_id, None)
                if task is None:
                    continue
                self._on_result(job, task, blob)

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
            job.resolve(
                task.index,
                TaskOutcome(
                    index=task.index,
                    result=payload.get("result"),
                    attempts=task.attempt,
                ),
            )
        elif payload.get("retryable"):
            job.record_attempt_span(task, now, "transient_error")
            job.retry_or_quarantine(
                task, "transient", error, payload.get("traceback"), now
            )
        else:
            job.record_attempt_span(task, now, "error")
            job.resolve(
                task.index,
                TaskOutcome(
                    index=task.index,
                    error=error,
                    traceback=payload.get("traceback"),
                    attempts=task.attempt,
                ),
            )

    def _on_worker_death(self, worker: _WorkerHandle, jobs: list[_Job]) -> None:
        task = worker.task
        worker.task = None
        if task is None:
            return
        job = task.job
        if job.remaining == 0 or job not in jobs:
            return
        job.active.pop(task.task_id, None)
        now = monotonic()
        job.record_attempt_span(task, now, "crash")
        error = (
            f"WorkerCrashError: worker died while running item "
            f"{task.index} (attempt {task.attempt})"
        )
        job.retry_or_quarantine(task, "crash", error, None, now)

    def _reap_and_respawn(
        self, jobs: list[_Job], target: int, now: float
    ) -> None:
        alive: list[_WorkerHandle] = []
        respawns = 0
        for worker in self._workers:
            if worker.process.is_alive():
                alive.append(worker)
                continue
            self._drain(worker, jobs)  # salvage results sent before death
            if worker.process.is_alive():  # raced: it spoke, keep it
                alive.append(worker)
                continue
            self._on_worker_death(worker, jobs)
            self._discard_worker(worker, kill=False)
            respawns += 1
        self._workers = alive
        if respawns:
            counter_add(POOL_WORKERS_RESPAWNED, respawns)
        while len(self._workers) < target:
            self._workers.append(self._spawn_worker(now))

    def _kill_worker_of(self, task: _Task) -> None:
        worker = next(
            (w for w in self._workers if w.slot == task.worker_slot), None
        )
        if worker is not None:
            worker.task = None
            self._discard_worker(worker, kill=True)
            self._workers.remove(worker)
            counter_add(POOL_WORKERS_RESPAWNED)
            self._workers.append(self._spawn_worker(monotonic()))

    def _check_timeouts(self, jobs: list[_Job], now: float) -> None:
        for job in jobs:
            for task in list(job.active.values()):
                if task.budget is None or task.acked_at is None:
                    continue
                if now - task.acked_at <= task.budget:
                    continue
                counter_add(TASK_TIMEOUTS)
                job.active.pop(task.task_id, None)
                # The worker is wedged inside the task: kill + respawn.
                self._kill_worker_of(task)
                job.record_attempt_span(task, now, "timeout")
                error = (
                    f"TimeoutError: item {task.index} exceeded the task "
                    f"timeout of {task.budget:.3g}s (attempt {task.attempt})"
                )
                job.retry_or_quarantine(task, "timeout", error, None, now)

    def _check_heartbeats(self, jobs: list[_Job], now: float) -> None:
        for worker in list(self._workers):
            if not worker.process.is_alive():
                continue
            if now - worker.last_seen <= HEARTBEAT_TIMEOUT:
                continue
            # Alive but silent past the heartbeat budget: presumed frozen.
            self._discard_worker(worker, kill=True)
            self._workers.remove(worker)
            counter_add(POOL_WORKERS_RESPAWNED)
            self._on_worker_death(worker, jobs)
            self._workers.append(self._spawn_worker(now))

    def _check_deadlines(self, jobs: list[_Job], now: float) -> None:
        for job in jobs:
            if job.deadline_at is None or now <= job.deadline_at:
                continue
            message = (
                "DeadlineExceededError: batch deadline expired "
                f"{now - job.deadline_at:.3g}s ago"
            )
            for task in list(job.active.values()):
                job.active.pop(task.task_id, None)
                self._kill_worker_of(task)
                job.record_attempt_span(task, now, "deadline")
                job.quarantine(
                    task,
                    "deadline",
                    f"{message} while item {task.index} was running",
                    None,
                    now,
                )
            for _, task in job.waiting:
                job.quarantine(
                    task,
                    "deadline",
                    f"{message} before item {task.index} could retry",
                    None,
                    now,
                )
            job.waiting = []
            while job.pending:
                task = job.pending.popleft()
                job.quarantine(
                    task,
                    "deadline",
                    f"{message} before item {task.index} started",
                    None,
                    now,
                )

    def _promote_retries(self, jobs: list[_Job], now: float) -> None:
        for job in jobs:
            due_now = [t for due, t in job.waiting if due <= now]
            job.waiting = [(due, t) for due, t in job.waiting if due > now]
            job.pending.extend(due_now)

    def _dispatch(self, jobs: list[_Job], now: float) -> None:
        idle = [
            w
            for w in self._workers
            if w.task is None and w.process.is_alive()
        ]
        for job in jobs:
            while idle and job.pending:
                worker = idle.pop()
                task = job.pending.popleft()
                budget = job.timeout
                if job.deadline_at is not None:
                    remaining = max(job.deadline_at - now, 0.01)
                    budget = (
                        remaining
                        if budget is None
                        else min(budget, remaining)
                    )
                task.budget = budget
                task.dispatched_at = now
                task.worker_slot = worker.slot
                try:
                    if job.id not in worker.jobs_sent:
                        worker.conn.send(("job", job.id, job.payload))
                        worker.jobs_sent.add(job.id)
                    worker.conn.send(
                        (
                            "task",
                            job.id,
                            task.task_id,
                            task.index,
                            task.attempt,
                            job.items[task.index],
                            budget,
                        )
                    )
                except (OSError, ValueError, BrokenPipeError):
                    # Send failed ⇒ the worker is dead; the attempt never
                    # started, so requeue without burning a retry.
                    job.pending.appendleft(task)
                    continue
                worker.task = task
                job.active[task.task_id] = task
                job.first_dispatch.setdefault(task.index, now)

    def _finish(self, job: _Job) -> None:
        for worker in self._workers:
            if job.id in worker.jobs_sent:
                try:
                    worker.conn.send(("forget", job.id))
                except (OSError, ValueError, BrokenPipeError):
                    pass
                worker.jobs_sent.discard(job.id)
        job.done.set()


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
