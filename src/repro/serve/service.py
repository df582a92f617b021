"""Request queue, admission control and job execution for the daemon.

The service is the HTTP-free core of ``repro.serve``: it validates
request payloads (:class:`AnalyzeRequest`), admits them into a bounded
queue (:meth:`AnalysisService.submit` — full queue and draining are
typed rejections, never silent drops), and runs them one at a time on
one executor thread against the warm
:class:`~repro.serve.registry.ModelRegistry`.

Each request runs in-process, on the executor thread itself, so every
request shares the process-global AMG setup cache
(:mod:`repro.solvers.cache`) — the second request for the same deck
reuses the first one's hierarchy and skips the dominant setup cost.

Every job runs under its own ``serve.request`` trace; the resulting span
tree is returned inline (``"trace": "inline"``) or written to the
configured trace directory (``"trace": "file"``).  Deadlines map onto
:func:`repro.obs.deadline_scope`, the same cooperative budget the solver
cascade already honours, so an expensive stage that cannot finish in
time short-circuits instead of blowing the request budget.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from contextlib import ExitStack

from repro.obs import (
    counter_add,
    counters_delta,
    deadline_scope,
    gauge_set,
    metrics_snapshot,
    monotonic,
    trace,
)
from repro.obs.export import trace_lines, write_trace
from repro.obs.registry import (
    AMG_SETUP,
    SERVE_ACTIVE_JOBS,
    SERVE_COMPLETED,
    SERVE_FAILED,
    SERVE_QUEUE_DEPTH,
    SERVE_REJECTED,
    SERVE_REQUEST,
    SERVE_REQUESTS,
)
from repro.serve.registry import (
    ModelLoadError,
    ModelNotFoundError,
    ModelRegistry,
)
from repro.solvers.guard import SolverFailure
from repro.spice.parser import SpiceParseError


class RequestError(ValueError):
    """The request payload is malformed or unsupported (HTTP 400)."""


class QueueFullError(RuntimeError):
    """Admission control rejected the request: queue at capacity (429)."""


class DrainingError(RuntimeError):
    """The daemon is draining and admits no new work (HTTP 503)."""


_TRACE_MODES = ("none", "inline", "file")
#: Finished jobs kept addressable via ``GET /jobs/<id>``; older finished
#: jobs are evicted first, live ones never.
_HISTORY_LIMIT = 256
_REQUEST_FIELDS = frozenset(
    {
        "netlist",
        "netlist_path",
        "model",
        "mode",
        "deadline_seconds",
        "trace",
        "async",
    }
)


@dataclass(frozen=True)
class ServeOptions:
    """Daemon-level knobs (one instance for the service's lifetime).

    workers:
        Executor threads; only ``1`` is accepted.  Requests run one at a
        time, so N identical queued decks report exactly 1 AMG setup
        miss + N-1 hits.  A second executor measured slower, not faster:
        the inference plan runs one forward at a time and the GIL
        serialises the rest (docs/serving.md).
    queue_limit:
        Maximum *queued* (not yet running) jobs before admission control
        returns ``queue_full``.
    default_deadline:
        Per-request budget in seconds applied when the request does not
        carry its own ``deadline_seconds``; ``None`` = unlimited.  Like
        a request's own budget it must be finite and ``> 0``.
    trace_dir:
        Directory for ``"trace": "file"`` requests; ``None`` rejects
        them at admission.
    """

    workers: int = 1
    queue_limit: int = 8
    default_deadline: float | None = None
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        if self.workers != 1:
            raise ValueError("workers must be 1: the daemon runs one executor")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.default_deadline is not None and not (
            0 < self.default_deadline < math.inf
        ):
            raise ValueError("default_deadline must be a finite number > 0")


@dataclass(frozen=True)
class AnalyzeRequest:
    """A validated ``POST /analyze`` payload."""

    netlist: str | None = None
    netlist_path: str | None = None
    model: str | None = None
    mode: str = "static"
    deadline_seconds: float | None = None
    trace: str = "none"
    #: Reply ``202`` with a job id instead of waiting for the result.
    asynchronous: bool = False

    @classmethod
    def from_payload(cls, payload) -> "AnalyzeRequest":
        """Parse and validate a decoded JSON body; raises RequestError."""
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        unknown = sorted(set(payload) - _REQUEST_FIELDS)
        if unknown:
            raise RequestError(f"unknown request fields: {', '.join(unknown)}")

        netlist = payload.get("netlist")
        netlist_path = payload.get("netlist_path")
        if (netlist is None) == (netlist_path is None):
            raise RequestError(
                "provide exactly one of 'netlist' (SPICE deck text) or "
                "'netlist_path' (server-side deck file)"
            )
        if netlist is not None and not isinstance(netlist, str):
            raise RequestError("'netlist' must be a string")
        if netlist_path is not None and not isinstance(netlist_path, str):
            raise RequestError("'netlist_path' must be a string")

        model = payload.get("model")
        if model is not None and not isinstance(model, str):
            raise RequestError("'model' must be a string")

        mode = payload.get("mode", "static")
        if mode != "static":
            raise RequestError(
                f"mode {mode!r} is not supported; this daemon performs "
                "'static' IR-drop analysis only"
            )

        deadline = payload.get("deadline_seconds")
        if deadline is not None:
            # A JSON number only: float() would take `true` as 1 s and
            # the string "30" as 30 s.
            if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
                raise RequestError("'deadline_seconds' must be a number")
            # The upper bound also refuses an integer too large for a float.
            if not 0 < deadline <= sys.float_info.max:
                raise RequestError(
                    "'deadline_seconds' must be a finite number > 0"
                )
            deadline = float(deadline)

        trace_mode = payload.get("trace", "none")
        if trace_mode not in _TRACE_MODES:
            raise RequestError(
                f"unknown trace mode {trace_mode!r}; expected one of "
                f"{_TRACE_MODES}"
            )

        asynchronous = payload.get("async", False)
        if not isinstance(asynchronous, bool):
            raise RequestError("'async' must be true or false")
        return cls(
            netlist=netlist,
            netlist_path=netlist_path,
            model=model,
            mode=mode,
            deadline_seconds=deadline,
            trace=trace_mode,
            asynchronous=asynchronous,
        )


class Job:
    """One admitted request moving through queued → running → done/failed."""

    __slots__ = (
        "id",
        "request",
        "state",
        "result",
        "error",
        "status",
        "done",
        "submitted",
        "started",
        "finished",
    )

    def __init__(self, job_id: str, request: AnalyzeRequest) -> None:
        self.id = job_id
        self.request = request
        self.state = "queued"
        self.result: dict | None = None
        self.error: dict | None = None
        self.status = 200
        self.done = threading.Event()
        self.submitted = monotonic()
        self.started: float | None = None
        self.finished: float | None = None

    def fail(self, status: int, kind: str, message: str) -> None:
        self.state = "failed"
        self.status = status
        self.error = {"error": kind, "message": message}

    def describe(self) -> dict:
        """JSON-ready job document (``GET /jobs/<id>`` and sync replies)."""
        body: dict = {"job_id": self.id, "state": self.state}
        if self.started is not None:
            body["queued_seconds"] = self.started - self.submitted
        if self.finished is not None and self.started is not None:
            body["run_seconds"] = self.finished - self.started
        if self.result is not None:
            body["result"] = self.result
        if self.error is not None:
            body["error"] = self.error["error"]
            body["message"] = self.error["message"]
        return body


def _classify(exc: Exception) -> tuple[int, str]:
    """(HTTP status, machine-readable kind) for an execution failure."""
    if isinstance(exc, RequestError):
        return 400, "bad_request"
    if isinstance(exc, ModelNotFoundError):
        return 404, "model_not_found"
    if isinstance(exc, ModelLoadError):
        return 500, "model_load_failed"
    if isinstance(exc, SolverFailure):
        return 500, "solver_failure"
    if isinstance(exc, (SpiceParseError, FileNotFoundError)):
        return 400, "bad_input"
    if isinstance(exc, ValueError):
        return 400, "bad_input"
    return 500, "internal"


class AnalysisService:
    """Bounded-queue executor over a warm model registry."""

    def __init__(
        self,
        registry: ModelRegistry,
        options: ServeOptions | None = None,
    ) -> None:
        self.registry = registry
        self.options = options or ServeOptions()
        self._cond = threading.Condition()
        self._queue: deque[Job] = deque()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._ids = itertools.count(1)
        self._thread: threading.Thread | None = None
        self._active = 0
        self._started = False
        self._draining = False
        self._stopped = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Warm the registry and start the executor thread (idempotent).

        Every discovered model loads *before* the service accepts work:
        a daemon that cannot serve its advertised models should fail at
        startup, not 500 on first request.
        """
        with self._cond:
            if self._started:
                return
        self.registry.warm()
        with self._cond:
            if self._started:
                return
            self._started = True
        self._thread = threading.Thread(
            target=self._work, name="serve-exec", daemon=True
        )
        self._thread.start()

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, finish queued + running work, stop the executor.

        Returns True when every admitted job completed within *timeout*;
        jobs still queued when the budget expires are failed with a
        ``draining`` error so synchronous waiters always wake.
        """
        deadline = None if timeout is None else monotonic() + timeout
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            while self._queue or self._active:
                remaining = None if deadline is None else deadline - monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(0.5 if remaining is None else min(remaining, 0.5))
            drained = not self._queue and not self._active
            self._stopped = True
            while self._queue:
                job = self._queue.popleft()
                job.fail(503, "draining", "daemon stopped before the job ran")
                job.finished = monotonic()
                job.done.set()
            gauge_set(SERVE_QUEUE_DEPTH, 0)
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return drained

    # -- admission -------------------------------------------------------------

    def submit(self, request: AnalyzeRequest) -> Job:
        """Admit a validated request; raises the typed rejection errors."""
        if request.trace == "file" and not self.options.trace_dir:
            raise RequestError(
                "'trace': 'file' requires the daemon to run with --trace-dir"
            )
        with self._cond:
            if not self._started:
                raise DrainingError("service is not started")
            if self._draining or self._stopped:
                counter_add(SERVE_REJECTED)
                raise DrainingError("daemon is draining; retry elsewhere")
            if len(self._queue) >= self.options.queue_limit:
                counter_add(SERVE_REJECTED)
                raise QueueFullError(
                    f"queue is full ({self.options.queue_limit} jobs waiting)"
                )
            job = Job(f"j{next(self._ids):06d}", request)
            self._jobs[job.id] = job
            self._prune_locked()
            self._queue.append(job)
            counter_add(SERVE_REQUESTS)
            gauge_set(SERVE_QUEUE_DEPTH, len(self._queue))
            self._cond.notify()
        return job

    def _prune_locked(self) -> None:
        # Drop oldest *finished* jobs beyond the history bound; live jobs
        # are never evicted, so a slow job's handle cannot vanish.
        excess = len(self._jobs) - _HISTORY_LIMIT
        if excess <= 0:
            return
        for job_id in [
            jid
            for jid, job in self._jobs.items()
            if job.state in ("done", "failed")
        ][:excess]:
            del self._jobs[job_id]

    def get_job(self, job_id: str) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def stats(self) -> dict:
        """JSON-ready service counters for ``/healthz`` and ``/metrics``."""
        with self._cond:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "queue_depth": len(self._queue),
                "queue_limit": self.options.queue_limit,
                "active": self._active,
                "draining": self._draining or self._stopped,
                "jobs": states,
            }

    # -- execution -------------------------------------------------------------

    def _work(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if self._stopped and not self._queue:
                    return
                job = self._queue.popleft()
                gauge_set(SERVE_QUEUE_DEPTH, len(self._queue))
                self._active += 1
                gauge_set(SERVE_ACTIVE_JOBS, self._active)
                job.state = "running"
                job.started = monotonic()
            try:
                self._execute(job)
            finally:
                with self._cond:
                    self._active -= 1
                    gauge_set(SERVE_ACTIVE_JOBS, self._active)
                    job.finished = monotonic()
                    job.request = None  # history keeps the result, not the deck text
                    job.done.set()
                    self._cond.notify_all()

    def _execute(self, job: Job) -> None:
        request = job.request
        before = metrics_snapshot()
        try:
            entry = self.registry.get(request.model)
            deadline = (
                request.deadline_seconds
                if request.deadline_seconds is not None
                else self.options.default_deadline
            )
            with trace(SERVE_REQUEST, job=job.id, model=entry.name) as tracer:
                with ExitStack() as stack:
                    if deadline is not None:
                        stack.enter_context(deadline_scope(deadline))
                    result = self._run_in_process(entry, request)
            root = tracer.root
        except Exception as exc:  # noqa: BLE001 - reported per-job, never fatal
            status, kind = _classify(exc)
            job.fail(status, kind, str(exc))
            counter_add(SERVE_FAILED)
            return

        metrics = counters_delta(before)
        # This request's own cache lookups, read off its trace.
        setups = [
            span.attrs for span in root.iter_spans() if span.name == AMG_SETUP.name
        ]
        payload = {
            "model": entry.name,
            "model_fingerprint": entry.fingerprint,
            "worst_predicted_drop_volts": result.worst_predicted_drop(),
            "mean_predicted_drop_volts": float(result.predicted_drop.mean()),
            "map_shape": list(result.predicted_drop.shape),
            "stage_seconds": {
                "solve": result.solver_seconds,
                "features": result.feature_seconds,
                "inference": result.model_seconds,
            },
            "duration_seconds": root.duration,
            "amg_setup_cache": {
                "hits": sum(1 for attrs in setups if attrs.get("cache_hit")),
                "misses": sum(1 for attrs in setups if not attrs.get("cache_hit")),
                "evictions": sum(
                    attrs.get("cache_evictions", 0) for attrs in setups
                ),
            },
            "degraded": result.diagnostics.degraded,
            "diagnostics": result.diagnostics.summary_lines(),
        }
        if deadline is not None:
            payload["deadline_seconds"] = deadline
        if request.trace == "inline":
            payload["trace"] = trace_lines(root, metrics)
        elif request.trace == "file":
            path = os.path.join(
                self.options.trace_dir, f"{job.id}.trace.jsonl"
            )
            write_trace(path, root, metrics)
            payload["trace_path"] = path
        job.result = payload
        job.state = "done"
        job.status = 200
        counter_add(SERVE_COMPLETED)

    def _run_in_process(self, entry, request: AnalyzeRequest):
        if request.netlist is not None:
            return entry.pipeline.analyze_text(request.netlist)
        return entry.pipeline.analyze_file(request.netlist_path)
