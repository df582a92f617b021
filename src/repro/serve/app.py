"""HTTP/JSON front end for the analysis service.

Deliberately stdlib-only (``http.server``): the daemon must run in the
same minimal environment as the rest of the repository, so the transport
layer is a thin JSON adapter over :class:`~repro.serve.service.AnalysisService`
rather than a web-framework dependency.  ``ThreadingHTTPServer`` gives
one thread per connection, which is exactly right here — handlers only
parse JSON and block on job events; all heavy work happens on the
service's one executor thread behind admission control.

Endpoints
---------
- ``POST /analyze`` — submit a deck.  Synchronous by default (the
  response is the finished job document); ``"async": true`` returns
  ``202`` with a job id to poll.
- ``GET  /jobs/<id>`` — job document (state, result or error).
- ``GET  /models`` — the registry's view of the model directory.
- ``GET  /healthz`` — liveness + queue occupancy.
- ``GET  /metrics`` — full counter/gauge snapshot plus AMG cache stats.

:class:`ServeDaemon` owns the server plus the service and provides the
graceful-drain choreography: :meth:`ServeDaemon.begin_drain` (called
from the SIGTERM handler) is signal-safe — it only spawns the drainer
thread, which stops admission, waits out in-flight jobs and then stops
the accept loop.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import metrics_snapshot
from repro.serve.registry import ModelNotFoundError, ModelRegistry
from repro.serve.service import (
    AnalysisService,
    AnalyzeRequest,
    DrainingError,
    QueueFullError,
    RequestError,
    ServeOptions,
)

#: Hard cap on request body size; a deck bigger than this is almost
#: certainly a mistake, and bounding it keeps a bad client from making
#: the daemon buffer arbitrary memory.
MAX_BODY_BYTES = 64 * 1024 * 1024


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # Set by ServeDaemon right after construction.
    service: AnalysisService
    verbose: bool = False


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    # Keep-alive requires Content-Length on every response; _send_json
    # always sets it.
    protocol_version = "HTTP/1.1"
    # Buffer replies so headers and body leave in one send when the request
    # ends (a reply longer than the buffer goes out in more).  Each send
    # re-takes the GIL, which a busy executor thread holds for up to the
    # switch interval.
    wbufsize = 1 << 16
    # Seconds one socket read or write may stall before the connection is
    # dropped: a client that announces more body than it sends, or idles
    # on a keep-alive connection, frees its thread after this long.
    timeout = 10.0

    def handle_expect_100(self) -> bool:
        # The interim "100 Continue" must leave before the body is read.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    @property
    def service(self) -> AnalysisService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            sys.stderr.write(
                "%s - %s\n" % (self.address_string(), format % args)
            )

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- GET -------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            stats = self.service.stats()
            status = "draining" if stats["draining"] else "ok"
            self._send_json(200, {"status": status, **stats})
        elif path == "/metrics":
            from repro.solvers.cache import setup_cache_stats

            snapshot = metrics_snapshot()
            self._send_json(
                200,
                {
                    "counters": snapshot["counters"],
                    "gauges": snapshot["gauges"],
                    "amg_setup_cache": setup_cache_stats().to_dict(),
                    "serve": self.service.stats(),
                },
            )
        elif path == "/models":
            try:
                rows = self.service.registry.describe()
            except ModelNotFoundError as exc:
                self._send_json(
                    500, {"error": "model_dir_missing", "message": str(exc)}
                )
                return
            self._send_json(200, {"models": rows})
        elif path.startswith("/jobs/"):
            job = self.service.get_job(path[len("/jobs/") :])
            if job is None:
                self._send_json(
                    404, {"error": "unknown_job", "message": self.path}
                )
            else:
                status = job.status if job.done.is_set() else 200
                self._send_json(status, job.describe())
        else:
            self._send_json(
                404, {"error": "not_found", "message": f"no route {path!r}"}
            )

    # -- POST ------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/analyze":
            self._send_json(
                404, {"error": "not_found", "message": f"no route {path!r}"}
            )
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would wait for the client to hang up, and with
            # no usable length the body's end is unknown: close after replying.
            self.close_connection = True
            self._send_json(
                400, {"error": "bad_request", "message": "bad Content-Length"}
            )
            return
        if length > MAX_BODY_BYTES:
            self._send_json(
                413,
                {
                    "error": "too_large",
                    "message": f"body exceeds {MAX_BODY_BYTES} bytes",
                },
            )
            return
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(
                400,
                {"error": "bad_request", "message": f"body is not JSON: {exc}"},
            )
            return
        try:
            request = AnalyzeRequest.from_payload(payload)
            job = self.service.submit(request)
        except RequestError as exc:
            self._send_json(400, {"error": "bad_request", "message": str(exc)})
            return
        except QueueFullError as exc:
            self._send_json(
                429,
                {
                    "error": "queue_full",
                    "message": str(exc),
                    "queue_limit": self.service.options.queue_limit,
                },
            )
            return
        except DrainingError as exc:
            self._send_json(503, {"error": "draining", "message": str(exc)})
            return

        if request.asynchronous:
            self._send_json(
                202,
                {
                    "job_id": job.id,
                    "state": job.state,
                    "poll": f"/jobs/{job.id}",
                },
            )
            return
        job.done.wait()
        self._send_json(job.status, job.describe())


class ServeDaemon:
    """The HTTP server + analysis service pair, with drain choreography."""

    def __init__(
        self,
        model_dir=None,
        *,
        registry: ModelRegistry | None = None,
        options: ServeOptions | None = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        verbose: bool = False,
    ) -> None:
        if registry is None:
            if model_dir is None:
                raise ValueError("provide model_dir or a ModelRegistry")
            registry = ModelRegistry(model_dir)
        self.service = AnalysisService(registry, options)
        self._httpd = _ServeHTTPServer((host, port), _Handler)
        self._httpd.service = self.service
        self._httpd.verbose = verbose
        self._thread: threading.Thread | None = None
        self._drainer: threading.Thread | None = None
        self._lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound — port 0 resolves to the real one."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Serve on a background thread (tests / embedding); returns address."""
        self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="serve-http",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread until a drain stops the accept loop."""
        self.service.start()
        self._httpd.serve_forever()

    def begin_drain(self, timeout: float | None = None) -> None:
        """Start graceful shutdown; safe to call from a signal handler.

        Only spawns the drainer thread (no locks are waited on in the
        signal context beyond the daemon's own); the drainer stops
        admission, lets queued and in-flight jobs finish (bounded by
        *timeout*), then stops the accept loop so
        :meth:`serve_forever` returns.
        """
        with self._lock:
            if self._drainer is not None:
                return
            self._drainer = threading.Thread(
                target=self._drain,
                args=(timeout,),
                name="serve-drain",
                daemon=True,
            )
            self._drainer.start()

    def _drain(self, timeout: float | None) -> None:
        self.service.drain(timeout)
        self._httpd.shutdown()

    def stop(self, timeout: float | None = 30.0) -> None:
        """Drain, wait for the loops to exit, and release the socket."""
        self.begin_drain(timeout)
        drainer = self._drainer
        if drainer is not None:
            drainer.join(timeout=None if timeout is None else timeout + 5.0)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd.server_close()
