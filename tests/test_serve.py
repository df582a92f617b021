"""Serving daemon: warm caches, admission control, drain, observability.

The daemon runs in-process (``ServeDaemon.start`` on an ephemeral port),
so the tests can reach both sides of the HTTP boundary: requests go over
a real socket with ``urllib``, while cache clears and blocking-analyze
monkeypatches act directly on the service objects.  One subprocess test
exercises the real ``python -m repro.serve`` entry point end to end,
SIGTERM drain included.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import FusionConfig
from repro.core.pipeline import IRFusionPipeline
from repro.data.synthetic import generate_design, make_fake_spec, make_real_spec
from repro.obs.export import validate_trace_lines
from repro.serve import app as serve_app
from repro.serve import service as service_module
from repro.serve import (
    AnalyzeRequest,
    ModelRegistry,
    RequestError,
    ServeDaemon,
    ServeOptions,
)
from repro.serve.__main__ import main as serve_main
from repro.solvers.cache import clear_setup_cache
from repro.spice.writer import netlist_to_string
from repro.train.trainer import TrainConfig


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """A model directory holding one trained tiny checkpoint pair."""
    directory = tmp_path_factory.mktemp("serve-models")
    config = FusionConfig(
        pixels=16,
        num_fake=2,
        num_real_train=1,
        num_real_test=1,
        base_channels=4,
        depth=2,
        train=TrainConfig(epochs=1, batch_size=4),
        augment=False,
        oversample_fake=1,
        oversample_real=1,
    )
    pipeline = IRFusionPipeline(config)
    pipeline.train()
    path = directory / "tiny.npz"
    pipeline.save_model(path)
    train_raw, _ = pipeline.build_datasets()
    meta = {
        "in_channels": len(train_raw.channels),
        "config": {
            "pixels": config.pixels,
            "base_channels": config.base_channels,
            "depth": config.depth,
            "solver_iterations": config.solver_iterations,
        },
    }
    (directory / "tiny.npz.json").write_text(json.dumps(meta))
    return directory


@pytest.fixture(scope="module")
def deck():
    """An irregular (real-spec) deck: its conductance matrix is distinct
    from the fake training designs', so AMG-cache expectations start cold
    after a ``clear_setup_cache``."""
    design = generate_design(make_real_spec("serve_r0", seed=5, pixels=16))
    return netlist_to_string(design.netlist)


def _start_daemon(model_dir, **options):
    daemon = ServeDaemon(
        registry=ModelRegistry(model_dir),
        options=ServeOptions(**options),
        port=0,
    )
    daemon.start()
    return daemon


@pytest.fixture()
def daemon(model_dir):
    d = _start_daemon(model_dir)
    yield d
    d.stop(timeout=10.0)


def _url(daemon, path):
    _, port = daemon.address
    return f"http://127.0.0.1:{port}{path}"


def _post(daemon, body):
    request = urllib.request.Request(
        _url(daemon, "/analyze"),
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(daemon, path):
    try:
        with urllib.request.urlopen(_url(daemon, path), timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _wait_for(predicate, timeout=30.0, interval=0.02):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- warm caches ---------------------------------------------------------------


class TestWarmCaches:
    def test_second_request_hits_amg_cache_and_is_faster(self, daemon, deck):
        clear_setup_cache()
        status1, first = _post(daemon, {"netlist": deck, "trace": "inline"})
        status2, second = _post(daemon, {"netlist": deck})
        assert status1 == 200 and status2 == 200
        r1, r2 = first["result"], second["result"]
        assert r1["amg_setup_cache"]["misses"] >= 1
        # Warm daemon: the identical deck reuses the first request's AMG
        # hierarchy and must skip setup entirely...
        assert r2["amg_setup_cache"]["hits"] > 0
        assert r2["amg_setup_cache"]["misses"] == 0
        # ...which makes the solve stage measurably faster (it no longer
        # contains hierarchy construction).
        assert r2["stage_seconds"]["solve"] < r1["stage_seconds"]["solve"]
        assert r1["model_fingerprint"] == r2["model_fingerprint"]

    def test_inline_trace_is_schema_and_registry_clean(self, daemon, deck):
        status, body = _post(daemon, {"netlist": deck, "trace": "inline"})
        assert status == 200
        lines = body["result"]["trace"]
        assert validate_trace_lines(lines) == []
        names = {
            json.loads(line)["name"]
            for line in lines
            if json.loads(line).get("kind") == "span"
        }
        assert "serve.request" in names
        assert "solve" in names and "inference" in names

    def test_analyze_reply_leaves_in_one_send(self, daemon, deck, monkeypatch):
        """Status line, headers and body go out in one socket write."""
        _, port = daemon.address
        sends = []

        def counted(real):
            def send(sock, data, *args):
                if sock.getsockname()[1] == port:
                    sends.append(len(data))
                return real(sock, data, *args)

            return send

        monkeypatch.setattr(socket.socket, "send", counted(socket.socket.send))
        monkeypatch.setattr(socket.socket, "sendall", counted(socket.socket.sendall))
        for body in ({"netlist": deck}, {"netlist": deck, "trace": "inline"}):
            sends.clear()
            status, _ = _post(daemon, body)
            assert status == 200
            assert len(sends) == 1, sends

    def test_expect_continue_is_answered_before_the_body(self, daemon, deck):
        """A client that sends ``Expect: 100-continue`` gets the interim
        reply at once, although replies are buffered, and only then sends
        the body."""
        _, port = daemon.address
        body = json.dumps({"netlist": deck}).encode("utf-8")
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        with sock, sock.makefile("rb") as reply:
            sock.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert reply.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reply.readline() == b"\r\n"
            sock.sendall(body)
            assert reply.readline().startswith(b"HTTP/1.1 200 ")

    def test_trace_file_mode_writes_to_trace_dir(self, model_dir, deck, tmp_path):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        d = _start_daemon(model_dir, trace_dir=str(trace_dir))
        try:
            status, body = _post(d, {"netlist": deck, "trace": "file"})
            assert status == 200
            path = body["result"]["trace_path"]
            lines = pathlib.Path(path).read_text().splitlines()
            assert validate_trace_lines(lines) == []
        finally:
            d.stop(timeout=10.0)

    def test_overlapping_same_deck_one_setup_miss_one_hit(self, daemon, deck):
        clear_setup_cache()
        results = []

        def worker():
            results.append(_post(daemon, {"netlist": deck}))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [status for status, _ in results] == [200, 200]
        totals = {"hits": 0, "misses": 0}
        for _, body in results:
            cache = body["result"]["amg_setup_cache"]
            totals["hits"] += cache["hits"]
            totals["misses"] += cache["misses"]
        # The single executor serialises the overlapping requests, so
        # exactly one builds the hierarchy and the other reuses it.
        assert totals["misses"] == 1
        assert totals["hits"] == 1

    def test_model_hot_reload_on_checkpoint_change(self, model_dir, deck):
        d = _start_daemon(model_dir)
        try:
            _, first = _post(d, {"netlist": deck})
            old_fingerprint = first["result"]["model_fingerprint"]
            weights = model_dir / "tiny.npz"
            state = dict(np.load(weights))
            key = sorted(state)[0]
            state[key] = state[key] + 1e-3
            np.savez_compressed(os.fspath(weights), **state)
            # Defend against filesystems with coarse mtime granularity.
            stamp = os.stat(weights)
            os.utime(weights, ns=(stamp.st_atime_ns, stamp.st_mtime_ns + 1))
            _, second = _post(d, {"netlist": deck})
            assert second["result"]["model_fingerprint"] != old_fingerprint
            _, metrics = _get(d, "/metrics")
            assert metrics["counters"].get("serve.model_reloads", 0) >= 1
        finally:
            d.stop(timeout=10.0)


# -- two clients, one executor --------------------------------------------------


class TestTwoWorkers:
    def test_concurrent_clients_equal_direct_analyze(self, model_dir):
        """Two clients post different decks at once to the one executor.

        Their requests queue and run one at a time; every reply must
        equal a direct ``analyze_text`` of its deck bit for bit.
        """
        decks = [
            netlist_to_string(generate_design(spec).netlist)
            for spec in (
                make_real_spec("serve_two_r", seed=7, pixels=48),
                make_fake_spec("serve_two_f", seed=8, pixels=48),
            )
        ]
        d = _start_daemon(model_dir)
        replies = [[], []]

        def client(i):
            for _ in range(10):
                replies[i].append(_post(d, {"netlist": decks[i]}))

        try:
            pipeline = d.service.registry.get(None).pipeline
            want = [pipeline.analyze_text(t).worst_predicted_drop() for t in decks]
            assert want[0] != want[1]
            threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not any(t.is_alive() for t in threads)
        finally:
            d.stop(timeout=30.0)
        for i in range(2):
            assert [status for status, _ in replies[i]] == [200] * 10
            got = [body["result"]["worst_predicted_drop_volts"] for _, body in replies[i]]
            assert got == [want[i]] * 10


# -- admission control and drain -----------------------------------------------


def _block_analysis(daemon):
    """Make the daemon's (sole) model block until the returned event fires."""
    entry = daemon.service.registry.get(None)
    release = threading.Event()
    original = entry.pipeline.analyze_text

    def blocked(text):
        release.wait(60.0)
        return original(text)

    entry.pipeline.analyze_text = blocked
    return release


class TestAdmission:
    def test_queue_full_returns_429_with_json_body(self, model_dir, deck):
        d = _start_daemon(model_dir, queue_limit=1)
        release = _block_analysis(d)
        try:
            status1, first = _post(d, {"netlist": deck, "async": True})
            assert status1 == 202
            assert _wait_for(
                lambda: _get(d, f"/jobs/{first['job_id']}")[1]["state"]
                == "running"
            )
            status2, _ = _post(d, {"netlist": deck, "async": True})
            assert status2 == 202  # fills the queue
            status3, body = _post(d, {"netlist": deck, "async": True})
            assert status3 == 429
            assert body["error"] == "queue_full"
            assert body["queue_limit"] == 1
            _, metrics = _get(d, "/metrics")
            assert metrics["counters"].get("serve.rejected", 0) >= 1
        finally:
            release.set()
            d.stop(timeout=30.0)

    def test_drain_finishes_inflight_and_rejects_new(self, model_dir, deck):
        d = _start_daemon(model_dir)
        release = _block_analysis(d)
        status, submitted = _post(d, {"netlist": deck, "async": True})
        assert status == 202
        assert _wait_for(
            lambda: _get(d, f"/jobs/{submitted['job_id']}")[1]["state"]
            == "running"
        )
        d.begin_drain(timeout=60.0)
        assert _wait_for(lambda: d.service.stats()["draining"])
        status, body = _post(d, {"netlist": deck})
        assert status == 503
        assert body["error"] == "draining"
        release.set()
        d.stop(timeout=30.0)
        job = d.service.get_job(submitted["job_id"])
        assert job is not None
        assert job.state == "done"
        assert job.result["amg_setup_cache"] is not None

    def test_request_validation_maps_to_400(self, daemon, deck):
        cases = [
            {},  # neither deck form
            {"netlist": deck, "netlist_path": "/tmp/x.sp"},  # both
            {"netlist": deck, "mode": "transient"},  # unsupported mode
            {"netlist": deck, "deadline_seconds": -1},  # bad deadline
            {"netlist": deck, "deadline_seconds": float("nan")},  # NaN token
            {"netlist": deck, "deadline_seconds": "nan"},
            {"netlist": deck, "deadline_seconds": float("inf")},  # Infinity
            {"netlist": deck, "trace": "file"},  # no --trace-dir
            {"netlist": deck, "frobnicate": True},  # unknown field
            {"netlist": deck, "async": "false"},  # a string, not a boolean
            {"netlist": deck, "deadline_seconds": True},  # not a 1 s budget
            {"netlist": deck, "deadline_seconds": "30"},  # a string, not a number
        ]
        for payload in cases:
            status, body = _post(daemon, payload)
            assert status == 400, payload
            assert body["error"] == "bad_request", payload

    @pytest.mark.parametrize("length", [b"-1", b"-5"])
    def test_negative_content_length_is_400(self, daemon, length):
        # The socket timeout turns a handler that waits for the client to
        # hang up into a failure instead of a stalled run.
        _, port = daemon.address
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        with sock, sock.makefile("rb") as reply:
            sock.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + length + b"\r\n\r\n{}"
            )
            assert reply.readline().startswith(b"HTTP/1.1 400 ")
            headers = {}
            for line in iter(reply.readline, b"\r\n"):
                name, _, value = line.decode().partition(":")
                headers[name.lower()] = value.strip()
            body = json.loads(reply.read(int(headers["content-length"])))
        assert body["error"] == "bad_request"

    def test_stalled_body_is_dropped_after_the_read_timeout(
        self, daemon, deck, monkeypatch
    ):
        assert 0 < serve_app._Handler.timeout <= 10
        monkeypatch.setattr(serve_app._Handler, "timeout", 0.5)
        _, port = daemon.address
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        with sock:
            # Announce 100 bytes, send 2, keep the connection open.
            sock.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n{}"
            )
            start = time.monotonic()
            try:
                reply = sock.recv(1)
            except ConnectionResetError:
                reply = b""
            elapsed = time.monotonic() - start
        assert reply == b"", "the server answered a request it never received"
        assert elapsed < 0.5 + 2.0
        status, body = _post(daemon, {"netlist": deck})
        assert status == 200 and body["state"] == "done"

    def test_unknown_model_is_404_and_unknown_job_is_404(self, daemon, deck):
        status, body = _post(daemon, {"netlist": deck, "model": "missing"})
        assert status == 404
        assert body["error"] == "model_not_found"
        status, body = _get(daemon, "/jobs/j999999")
        assert status == 404
        assert body["error"] == "unknown_job"

    def test_healthz_models_and_deadline_roundtrip(self, daemon, deck):
        status, health = _get(daemon, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert "workers" not in health
        status, models = _get(daemon, "/models")
        assert status == 200
        (row,) = models["models"]
        assert row["name"] == "tiny" and row["loaded"]
        assert row["pixels"] == 16
        # the registry holds the inference plan from load time on
        assert row["plan_ops"] > 0 and row["plan_buffer_bytes"] >= 0
        status, body = _post(
            daemon, {"netlist": deck, "deadline_seconds": 30.0}
        )
        assert status == 200
        assert body["result"]["deadline_seconds"] == 30.0

    def test_history_evicts_oldest_finished_never_live_jobs(
        self, model_dir, deck, monkeypatch
    ):
        monkeypatch.setattr(service_module, "_HISTORY_LIMIT", 2)
        d = _start_daemon(model_dir)
        release = None
        try:
            finished = []
            for _ in range(3):
                status, body = _post(d, {"netlist": deck})
                assert status == 200 and body["state"] == "done"
                finished.append(body["job_id"])
            # The third admission pushed the oldest finished job out.
            assert _get(d, f"/jobs/{finished[0]}")[0] == 404
            assert _get(d, f"/jobs/{finished[1]}")[0] == 200
            assert _get(d, f"/jobs/{finished[2]}")[0] == 200

            release = _block_analysis(d)
            live = []
            for _ in range(3):
                status, body = _post(d, {"netlist": deck, "async": True})
                assert status == 202
                live.append(body["job_id"])
            assert _wait_for(
                lambda: _get(d, f"/jobs/{live[0]}")[1]["state"] == "running"
            )
            # Both finished jobs went first; with only live jobs left the
            # history runs over its bound rather than drop a live handle.
            for job_id in finished[1:]:
                assert _get(d, f"/jobs/{job_id}")[0] == 404
            states = [_get(d, f"/jobs/{job_id}")[1]["state"] for job_id in live]
            assert states == ["running", "queued", "queued"]
        finally:
            if release is not None:
                release.set()
            d.stop(timeout=60.0)
        for job_id in live:
            assert d.service.get_job(job_id).state == "done"


# -- request schema ------------------------------------------------------------


class TestRequestSchema:
    def test_from_payload_roundtrip(self):
        request = AnalyzeRequest.from_payload(
            {"netlist": "* deck", "deadline_seconds": 2, "trace": "inline"}
        )
        assert request.netlist == "* deck"
        assert request.deadline_seconds == 2.0
        assert request.trace == "inline"
        assert not request.asynchronous
        assert AnalyzeRequest.from_payload(
            {"netlist": "* deck", "async": True}
        ).asynchronous

    def test_from_payload_rejects_non_object(self):
        with pytest.raises(RequestError):
            AnalyzeRequest.from_payload(["not", "an", "object"])

    @pytest.mark.parametrize(
        "deadline",
        [float("nan"), float("inf"), pytest.param(10**400, id="huge_int")],
    )
    def test_from_payload_rejects_non_finite_deadline(self, deadline):
        with pytest.raises(RequestError, match="finite"):
            AnalyzeRequest.from_payload(
                {"netlist": "* deck", "deadline_seconds": deadline}
            )

    @pytest.mark.parametrize("deadline", ["nan", "30", [30], {"s": 30}, True])
    def test_from_payload_rejects_non_number_deadline(self, deadline):
        with pytest.raises(RequestError, match="'deadline_seconds' must be a number"):
            AnalyzeRequest.from_payload(
                {"netlist": "* deck", "deadline_seconds": deadline}
            )


class TestServeOptions:
    @pytest.mark.parametrize("deadline", [float("nan"), 0.0, -1.0, float("inf")])
    def test_default_deadline_must_be_finite_and_positive(self, deadline):
        with pytest.raises(ValueError, match="default_deadline"):
            ServeOptions(default_deadline=deadline)

    def test_one_executor_only(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="workers must be 1"):
            ServeOptions(workers=2)
        with pytest.raises(SystemExit) as exit_info:
            serve_main(["--model-dir", os.fspath(tmp_path), "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_entry_point_rejects_bad_default_deadline_before_loading(
        self, tmp_path, capsys
    ):
        # The option check runs first, so even an empty model directory
        # reports the flag rather than the missing checkpoints.
        code = serve_main(
            ["--model-dir", os.fspath(tmp_path), "--default-deadline", "nan"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: default_deadline")


# -- the real entry point ------------------------------------------------------


class TestDaemonProcess:
    def test_sigterm_drains_and_exits_clean(self, model_dir, deck, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.fspath(
            pathlib.Path(__file__).resolve().parents[1] / "src"
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--model-dir",
                os.fspath(model_dir),
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            port = None
            banner = []
            assert process.stdout is not None
            for line in process.stdout:
                banner.append(line)
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "".join(banner)

            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/analyze",
                data=json.dumps({"netlist": deck}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=120) as response:
                assert response.status == 200
                body = json.loads(response.read())
            assert body["state"] == "done"

            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=30
            ) as response:
                assert json.loads(response.read())["status"] == "ok"

            process.send_signal(signal.SIGTERM)
            remainder = process.communicate(timeout=60)[0]
            assert process.returncode == 0, remainder
            assert "drained" in remainder
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)
