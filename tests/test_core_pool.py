"""Tests for the persistent spawn-safe worker pool and its chaos paths."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import pool as pool_module
from repro.core.batch import BatchAnalyzer, parallel_map_ex
from repro.core.pool import (
    PoolUnusableError,
    TransientTaskError,
    WorkerPool,
    backoff_delay,
    get_pool,
)
from repro.obs import (
    counters_delta,
    deadline_remaining,
    metrics_snapshot,
    reset_metrics,
    trace,
)
from repro.obs.registry import SpanName
from repro.testing.faults import WorkerFaultPlan


def _square(x):
    return x * x


def _boom(x):
    if x == 1:
        raise ValueError(f"bad item {x}")
    return x


def _reciprocal(x):
    return np.float64(1.0) / x


def _overrun(seconds):
    """Sleep *seconds*, or until a second past the item's deadline: the
    serial engine cannot kill an item, so it must end on its own."""
    remaining = deadline_remaining()
    if remaining is not None:
        seconds = min(seconds, max(remaining, 0.0) + 1.0)
    time.sleep(seconds)
    return seconds


def _freeze_once(marker: str) -> str:
    """SIGSTOP this worker the first time it runs: a frozen process,
    alive but silent, heartbeat thread included."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGSTOP)
    return "thawed"


def _double(array):
    return array * 2.0


class _DiesWhenPickled:
    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


def _result_that_kills_its_worker(item):
    # The worker dies while pickling the result, after the task ran.
    return item, _DiesWhenPickled()


def _dev_shm() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _warm_pool(jobs: int = 2) -> None:
    """Make sure the shared pool's workers are up (cold spawn on this
    box imports numpy/scipy and can take seconds — tests that assert on
    timing must not pay it inside the measured window)."""
    outcomes, _ = parallel_map_ex(_square, [0, 1, 2, 3], jobs)
    assert [o.result for o in outcomes] == [0, 1, 4, 9]


class TestPoolBasics:
    def test_results_in_submission_order(self):
        outcomes, degraded = parallel_map_ex(_square, list(range(9)), 2)
        assert [o.result for o in outcomes] == [k * k for k in range(9)]
        assert not degraded
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_errors_carry_traceback_and_attempts(self):
        outcomes, _ = parallel_map_ex(_boom, [0, 1, 2], 2)
        bad = outcomes[1]
        assert not bad.ok and bad.quarantine is None
        assert bad.error.startswith("ValueError: bad item 1")
        assert "Traceback" in bad.traceback
        assert "_boom" in bad.traceback
        assert bad.attempts == 1  # deterministic errors are not retried

    def test_caller_float_traps_reach_the_workers(self):
        # tests/conftest.py makes a division by zero raise here; a spawned
        # worker starts at numpy's default "warn" and would return inf.
        assert np.geterr()["divide"] == "raise"
        outcomes, degraded = parallel_map_ex(_reciprocal, [0.0, 2.0], 2)
        assert not degraded
        assert outcomes[0].error.startswith("FloatingPointError: divide by zero")
        assert outcomes[1].result == 0.5

    def test_parallelizes_from_non_main_thread(self):
        _warm_pool()
        box = {}

        def run():
            box["out"] = parallel_map_ex(_square, [2, 3, 4, 5], 2)

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        outcomes, degraded = box["out"]
        assert [o.result for o in outcomes] == [4, 9, 16, 25]
        assert not degraded  # PR 5 forced this case to serial

    def test_unpicklable_closure_runs_serially_and_is_counted(self):
        sink = []

        def closure(x):  # closures cannot cross a spawn boundary
            sink.append(x)
            return x + 1

        before = metrics_snapshot()
        outcomes, degraded = parallel_map_ex(closure, [1, 2, 3], 2)
        assert degraded
        assert [o.result for o in outcomes] == [2, 3, 4]
        assert sink == [1, 2, 3]  # ran in this process, in order
        delta = counters_delta(before)["counters"]
        assert delta.get("batch.serial_fallbacks", 0) == 1
        assert delta.get("batch.serial_fallbacks.pool_unusable", 0) == 1

    def test_pool_raises_unusable_for_unpicklable(self):
        pool = get_pool(2)
        with pytest.raises(PoolUnusableError, match="not picklable"):
            pool.map(lambda x: x, [1, 2], jobs=2)

    def test_pool_raises_unusable_for_an_unpicklable_item(self):
        # The first item pickles; the second cannot ship, so nothing does.
        with pytest.raises(PoolUnusableError, match="not picklable"):
            get_pool(2).map(_double, [np.ones((128, 64)), lambda: None])

    def test_large_results_come_back_bitwise_and_writable(self):
        # 128 x 64 float64 is 64 KiB; each result is the caller's own
        # writable array, and no batch leaves a /dev/shm entry behind.
        items = [
            np.random.default_rng(k).standard_normal((128, 64)) for k in range(4)
        ]
        serial, _ = parallel_map_ex(_double, items, 1)
        before = _dev_shm()
        pooled, degraded = parallel_map_ex(_double, items, 2)
        assert not degraded
        for got, want in zip(pooled, serial):
            assert got.ok and got.result.nbytes == 64 * 1024
            assert np.array_equal(got.result, want.result)
            assert got.result.flags.writeable
        pooled[0].result *= 2.0  # the caller owns the array
        assert _dev_shm() - before == set()


class TestChaosPaths:
    def test_sigkilled_worker_respawned_and_item_retried(self):
        _warm_pool()
        plan = WorkerFaultPlan.from_spec("kill@2x1")
        before = metrics_snapshot()
        outcomes, degraded = parallel_map_ex(
            _square, list(range(6)), 2, fault_plan=plan, retries=2
        )
        assert not degraded
        assert [o.result for o in outcomes] == [k * k for k in range(6)]
        assert outcomes[2].attempts == 2  # died once, succeeded on retry
        delta = counters_delta(before)["counters"]
        assert delta.get("pool.workers_respawned", 0) >= 1
        assert delta.get("task.retries", 0) >= 1

    def test_flaky_once_succeeds_on_retry(self):
        plan = WorkerFaultPlan(flaky={1: frozenset({1})})
        outcomes, _ = parallel_map_ex(
            _square, [5, 6, 7], 2, fault_plan=plan, retries=2
        )
        assert [o.result for o in outcomes] == [25, 36, 49]
        assert outcomes[1].attempts == 2
        assert outcomes[1].injected_faults == []  # raise, not survivable

    def test_transient_exhaustion_quarantines(self):
        plan = WorkerFaultPlan(flaky={0: None})  # every attempt
        before = metrics_snapshot()
        outcomes, _ = parallel_map_ex(
            _square, [1, 2], 2, fault_plan=plan, retries=1
        )
        record = outcomes[0].quarantine
        assert record is not None
        assert record.reason == "transient"
        assert record.attempts == 2  # retries + 1
        assert "injected flaky failure" in record.error
        assert record.elapsed_seconds >= 0.0
        assert outcomes[1].result == 4
        delta = counters_delta(before)["counters"]
        assert delta.get("task.quarantined", 0) >= 1

    def test_hung_worker_hits_timeout_then_quarantine(self):
        _warm_pool()
        plan = WorkerFaultPlan.from_spec("hang@0")
        before = metrics_snapshot()
        start = time.monotonic()
        outcomes, _ = parallel_map_ex(
            _square,
            [9, 10, 11],
            2,
            fault_plan=plan,
            task_timeout=1.0,
            retries=0,
        )
        elapsed = time.monotonic() - start
        record = outcomes[0].quarantine
        assert record is not None and record.reason == "timeout"
        assert "task timeout" in record.error
        assert [o.result for o in outcomes[1:]] == [100, 121]
        assert elapsed < 30.0  # parent never waits for the 3600 s sleep
        delta = counters_delta(before)["counters"]
        assert delta.get("task.timeouts", 0) >= 1

    def test_poison_item_quarantined_after_retry_budget(self):
        _warm_pool()
        plan = WorkerFaultPlan.from_spec("kill@1")  # every attempt
        outcomes, _ = parallel_map_ex(
            _square, [1, 2, 3], 2, fault_plan=plan, retries=2
        )
        record = outcomes[1].quarantine
        assert record is not None
        assert record.reason == "crash"
        assert record.attempts == 3
        assert "worker died" in record.error
        # The poison item never takes healthy neighbours down with it.
        assert outcomes[0].result == 1 and outcomes[2].result == 9

    def test_worker_killed_while_pickling_its_result_is_quarantined(self):
        _warm_pool()
        before = _dev_shm()
        outcomes = get_pool(2).map(
            _result_that_kills_its_worker, [1, 2], jobs=2, retries=0
        )
        for outcome in outcomes:
            assert outcome.quarantine is not None
            assert outcome.quarantine.reason == "crash"
        assert _dev_shm() - before == set()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_deadline_quarantines_unfinished(self, jobs):
        # Both engines: the pool kills the running items at the deadline;
        # the serial loop quarantines the one that returns late and never
        # starts the rest.
        _warm_pool()
        start = time.monotonic()
        outcomes, _ = parallel_map_ex(
            _overrun, [3600.0, 3600.0, 3600.0], jobs, deadline=1.5, retries=0
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        assert all(o.quarantine is not None for o in outcomes)
        assert {o.quarantine.reason for o in outcomes} == {"deadline"}

    def test_slow_item_survives_generous_timeout(self):
        _warm_pool()
        plan = WorkerFaultPlan.from_spec("slow@0:0.3")
        outcomes, _ = parallel_map_ex(
            _square, [4, 5], 2, fault_plan=plan, task_timeout=30.0
        )
        assert [o.result for o in outcomes] == [16, 25]
        assert outcomes[0].injected_faults == ["slow"]


class TestTelemetry:
    def test_traced_batch_ships_item_and_attempt_spans(self):
        _warm_pool()
        plan = WorkerFaultPlan(flaky={1: frozenset({1})})
        reset_metrics()
        with trace(SpanName("pool_batch")) as tracer:
            outcomes, _ = parallel_map_ex(
                _square, [1, 2, 3], 2, fault_plan=plan, retries=1
            )
        assert [o.result for o in outcomes] == [1, 4, 9]
        items = [s for s in tracer.root.iter_spans() if s.name == "item"]
        attempts = [
            s for s in tracer.root.iter_spans() if s.name == "task_attempt"
        ]
        # The flaky fault fires before the item's traced body, so the
        # failed attempt ships no "item" span — the parent-side
        # "task_attempt" span is what accounts for it.
        assert len(items) == 3
        assert len(attempts) == 4
        assert sorted(s.attrs["index"] for s in items) == [0, 1, 2]
        outcomes_seen = sorted(s.attrs["outcome"] for s in attempts)
        assert outcomes_seen == ["ok", "ok", "ok", "transient_error"]
        reset_metrics()


class TestHeartbeat:
    def test_frozen_worker_is_killed_and_item_retried(
        self, tmp_path, monkeypatch
    ):
        # Only the heartbeat check can see this worker: it is alive, it
        # holds a task with no per-attempt timeout, and it never sends
        # another message.  Without the check the batch deadline
        # quarantines the item instead.  The timeout must outlast a
        # cold worker start, or the respawned worker is killed too.
        monkeypatch.setattr(pool_module, "HEARTBEAT_INTERVAL", 0.1)
        monkeypatch.setattr(pool_module, "HEARTBEAT_TIMEOUT", 4.0)
        pool = WorkerPool(max_workers=1)
        try:
            assert pool.map(_square, [3], jobs=1)[0].result == 9
            before = metrics_snapshot()
            with trace(SpanName("heartbeat")) as tracer:
                (outcome,) = pool.map(
                    _freeze_once,
                    [str(tmp_path / "frozen")],
                    jobs=1,
                    deadline=30.0,
                )
            assert outcome.ok, outcome.error
            assert outcome.result == "thawed"
            assert outcome.attempts == 2
            delta = counters_delta(before)["counters"]
            assert delta.get("pool.workers_respawned", 0) >= 1
            attempts = [
                s.attrs["outcome"]
                for s in tracer.root.iter_spans()
                if s.name == "task_attempt"
            ]
            assert attempts == ["crash", "ok"]
        finally:
            pool.shutdown()


class TestPoolLifecycle:
    def test_shutdown_from_another_thread_stops_a_running_map(self):
        # The running map notices the shutdown at its next poll (at most
        # 0.25 s away); the slack covers killing its two busy workers.
        pool = WorkerPool(max_workers=2)
        box = {}

        def run():
            try:
                pool.map(_overrun, [3600.0, 3600.0], jobs=2)
            except PoolUnusableError as exc:
                box["error"] = exc
            box["ended"] = time.monotonic()

        try:
            assert [o.result for o in pool.map(_square, [1, 2], jobs=2)] == [1, 4]
            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(1.0)  # both items are running
            stopped = time.monotonic()
            pool.shutdown()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert "shut down" in str(box["error"])
            assert box["ended"] - stopped < 1.0
            assert pool.worker_pids == []
        finally:
            pool.shutdown()

    def test_interrupt_in_the_poll_leaves_no_stale_result(self, monkeypatch):
        # Only the first wait is interrupted: Process.join waits too.
        pool = WorkerPool(max_workers=2)
        wait = pool_module.connection.wait
        interrupted = []

        def interrupt_once(*args, **kwargs):
            if not interrupted:
                interrupted.append(True)
                raise KeyboardInterrupt
            return wait(*args, **kwargs)

        try:
            assert [o.result for o in pool.map(_square, [1, 2], jobs=2)] == [1, 4]
            monkeypatch.setattr(pool_module.connection, "wait", interrupt_once)
            with pytest.raises(KeyboardInterrupt):
                pool.map(_square, [3, 4], jobs=2)
            # Both workers held a task when the interrupt hit: both are
            # gone, so 9 and 16 can never answer the next batch.
            assert pool.worker_pids == []
            outcomes = pool.map(_square, [5, 6, 7], jobs=2)
            assert [o.result for o in outcomes] == [25, 36, 49]
            assert all(o.attempts == 1 for o in outcomes)
        finally:
            pool.shutdown()

    def test_shutdown_then_map_raises_unusable(self):
        pool = WorkerPool(max_workers=1)
        pool.shutdown()
        with pytest.raises(PoolUnusableError, match="shut down"):
            pool.map(_square, [1], jobs=1)

    def test_backoff_delay_is_deterministic_and_capped(self):
        base, cap = pool_module.BACKOFF_BASE, pool_module.BACKOFF_CAP
        first = backoff_delay(1, index=3)
        assert first == backoff_delay(1, index=3)
        assert 0.5 * base <= first <= 1.5 * base  # jitter in [0.5, 1.5)
        huge = backoff_delay(30, index=3)
        assert huge <= cap * 1.5


class TestWorkerFaultPlanSpec:
    def test_from_spec_round_trip(self):
        plan = WorkerFaultPlan.from_spec(
            "kill@2x1,hang@5,flaky@0x1+2,slow@3:0.5"
        )
        assert plan.kill == {2: frozenset({1})}
        assert plan.hang == {5: None}
        assert plan.flaky == {0: frozenset({1, 2})}
        assert plan.slow == {3: 0.5}

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown chaos fault"):
            WorkerFaultPlan.from_spec("explode@1")
        with pytest.raises(ValueError, match="bad chaos entry"):
            WorkerFaultPlan.from_spec("kill")

    def test_flaky_raises_transient(self):
        plan = WorkerFaultPlan(flaky={4: None})
        with pytest.raises(TransientTaskError, match="item 4"):
            plan.apply(4, attempt=1)
        assert plan.apply(3, attempt=1) is None

    def test_attempt_filter(self):
        plan = WorkerFaultPlan(flaky={4: frozenset({1})})
        with pytest.raises(TransientTaskError):
            plan.apply(4, attempt=1)
        assert plan.apply(4, attempt=2) is None


@pytest.fixture(scope="module")
def trained_tiny_pipeline():
    from repro.core.config import FusionConfig
    from repro.core.pipeline import IRFusionPipeline
    from repro.train.trainer import TrainConfig

    config = FusionConfig(
        pixels=16,
        num_fake=2,
        num_real_train=1,
        num_real_test=2,
        base_channels=4,
        depth=2,
        train=TrainConfig(epochs=1, batch_size=4),
        augment=False,
        oversample_fake=1,
        oversample_real=1,
    )
    pipeline = IRFusionPipeline(config)
    pipeline.train()
    return pipeline


def _write_decks(pipeline, directory) -> list:
    """The pipeline's test designs as SPICE decks under *directory*."""
    from repro.spice.writer import write_spice

    _, test_designs = pipeline.generate_designs()
    paths = []
    for design in test_designs:
        paths.append(directory / f"{design.name}.sp")
        write_spice(design.netlist, paths[-1])
    return paths


class TestBatchAnalyzerChaos:
    def test_sixteen_item_batch_survives_kill_hang_flaky(
        self, trained_tiny_pipeline, monkeypatch, tmp_path
    ):
        # The ISSUE acceptance scenario: a 16-item BatchAnalyzer run
        # under worker SIGKILL, a hang past the task timeout, and a
        # flaky-once item.  The parent must never deadlock, every item
        # must end as a result, a captured error, or a QuarantineRecord,
        # and retried-transient items must still succeed.
        _warm_pool()
        pipeline = trained_tiny_pipeline
        decks = _write_decks(pipeline, tmp_path)
        paths = (decks * 8)[:16]
        assert len(paths) == 16
        monkeypatch.setenv("REPRO_CHAOS", "kill@3x1,hang@7,flaky@11x1")
        analyzer = BatchAnalyzer(pipeline, jobs=2, task_timeout=8.0, retries=1)
        report = analyzer.analyze_files(paths)
        assert len(report.items) == 16
        for position, item in enumerate(report.items):
            if position == 7:
                assert item.quarantined
                assert item.quarantine.reason == "timeout"
                assert item.quarantine.attempts == 2
            else:
                assert item.ok, f"item {position}: {item.error}"
        assert report.items[3].attempts == 2  # SIGKILL'd once, retried
        assert report.items[11].attempts == 2  # flaky once, retried
        assert report.num_quarantined == 1
        assert any("quarantined" in note for note in report.notes)
        assert any("retries" in note for note in report.notes)
        lines = report.summary_lines()
        assert any("quarantined[" in line for line in lines)

    def test_serial_and_pool_results_bitwise_identical(
        self, trained_tiny_pipeline
    ):
        # Fault-free batches must not depend on the execution substrate:
        # the in-process loop and the spawn pool run the same
        # deterministic computation on the same machine.
        pipeline = trained_tiny_pipeline
        _, test_designs = pipeline.generate_designs()
        serial, serial_degraded = parallel_map_ex(
            pipeline.analyze_design, test_designs, 1
        )
        pooled, pool_degraded = parallel_map_ex(
            pipeline.analyze_design, test_designs, 2
        )
        assert not serial_degraded and not pool_degraded
        for serial_out, pool_out in zip(serial, pooled):
            assert serial_out.ok and pool_out.ok
            np.testing.assert_array_equal(
                serial_out.result.predicted_drop, pool_out.result.predicted_drop
            )
            if serial_out.result.rough_drop is not None:
                np.testing.assert_array_equal(
                    serial_out.result.rough_drop, pool_out.result.rough_drop
                )


class TestSerialFallbackVisibility:
    def test_nested_worker_call_counts_serial_fallback(self, monkeypatch):
        from repro.core.pool import WORKER_ENV

        monkeypatch.setenv(WORKER_ENV, "1")
        before = metrics_snapshot()
        outcomes, degraded = parallel_map_ex(_square, [1, 2, 3], 2)
        assert degraded
        assert [o.result for o in outcomes] == [1, 4, 9]
        delta = counters_delta(before)["counters"]
        assert delta.get("batch.serial_fallbacks", 0) >= 1
        assert delta.get("batch.serial_fallbacks.nested_in_worker", 0) >= 1

    def test_batch_analyzer_notes_a_job_the_pool_cannot_ship(
        self, trained_tiny_pipeline, monkeypatch, tmp_path
    ):
        from repro.core import batch as batch_module

        pipeline = trained_tiny_pipeline
        decks = _write_decks(pipeline, tmp_path)
        analyzer = BatchAnalyzer(pipeline, jobs=2)

        def closure(path):  # unpicklable: runs in the parent instead
            return pipeline.analyze_file(path)

        monkeypatch.setattr(batch_module, "_PipelineTask", lambda _: closure)
        before = metrics_snapshot()
        report = analyzer.analyze_files(decks)
        assert report.degraded
        assert any("parallelism degraded" in note for note in report.notes)
        delta = counters_delta(before)["counters"]
        assert delta.get("batch.serial_fallbacks.pool_unusable", 0) == 1
        for path, item in zip(decks, report.items):
            assert item.ok
            assert any(
                "parallelism degraded" in warning
                for warning in item.result.diagnostics.warnings
            )
            np.testing.assert_array_equal(
                item.result.predicted_drop,
                pipeline.analyze_file(path).predicted_drop,
            )
