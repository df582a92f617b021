"""Tests for the shared-memory data plane (:mod:`repro.core.shm`)."""

import gc
import os
import pickle
import signal
import sys
import threading

import numpy as np
import pytest

from repro.core import shm
from repro.core.batch import parallel_map_ex
from repro.core.pool import PoolUnusableError, get_pool
from repro.obs import metrics_snapshot
from repro.testing.faults import WorkerFaultPlan

pytestmark = pytest.mark.skipif(
    not shm.available(), reason="no writable /dev/shm on this host"
)


def _leftover_segments() -> list[str]:
    """Segments in /dev/shm belonging to this process's arena."""
    prefix = shm.ARENA.token + "_"
    return [f for f in os.listdir(shm.SHM_DIR) if f.startswith(prefix)]


def _counter(name: str) -> int:
    return metrics_snapshot()["counters"].get(name, 0)


class TestShmArray:
    def test_roundtrip_is_bitwise_and_read_only(self):
        with shm.ARENA.scope("t_rt") as scope:
            source = np.arange(24, dtype=np.float64).reshape(4, 6) * np.pi
            desc = scope.share(source)
            view = desc.resolve()
            assert np.array_equal(view, source)
            assert view.dtype == source.dtype
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 1.0

    def test_fortran_order_and_exotic_dtypes_survive(self):
        with shm.ARENA.scope("t_ord") as scope:
            fortran = np.asfortranarray(
                np.arange(12, dtype=np.float32).reshape(3, 4)
            )
            view = scope.share(fortran).resolve()
            assert view.flags.f_contiguous
            assert np.array_equal(view, fortran)
            for dtype in (np.int32, np.complex128, np.bool_):
                data = np.ones((5, 5), dtype=dtype)
                got = scope.share(data).resolve()
                assert got.dtype == data.dtype
                assert np.array_equal(got, data)

    def test_descriptor_pickles_small(self):
        with shm.ARENA.scope("t_desc") as scope:
            desc = scope.share(np.zeros((128, 128)))
            assert len(pickle.dumps(desc)) < 300

    def test_views_survive_release(self):
        # POSIX keeps pages alive while mapped: unlink-early is safe.
        source = np.random.default_rng(3).standard_normal(512)
        with shm.ARENA.scope("t_life") as scope:
            view = scope.share(source).resolve()
        assert not _leftover_segments()
        assert np.array_equal(view, source)


class TestDumpsLoads:
    def test_externalizes_above_threshold_only(self):
        with shm.ARENA.scope("t_dump") as scope:
            payload = {
                "big": np.zeros((128, 64)),
                "small": np.arange(4, dtype=np.float64),
                "other": "text",
            }
            assert payload["big"].nbytes == shm.THRESHOLD
            blob = shm.dumps(payload, writer=scope.share)
            assert len(blob) < 1024  # the 64 KiB array became a descriptor
            restored = shm.loads(blob)
            assert np.array_equal(restored["big"], payload["big"])
            assert np.array_equal(restored["small"], payload["small"])
            assert not restored["big"].flags.writeable
            assert restored["small"].flags.writeable  # stayed inline

    def test_no_writer_means_plain_pickle(self):
        blob = shm.dumps({"x": np.zeros(9000)})
        assert np.array_equal(pickle.loads(blob)["x"], np.zeros(9000))

    def test_aliasing_within_payload_is_preserved_inline(self):
        arr = np.zeros(8)
        blob = shm.dumps([arr, arr])
        a, b = shm.loads(blob)
        assert a is b


class TestArena:
    def test_gauge_tracks_active_segments(self):
        with shm.ARENA.scope("t_gauge") as scope:
            scope.share(np.ones(64))
            assert (
                metrics_snapshot()["gauges"]["shm.segments_active"]
                == shm.ARENA.segments_active
            )

    def test_sweep_orphans_removes_unregistered_segments(self):
        swept = _counter("shm.segments_swept")
        with shm.ARENA.scope("t_orph") as scope:
            # Simulate a crashed worker's leftover: a scope-named
            # segment the scope never came to own.
            orphan = f"{scope.name}_w99t1k0"
            shm.write_segment(orphan, np.zeros(256))
            assert orphan in os.listdir(shm.SHM_DIR)
        assert orphan not in os.listdir(shm.SHM_DIR)
        assert _counter("shm.segments_swept") == swept + 1

    def test_scope_names_never_collide(self):
        with shm.ARENA.scope("same") as a, shm.ARENA.scope("same") as b:
            assert a.name != b.name
            kept = b.share(np.ones(8))
            a.close()  # must not touch b's segment
            assert np.array_equal(kept.resolve(), np.ones(8))


class TestShmScope:
    def test_exception_inside_with_releases_everything(self):
        before = shm.ARENA.segments_active
        with pytest.raises(KeyError):
            with shm.ARENA.scope("t_exc") as scope:
                scope.share(np.ones(100))
                scope.share(np.zeros(100))
                assert shm.ARENA.segments_active == before + 2
                assert len(_leftover_segments()) == 2
                raise KeyError("boom")
        assert shm.ARENA.segments_active == before
        assert not _leftover_segments()

    def test_dropped_scope_is_reclaimed_and_counted_as_leaked(self, capsys):
        before = shm.ARENA.segments_active
        leaked = _counter("shm.segments_leaked")
        scope = shm.ARENA.scope("t_drop")
        scope.share(np.ones(100))
        scope.share(np.zeros(4))
        assert len(_leftover_segments()) == 2
        del scope
        gc.collect()
        assert not _leftover_segments()
        assert shm.ARENA.segments_active == before
        assert _counter("shm.segments_leaked") == leaked + 2
        assert "dropped unclosed" in capsys.readouterr().err

    def test_closed_scope_is_not_counted_as_leaked(self):
        leaked = _counter("shm.segments_leaked")
        scope = shm.ARENA.scope("t_closed")
        scope.share(np.ones(100))
        scope.close()
        scope.close()  # idempotent
        del scope
        gc.collect()
        assert _counter("shm.segments_leaked") == leaked

    def test_resolve_after_close_raises(self):
        with shm.ARENA.scope("t_gone") as scope:
            desc = scope.share(np.ones(100))
            desc.resolve()  # cached mapping must not outlive the scope
        with pytest.raises(FileNotFoundError):
            desc.resolve()

    def test_closed_scope_owns_nothing(self):
        before = shm.ARENA.segments_active
        with shm.ARENA.scope("t_late") as scope:
            pass
        with pytest.raises(RuntimeError, match="closed"):
            scope.share(np.ones(100))
        # a late worker result: adopted into a closed scope = reclaimed
        late = shm.write_segment(f"{scope.name}_w1t1k0", np.ones(100))
        with pytest.raises(RuntimeError, match="closed"):
            scope.adopt(late)
        assert shm.ARENA.segments_active == before
        assert not _leftover_segments()

    def test_concurrent_scopes_stay_disjoint(self):
        # More threads than cores, each cycling its own scopes: a close
        # must reclaim exactly its own segments, never a sibling's.
        before = shm.ARENA.segments_active
        errors: list[BaseException] = []

        def cycle(seed: int) -> None:
            try:
                for round_ in range(25):
                    with shm.ARENA.scope("t_stress") as scope:
                        value = float(seed * 100 + round_)
                        desc = scope.share(np.full(64, value))
                        scope.share(np.zeros(8))
                        assert np.array_equal(
                            desc.resolve(), np.full(64, value)
                        )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=cycle, args=(k,)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert shm.ARENA.segments_active == before
        assert not _leftover_segments()

    def test_write_through_read_only_view_raises(self):
        with shm.ARENA.scope("t_ro") as scope:
            block = scope.share(np.zeros(4))
            with pytest.raises(ValueError):
                block.resolve()[0] = 1.0
            assert block.resolve()[0] == 0.0


def _double_arrays(item):
    name, array = item
    return name, array * 2.0, np.zeros((32, 32)) + len(name)


class _DiesWhenPickled:
    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


def _big_result_then_die(item):
    # The tuple pickles in order: the array is externalized into a
    # worker-created segment, then the worker dies before handing over.
    return np.full((128, 64), float(item)), _DiesWhenPickled()


class TestPoolTransport:
    """Items are (128, 64) float64 arrays: 64 KiB, exactly the threshold,
    so they and the doubled result arrays ride shared memory."""

    def test_spawn_results_bitwise_identical_to_inline(self, monkeypatch):
        items = [
            (f"item{k}", np.random.default_rng(k).standard_normal((128, 64)))
            for k in range(4)
        ]
        serial_out, _ = parallel_map_ex(_double_arrays, items, 1)
        shared, adopted = _counter("shm.bytes_shared"), _counter(
            "shm.bytes_adopted"
        )
        shm_out, degraded = parallel_map_ex(_double_arrays, items, 2)
        assert not degraded
        assert _counter("shm.bytes_shared") > shared
        assert _counter("shm.bytes_adopted") > adopted
        # A parent without /dev/shm ships the same job inline.
        monkeypatch.setattr(shm, "available", lambda: False)
        shared, adopted = _counter("shm.bytes_shared"), _counter(
            "shm.bytes_adopted"
        )
        inline_out, degraded = parallel_map_ex(_double_arrays, items, 2)
        assert not degraded
        assert _counter("shm.bytes_shared") == shared
        assert _counter("shm.bytes_adopted") == adopted
        for outs in (shm_out, inline_out):
            assert all(o.ok for o in outs)
            for got, want in zip(outs, serial_out):
                assert got.result[0] == want.result[0]
                assert np.array_equal(got.result[1], want.result[1])
                assert np.array_equal(got.result[2], want.result[2])
        assert not _leftover_segments()

    def test_result_views_are_read_only(self):
        # Two items: one alone would run serially in this process.
        items = [("ro", np.ones((128, 64))), ("ro2", np.ones((128, 64)))]
        outcomes, degraded = parallel_map_ex(_double_arrays, items, 2)
        assert not degraded and all(o.ok for o in outcomes)
        result_array = outcomes[0].result[1]
        assert result_array.nbytes >= shm.THRESHOLD
        assert result_array.flags.writeable is False
        with pytest.raises(ValueError):
            result_array[0, 0] = 0.0
        with pytest.raises(ValueError):
            result_array *= 2.0
        assert np.array_equal(result_array, np.full((128, 64), 2.0))

    def test_chaos_kill_while_holding_segments_reclaims_all(self):
        """Satellite: SIGKILL with attached segments must not leak.

        The fault fires inside the task, after the worker has attached
        the item's shared segments — the crashed process can never
        detach them itself.  The retry must succeed, the parent must
        drop every job ref, and /dev/shm must end clean.
        """
        plan = WorkerFaultPlan.from_spec("kill@1x1")
        items = [
            (f"chaos{k}", np.full((128, 64), float(k))) for k in range(4)
        ]
        before_active = shm.ARENA.segments_active
        outcomes, _ = parallel_map_ex(
            _double_arrays, items, 2, fault_plan=plan, retries=2
        )
        assert all(o.ok for o in outcomes)
        assert outcomes[1].attempts >= 2  # the kill really fired
        for k, outcome in enumerate(outcomes):
            assert np.array_equal(
                outcome.result[1], np.full((128, 64), float(k)) * 2.0
            )
        assert shm.ARENA.segments_active == before_active
        assert metrics_snapshot()["gauges"]["shm.segments_active"] == 0
        assert not _leftover_segments()

    def test_chaos_kill_to_quarantine_reclaims_all(self):
        plan = WorkerFaultPlan.from_spec("kill@0")  # every attempt
        items = [
            (f"quar{k}", np.full((128, 64), float(k))) for k in range(3)
        ]
        before_active = shm.ARENA.segments_active
        outcomes, _ = parallel_map_ex(
            _double_arrays, items, 2, fault_plan=plan, retries=1
        )
        assert outcomes[0].quarantine is not None
        assert all(o.ok for o in outcomes[1:])
        assert shm.ARENA.segments_active == before_active
        assert not _leftover_segments()

    def test_unpicklable_payload_releases_the_job_scope(self):
        before_active = shm.ARENA.segments_active
        shared = _counter("shm.bytes_shared")
        items = [np.ones((128, 64)), lambda: None]  # 2nd item cannot ship
        with pytest.raises(PoolUnusableError, match="not picklable"):
            get_pool(2).map(_double_arrays, items)
        # the first item really was externalized before the failure
        assert _counter("shm.bytes_shared") > shared
        assert shm.ARENA.segments_active == before_active
        assert not _leftover_segments()

    def test_worker_killed_mid_result_leaves_no_orphan(self):
        before_active = shm.ARENA.segments_active
        swept = _counter("shm.segments_swept")
        outcomes = get_pool(2).map(
            _big_result_then_die, [1, 2], jobs=2, retries=0
        )
        assert all(o.quarantine is not None for o in outcomes)
        # each worker wrote its result segment, then died holding it
        assert _counter("shm.segments_swept") >= swept + 2
        assert shm.ARENA.segments_active == before_active
        assert not _leftover_segments()
