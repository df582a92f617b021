"""Tests for the runtime lock-order/race sanitizer.

These tests instrument *local* lock/dict instances with a private
:class:`_Recorder` rather than calling :func:`install` — the global
install wraps process-wide singletons (metrics registry, AMG setup
cache) and would leak strict-mode instrumentation into unrelated tests.
"""

import threading

import pytest

from repro.analysis.racecheck import (
    GuardedDict,
    GuardedOrderedDict,
    RaceError,
    TrackedLock,
    _Recorder,
    install_from_env,
)


@pytest.fixture()
def rec() -> _Recorder:
    return _Recorder(strict=False)


def _locks(rec, *labels):
    return tuple(
        TrackedLock(threading.Lock(), label, rec) for label in labels
    )


class TestLockOrder:
    def test_consistent_order_is_clean(self, rec):
        a, b = _locks(rec, "A", "B")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert rec.findings == []

    def test_inversion_recorded_with_both_stacks(self, rec):
        a, b = _locks(rec, "A", "B")
        with a:
            with b:
                pass
        with b:
            with a:  # opposite order: inversion
                pass
        assert len(rec.findings) == 1
        finding = rec.findings[0]
        assert finding.kind == "lock-inversion"
        assert "'A' acquired while holding 'B'" in finding.detail
        assert "opposite order was recorded at" in finding.detail

    def test_strict_mode_raises_at_the_site(self):
        rec = _Recorder(strict=True)
        a, b = _locks(rec, "A", "B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(RaceError, match="lock-inversion"):
                a.acquire()

    def test_reacquiring_same_label_is_not_an_inversion(self, rec):
        (a,) = _locks(rec, "A")
        other = TrackedLock(threading.Lock(), "A", rec)
        with a:
            with other:  # same label: rlock-style pattern, no edge
                pass
        assert rec.findings == []

    def test_release_pops_held_stack(self, rec):
        a, b = _locks(rec, "A", "B")
        with a:
            pass
        with b:
            assert rec.holds("B")
            assert not rec.holds("A")  # released; no edge B->A implied
            with a:
                pass
        # only A->? edges: (B, A) from the nested acquire
        assert ("A", "B") not in rec.edges
        assert ("B", "A") in rec.edges
        assert rec.findings == []

    def test_locked_surface_passthrough(self, rec):
        (a,) = _locks(rec, "A")
        assert a.locked() is False
        with a:
            assert a.locked() is True
        assert a.label == "A"

    def test_lock_factory_makes_tracked_locks_for_later_instances(
        self, rec, monkeypatch
    ):
        # How per-instance locks (one per inference plan) join order
        # tracking: install() wraps the factory, not a lock.
        from types import SimpleNamespace

        from repro.analysis import racecheck

        owner = SimpleNamespace(new_lock=threading.Lock)
        racecheck.wrap_lock_factory(owner, "new_lock", "L")
        assert owner.new_lock is threading.Lock  # dormant: untouched
        monkeypatch.setattr(racecheck, "_RECORDER", rec)
        racecheck.wrap_lock_factory(owner, "new_lock", "L")
        wrapped = owner.new_lock
        racecheck.wrap_lock_factory(owner, "new_lock", "L")
        assert owner.new_lock is wrapped  # idempotent
        first, second = owner.new_lock(), owner.new_lock()
        assert isinstance(first, TrackedLock) and first.label == "L"
        assert first._inner is not second._inner
        (other,) = _locks(rec, "M")
        with first:
            with other:
                pass
        assert ("L", "M") in rec.edges


class TestGuardedDicts:
    def test_unlocked_write_recorded(self, rec):
        d = GuardedDict({}, "guard", "shared.d", rec)
        d["k"] = 1
        assert len(rec.findings) == 1
        finding = rec.findings[0]
        assert finding.kind == "unlocked-write"
        assert "__setitem__('k')" in finding.detail
        assert "shared.d" in finding.detail
        assert d["k"] == 1  # the write itself still lands

    def test_write_under_guard_is_clean(self, rec):
        (guard,) = _locks(rec, "guard")
        d = GuardedDict({}, "guard", "shared.d", rec)
        with guard:
            d["k"] = 1
            d.update(other=2)
            d.setdefault("third", 3)
            del d["other"]
            d.pop("third")
        assert rec.findings == []

    def test_every_mutating_op_is_checked(self, rec):
        d = GuardedDict({"a": 1, "b": 2}, "guard", "d", rec)
        d.update(c=3)
        d.setdefault("e", 5)
        d.pop("a")
        d.popitem()
        del d["b"]
        d.clear()
        ops = [f.detail.split("(")[0] for f in rec.findings]
        assert ops == [
            "update", "setdefault", "pop", "popitem",
            "__delitem__", "clear",
        ]

    def test_reads_are_never_checked(self, rec):
        (guard,) = _locks(rec, "guard")
        with guard:
            d = GuardedDict({"a": 1}, "guard", "d", rec)
        assert d.get("a") == 1
        assert "a" in d
        assert list(d.items()) == [("a", 1)]
        assert rec.findings == []

    def test_ordered_dict_bootstrap_is_silent(self, rec):
        # OrderedDict.__init__ feeds the seed data through __setitem__
        # before the guard attributes exist; that must not crash or emit
        od = GuardedOrderedDict({"a": 1, "b": 2}, "guard", "od", rec)
        assert rec.findings == []
        od.move_to_end("a")
        assert [f.kind for f in rec.findings] == ["unlocked-write"]
        assert "move_to_end('a')" in rec.findings[0].detail
        assert list(od) == ["b", "a"]

    def test_ordered_dict_under_guard_is_clean(self, rec):
        (guard,) = _locks(rec, "guard")
        od = GuardedOrderedDict({"a": 1}, "guard", "od", rec)
        with guard:
            od["b"] = 2
            od.move_to_end("a")
            od.popitem(last=False)
        assert rec.findings == []

    def test_strict_mode_raises_on_unlocked_write(self):
        rec = _Recorder(strict=True)
        d = GuardedDict({}, "guard", "d", rec)
        with pytest.raises(RaceError, match="unlocked-write"):
            d["k"] = 1


class TestThreads:
    def test_held_stacks_are_thread_local(self, rec):
        a, b = _locks(rec, "A", "B")
        seen_in_thread = []

        def other():
            seen_in_thread.append(rec.holds("A"))
            with b:
                pass

        with a:
            t = threading.Thread(target=other)
            t.start()
            t.join()
        # the other thread never held A, so no A->B edge exists
        assert seen_in_thread == [False]
        assert ("A", "B") not in rec.edges
        assert rec.findings == []


class TestInstallFromEnv:
    @pytest.mark.parametrize("value", ["", "0", "off", "false", "OFF"])
    def test_dormant_values_do_not_install(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_RACE_CHECK", value)
        assert install_from_env() is None

    def test_unset_is_dormant(self, monkeypatch):
        monkeypatch.delenv("REPRO_RACE_CHECK", raising=False)
        assert install_from_env() is None
