"""Tests for the AMG setup cache (fingerprinting, LRU, diagnostics)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers.amg import AMGOptions
from repro.solvers.amg_pcg import AMGPCGSolver
from repro.solvers.base import SolverOptions
from repro.solvers.cache import (
    AMGSetupCache,
    CacheStats,
    clear_setup_cache,
    configure_setup_cache,
    global_setup_cache,
    matrix_fingerprint,
    setup_cache_stats,
)


def laplacian(n: int, shift: float = 0.0) -> sp.csr_matrix:
    main = np.full(n, 2.0 + shift)
    off = np.full(n - 1, -1.0)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_setup_cache()
    yield
    clear_setup_cache()


class TestFingerprint:
    def test_stable_across_copies(self):
        a = laplacian(32)
        assert matrix_fingerprint(a) == matrix_fingerprint(a.copy())

    def test_sensitive_to_values(self):
        assert matrix_fingerprint(laplacian(32)) != matrix_fingerprint(
            laplacian(32, shift=1e-12)
        )

    def test_sensitive_to_structure(self):
        a = laplacian(32)
        b = a.tolil()
        b[0, 5] = -0.5
        b = sp.csr_matrix(b)
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_sensitive_to_shape(self):
        assert matrix_fingerprint(laplacian(32)) != matrix_fingerprint(
            laplacian(33)
        )


class TestLRU:
    def test_eviction_order(self):
        cache = AMGSetupCache(max_entries=2)
        options = AMGOptions()
        a, b, c = laplacian(8), laplacian(9), laplacian(10)
        _, hit_a = cache.get_or_build(a, options)
        _, hit_b = cache.get_or_build(b, options)
        _, hit_a2 = cache.get_or_build(a, options)  # refresh a
        _, hit_c = cache.get_or_build(c, options)  # evicts b (LRU)
        _, hit_b2 = cache.get_or_build(b, options)
        assert (hit_a, hit_b, hit_a2, hit_c, hit_b2) == (
            False, False, True, False, False,
        )
        assert cache.stats.evictions >= 1
        assert len(cache) == 2

    def test_hit_returns_same_object(self):
        cache = AMGSetupCache(max_entries=2)
        options = AMGOptions()
        a = laplacian(8)
        first, hit1 = cache.get_or_build(a, options)
        second, hit2 = cache.get_or_build(a.copy(), options)
        assert not hit1 and hit2
        assert second is first

    def test_distinct_options_are_distinct_entries(self):
        cache = AMGSetupCache(max_entries=4)
        a = laplacian(16)
        cache.get_or_build(a, AMGOptions())
        _, hit = cache.get_or_build(a, AMGOptions(max_levels=2))
        assert not hit
        assert len(cache) == 2


class TestResize:
    def test_shrink_evicts_oldest_first(self):
        cache = AMGSetupCache(max_entries=4)
        options = AMGOptions()
        mats = [laplacian(8 + k) for k in range(4)]
        for matrix in mats:
            cache.get_or_build(matrix, options)
        cache.get_or_build(mats[0], options)  # refresh 0 -> LRU order 1,2,3,0
        cache.resize(2)
        assert cache.max_entries == 2
        assert len(cache) == 2
        _, hit_recent = cache.get_or_build(mats[3], options)
        _, hit_refreshed = cache.get_or_build(mats[0], options)
        assert hit_recent and hit_refreshed
        _, hit_evicted = cache.get_or_build(mats[1], options)
        assert not hit_evicted

    def test_grow_keeps_entries(self):
        cache = AMGSetupCache(max_entries=2)
        options = AMGOptions()
        for matrix in (laplacian(8), laplacian(9)):
            cache.get_or_build(matrix, options)
        cache.resize(8)
        assert len(cache) == 2
        _, hit = cache.get_or_build(laplacian(8), options)
        assert hit

    def test_rejects_bad_capacity(self):
        cache = AMGSetupCache(max_entries=2)
        with pytest.raises(ValueError, match="max_entries"):
            cache.resize(0)

    def test_configure_resizes_global_cache(self):
        # Regression: configure_setup_cache used to write max_entries and
        # run its eviction loop outside the cache lock, racing any
        # concurrent get_or_build.  It now delegates to resize(), which
        # does both under the lock.
        previous = global_setup_cache().max_entries
        try:
            configure_setup_cache(3)
            assert global_setup_cache().max_entries == 3
        finally:
            configure_setup_cache(previous)

    def test_resize_races_with_get_or_build(self):
        import threading

        cache = AMGSetupCache(max_entries=8)
        options = AMGOptions()
        mats = [laplacian(8 + k) for k in range(6)]
        stop = threading.Event()

        def hammer():
            index = 0
            while not stop.is_set():
                cache.get_or_build(mats[index % len(mats)], options)
                index += 1

        worker = threading.Thread(target=hammer)
        worker.start()
        try:
            for _ in range(25):
                cache.resize(1)
                cache.resize(8)
        finally:
            stop.set()
            worker.join()
        cache.resize(2)
        assert len(cache) <= 2


class TestStats:
    def test_delta(self):
        before = CacheStats(hits=3, misses=2, evictions=1, entries=2)
        after = CacheStats(hits=5, misses=2, evictions=1, entries=2)
        delta = after.delta(before)
        assert delta.hits == 2 and delta.misses == 0
        assert delta.entries == 2  # entries is a level, not a counter

    def test_to_dict_keys(self):
        d = CacheStats().to_dict()
        assert set(d) >= {"hits", "misses", "evictions", "entries"}


class TestSolverIntegration:
    def test_second_solve_hits_and_matches_bitwise(self):
        matrix = laplacian(64)
        rhs = np.linspace(0.1, 1.0, 64)

        cold = AMGPCGSolver(SolverOptions(max_iterations=50))
        x_cold = cold.solve(matrix, rhs).x
        assert not cold.last_setup_was_cache_hit

        warm = AMGPCGSolver(SolverOptions(max_iterations=50))
        x_warm = warm.solve(matrix.copy(), rhs).x
        assert warm.last_setup_was_cache_hit
        np.testing.assert_array_equal(x_cold, x_warm)

    def test_diagnostics_carry_cache_counters(self, fake_design):
        from repro.solvers.powerrush import PowerRushSimulator

        simulator = PowerRushSimulator(max_iterations=2, preset="fast")
        first = simulator.simulate_grid(
            fake_design.grid, supply_voltage=fake_design.spec.supply_voltage
        )
        second = simulator.simulate_grid(
            fake_design.grid, supply_voltage=fake_design.spec.supply_voltage
        )
        assert first.diagnostics.solver_cache is not None
        assert second.diagnostics.solver_cache.hits >= 1
        assert any(
            "amg_setup_cache" in line
            for line in second.diagnostics.summary_lines()
        )
