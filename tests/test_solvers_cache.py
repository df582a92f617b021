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

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            AMGSetupCache(max_entries=0)


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
