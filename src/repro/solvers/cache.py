"""Process-wide AMG setup cache.

The AMG setup stage (pairwise aggregation, Galerkin products, coarse LU)
dominates the cost of a *rough* solve: the fusion framework runs only 1-10
PCG iterations, so rebuilding the hierarchy for every call to
``analyze_design`` throws away most of the paper's claimed speedup.  Many
workloads solve the **same conductance matrix** repeatedly — curriculum
epochs over a fixed design suite, Fig. 7 iteration sweeps, the batch
engine — and for all of them the hierarchy is a pure
function of ``(matrix, AMGOptions)``.

This module keys hierarchies by a *content fingerprint* of the matrix
(shape + CSR structure + values, hashed with BLAKE2b) plus the frozen
:class:`~repro.solvers.amg.AMGOptions`.  A grid's memoised stamp carries
its fingerprint, hashed once per grid state; any other matrix is hashed
on each lookup.  A cache hit returns the exact
hierarchy object built before, so the preconditioner — and therefore the
PCG iterate stream — is **bitwise identical** to an uncached run.

The cache is process-global (each spawned pool worker starts with an
empty one and populates its own), LRU-bounded, and thread-safe.  Hit/miss
counters are exposed so :class:`~repro.diagnostics.RunDiagnostics` can
report per-run cache behaviour.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import scipy.sparse as sp

from repro.obs import Span, counter_add
from repro.obs.registry import (
    AMG_SETUP_CACHE_EVICTIONS,
    AMG_SETUP_CACHE_HITS,
    AMG_SETUP_CACHE_MISSES,
)
from repro.solvers.amg import AMGHierarchy, AMGOptions, build_hierarchy


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of the cache counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counter movement since an *earlier* snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            entries=self.entries,
        )

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
        }


def matrix_fingerprint(matrix: sp.spmatrix) -> str:
    """Content hash of a sparse matrix: shape, CSR structure and values.

    Two matrices share a fingerprint iff their canonical CSR forms are
    bitwise identical, which is exactly the condition under which an AMG
    hierarchy may be reused without changing any downstream arithmetic.
    """
    csr = matrix.tocsr()
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(csr.shape).encode())
    digest.update(csr.indptr.tobytes())
    digest.update(csr.indices.tobytes())
    digest.update(csr.data.tobytes())
    return digest.hexdigest()


class AMGSetupCache:
    """LRU cache of AMG hierarchies keyed by (matrix fingerprint, options)."""

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple[str, AMGOptions], AMGHierarchy] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- core API ------------------------------------------------------------

    def get_or_build(
        self,
        matrix: sp.spmatrix,
        options: AMGOptions,
        setup_span: Span | None = None,
        fingerprint: str | None = None,
    ) -> tuple[AMGHierarchy, bool]:
        """The hierarchy for *matrix* under *options*; builds on first use.

        Returns ``(hierarchy, hit)``.  The build itself runs outside the
        lock so concurrent threads are not serialised on setup; a racing
        duplicate build is resolved first-writer-wins.

        *fingerprint* is ``matrix_fingerprint(matrix)`` when the caller
        already holds it (a memoised, read-only stamp); without one the
        matrix is hashed here.

        A lookup that evicts entries records how many as the
        ``cache_evictions`` attr of *setup_span* (the caller's
        ``amg_setup`` span), so a trace carries its own cache movement.
        """
        if fingerprint is None:
            fingerprint = matrix_fingerprint(matrix)
        key = (fingerprint, options)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                counter_add(AMG_SETUP_CACHE_HITS)
                return cached, True
            self._misses += 1
        counter_add(AMG_SETUP_CACHE_MISSES)
        hierarchy = build_hierarchy(matrix, options)
        with self._lock:
            winner = self._entries.setdefault(key, hierarchy)
            self._entries.move_to_end(key)
            evicted = self._evict()
        if evicted and setup_span is not None:
            setup_span.attrs["cache_evictions"] = evicted
        return winner, False

    def _evict(self) -> int:
        """Drop LRU entries down to the capacity (lock held); the count."""
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1
            evicted += 1
            counter_add(AMG_SETUP_CACHE_EVICTIONS)
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide cache every AMG-PCG solver consults.
_GLOBAL_CACHE = AMGSetupCache()


def global_setup_cache() -> AMGSetupCache:
    return _GLOBAL_CACHE


def setup_cache_stats() -> CacheStats:
    """Snapshot of the global cache counters."""
    return _GLOBAL_CACHE.stats


def clear_setup_cache() -> None:
    """Drop all cached hierarchies (counters are kept)."""
    _GLOBAL_CACHE.clear()
