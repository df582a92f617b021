"""Reference seconds: wall time scaled by a fixed kernel timed beside it.

One reference second is the time in which the box the baseline was
recorded on, when quiet, runs ``1 / REFERENCE_KERNEL_S`` calibration
kernels.  The kernel is numpy only — dense products plus a gather over
16 MB — so no change to the program moves it, while a slow spell of the
host moves it and the measured code alike, as long as both run on the
same thread.  Each core drifts on its own (a kernel timed in a second
process tracks nothing), and a kernel timed by a caller beside a busy
executor thread measures their contention, not the host: on
``serve_closed`` that made the median latency read 0.28 s in one set of
ten runs and 0.15 s in the next.  So only single-caller code is scaled.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

#: Seconds the kernel takes on the baseline box (2-core Xeon 2.1 GHz), timed
#: between ops inside a run (a bare loop of kernels is about a fifth faster).
REFERENCE_KERNEL_S = 0.0040


class Calibrator:
    """Times the kernel; turns a wall time into reference seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._dense = rng.standard_normal((192, 192))
        self._big = rng.standard_normal(1 << 21)
        self._index = rng.integers(0, 1 << 21, size=1 << 16)
        # Outputs are preallocated: the kernel must not touch the
        # allocator, whose speed depends on what the program did before.
        self._product = np.empty_like(self._dense)
        self._taken = np.empty(self._index.shape)
        self.seconds()  # first touch

    def seconds(self) -> float:
        # One untimed pass first: what the measured code left in the caches
        # must not decide how fast the kernel looks.
        np.matmul(self._dense, self._dense, out=self._product)
        np.take(self._big, self._index, out=self._taken)
        start = time.perf_counter()
        for _ in range(6):
            np.matmul(self._dense, self._dense, out=self._product)
        for _ in range(4):
            np.take(self._big, self._index, out=self._taken)
        return time.perf_counter() - start

    def scale(self, before: float) -> float:
        """Factor for a wall time that began right after the kernel sample
        *before*; takes the closing sample itself."""
        return REFERENCE_KERNEL_S / ((before + self.seconds()) / 2.0)

    @contextmanager
    def stopwatch(self, sink: dict, name: str):
        """Store the body's duration, in reference seconds, as ``sink[name]``."""
        before = self.seconds()
        start = time.perf_counter()
        yield
        sink[name] = (time.perf_counter() - start) * self.scale(before)
