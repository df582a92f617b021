"""Cooperative deadlines on the monotonic clock.

A deadline is a *budget* handed down through the call stack: the worker
pool gives each task attempt ``deadline_scope(task_budget)``, the solver
cascade asks :func:`deadline_remaining` before starting an expensive
stage, and :class:`~repro.solvers.guard.IterationGuard` trips mid-solve
once the budget is gone.  Scopes nest and only ever *tighten* — an inner
scope can shorten the effective deadline but never extend past its
enclosing scope — so a caller's budget is a hard ceiling for everything
it calls.

Deadlines live here (not in :mod:`repro.core`) because they are pure
timing state: this package owns the monotonic clock, and the solver
layer can consult the budget without importing the execution runtime.

The state is thread-local: a pool worker's deadline never leaks into
another thread, and an untraced, un-budgeted call sees ``None``
(= unlimited) everywhere.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

from repro.obs.trace import monotonic

_LOCAL = threading.local()


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


@contextmanager
def deadline_scope(seconds: float):
    """Run the body under a deadline *seconds* from now.

    Nested scopes tighten: the effective deadline inside the body is the
    minimum of this scope's and every enclosing one's, so handing a
    callee a generous budget can never extend the caller's.  A NaN
    budget raises ``ValueError``: ``min`` would keep it and drop the
    enclosing deadline.  Zero and negative budgets are legal (already
    expired).
    """
    seconds = float(seconds)
    if math.isnan(seconds):
        raise ValueError("deadline budget must be a number, got nan")
    stack = _stack()
    at = monotonic() + seconds
    if stack:
        at = min(at, stack[-1])
    stack.append(at)
    try:
        yield
    finally:
        stack.pop()


def deadline_remaining() -> float | None:
    """Seconds left in the innermost active deadline, or ``None``.

    May be negative once the deadline has passed — callers that only
    care about expiry should test ``<= 0``.
    """
    stack = _stack()
    if not stack:
        return None
    return stack[-1] - monotonic()


def deadline_active() -> bool:
    """True when the calling thread is inside a :func:`deadline_scope`."""
    return bool(_stack())
