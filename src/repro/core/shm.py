"""Inert: kept only for the frozen suite's ``BatchPool.teardown``; the
item-1 re-baseline deletes it.

Pool jobs and results travel as plain pickles through the worker pipes
(:mod:`repro.core.pool`), so no process creates a shared segment and
``ARENA.segments_active`` is always 0.  Nothing in :mod:`repro` imports
this module.
"""


class _Arena:
    segments_active = 0


ARENA = _Arena()
