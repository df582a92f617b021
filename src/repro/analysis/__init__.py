"""Project-wide correctness tooling.

:mod:`repro.analysis.racecheck` — an opt-in runtime lock-order/race
sanitizer (``REPRO_RACE_CHECK``) that wraps the project's locks and
shared dicts to flag acquisition-order inversions and unlocked writes;
the chaos-smoke CI job runs under it.  The invariants a lint pass used
to check are held by tests, float traps and read-only tables instead
(docs/static_analysis.md maps each one to what holds it).
"""

from repro.analysis.racecheck import (
    RaceError,
    RaceFinding,
    install_from_env as install_racecheck_from_env,
)

__all__ = [
    "RaceError",
    "RaceFinding",
    "install_racecheck_from_env",
]
