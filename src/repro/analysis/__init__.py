"""Project-wide correctness tooling.

Two pillars, both import-light and kernel-free:

- :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` — an
  AST-based lint engine enforcing project invariants (no runtime
  asserts, no unseeded RNG, no wall-clock reads, guarded divisions,
  locked writes to module state, import hygiene), runnable as
  ``python -m repro.analysis``;
- :mod:`repro.analysis.racecheck` — an opt-in runtime lock-order/race
  sanitizer (``REPRO_RACE_CHECK``) that wraps the project's locks and
  shared dicts to flag acquisition-order inversions and unlocked
  writes; the chaos-smoke CI job runs under it.
"""

from repro.analysis.engine import (
    AnalysisEngine,
    AnalysisReport,
    Finding,
    ModuleSource,
    Rule,
)
from repro.analysis.racecheck import (
    RaceError,
    RaceFinding,
    install_from_env as install_racecheck_from_env,
)

__all__ = [
    "AnalysisEngine",
    "AnalysisReport",
    "Finding",
    "ModuleSource",
    "RaceError",
    "RaceFinding",
    "Rule",
    "install_racecheck_from_env",
]
