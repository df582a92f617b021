"""Project-wide correctness tooling.

Four pillars, all import-light and kernel-free:

- :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` — an
  AST-based lint engine enforcing project invariants (no runtime
  asserts, no unseeded RNG, no wall-clock reads, guarded divisions,
  locked writes to module state, the metrics/span name contract,
  import hygiene), runnable as
  ``python -m repro.analysis``;
- :mod:`repro.analysis.shapes` — a symbolic shape/dtype verifier that
  propagates ``(N, C, H, W)`` specs through module graphs without
  executing kernels, validating every registered architecture and the
  feature-stack channel contract;
- :mod:`repro.analysis.sanitizer` — an opt-in runtime numerics
  sanitizer that traps NaN/Inf/denormal/overflow at the originating op
  (``FusionConfig.sanitize`` / ``--sanitize``);
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
from repro.analysis.sanitizer import (
    NumericsFinding,
    NumericsTrap,
    SanitizerSession,
    check_array,
)
from repro.analysis.shapes import (
    ShapeError,
    ShapeReport,
    ShapeVerifier,
    TensorSpec,
    verify_feature_contract,
    verify_model,
    verify_registry,
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
    "NumericsFinding",
    "NumericsTrap",
    "SanitizerSession",
    "check_array",
    "ShapeError",
    "ShapeReport",
    "ShapeVerifier",
    "TensorSpec",
    "verify_feature_contract",
    "verify_model",
    "verify_registry",
]
