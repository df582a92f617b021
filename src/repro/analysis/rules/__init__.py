"""Project-specific lint rules.

Each rule encodes one invariant the runtime introduced in earlier PRs,
checkable one file at a time:

=========================  ================================================
rule id                    invariant
=========================  ================================================
``runtime-assert``         no ``assert`` for runtime validation in library
                           code (stripped under ``python -O``)
``unseeded-rng``           no unseeded ``np.random`` use outside the shared
                           construction RNG in ``nn/init.py``
``wall-clock``             no ``time.time()``/``datetime.now()`` in
                           deterministic paths, and no raw monotonic
                           reads (``perf_counter``/``monotonic``) outside
                           ``repro.obs`` — the observability layer owns
                           the timing primitive
``unguarded-division``     no float division without an epsilon or
                           ``np.errstate`` guard in ``features/`` and
                           ``solvers/smoothers.py``
``unlocked-global-write``  no function rebinds a module global or mutates
                           a module-level container outside a
                           ``with <lock>:`` block
``dead-import``            no module-level import that is never used
``import-cycle``           no module-level import cycles inside ``repro``
=========================  ================================================
"""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.asserts import RuntimeAssertRule
from repro.analysis.rules.divisions import UnguardedDivisionRule
from repro.analysis.rules.globalwrite import UnlockedGlobalWriteRule
from repro.analysis.rules.imports import DeadImportRule, ImportCycleRule
from repro.analysis.rules.randomness import UnseededRngRule
from repro.analysis.rules.wallclock import WallClockRule


def default_rules() -> list[Rule]:
    """Every rule, in reporting order."""
    return [
        RuntimeAssertRule(),
        UnseededRngRule(),
        WallClockRule(),
        UnguardedDivisionRule(),
        UnlockedGlobalWriteRule(),
        DeadImportRule(),
        ImportCycleRule(),
    ]
