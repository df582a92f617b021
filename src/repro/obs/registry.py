"""Every counter, gauge and span name in the project, declared once.

An emit site never spells a name: it imports the declared handle by
name at module level and passes it to the emit API —

    from repro.obs.registry import AMG_SETUP, PCG_ITERATIONS

    with span(AMG_SETUP):
        ...
    counter_add(PCG_ITERATIONS, result.iterations)

A misspelt handle is an ``ImportError`` the moment its module loads
(tier-1 imports every module), and :func:`~repro.obs.counter_add`,
:func:`~repro.obs.gauge_set`, :func:`~repro.obs.span` and
:func:`~repro.obs.trace` raise ``TypeError`` for anything but a handle
of their kind, so a trace can only contain names declared here.  Each
handle is named after its string: upper case, dots become underscores.
docs/observability.md lists them all (tier-1 checks the two agree).
"""

from __future__ import annotations


class _Handle:
    """A declared telemetry name; the emitted string is :attr:`name`."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Counter(_Handle):
    """A process-wide counter (:func:`repro.obs.counter_add`)."""


class Gauge(_Handle):
    """A process-wide gauge (:func:`repro.obs.gauge_set`)."""


class SpanName(_Handle):
    """A span or trace root (:func:`repro.obs.span`, :func:`repro.obs.trace`)."""


# -- counters ------------------------------------------------------------------

AMG_RELAXATION_BUILDS = Counter("amg.relaxation_builds")
AMG_SETUP_CACHE_EVICTIONS = Counter("amg_setup_cache.evictions")
AMG_SETUP_CACHE_HITS = Counter("amg_setup_cache.hits")
AMG_SETUP_CACHE_MISSES = Counter("amg_setup_cache.misses")
BATCH_ITEMS = Counter("batch.items")
BATCH_PIPELINE_CACHE_HITS = Counter("batch.pipeline_cache_hits")
BATCH_PIPELINE_CACHE_MISSES = Counter("batch.pipeline_cache_misses")
BATCH_SERIAL_FALLBACKS = Counter("batch.serial_fallbacks")
BATCH_SERIAL_FALLBACKS_NESTED_IN_WORKER = Counter(
    "batch.serial_fallbacks.nested_in_worker"
)
BATCH_SERIAL_FALLBACKS_POOL_UNUSABLE = Counter(
    "batch.serial_fallbacks.pool_unusable"
)
INCREMENTAL_ABORTED = Counter("incremental.aborted")
INCREMENTAL_BASE_SOLVES = Counter("incremental.base_solves")
INCREMENTAL_COLUMN_CACHE_HITS = Counter("incremental.column_cache_hits")
INCREMENTAL_COLUMN_SOLVES = Counter("incremental.column_solves")
INCREMENTAL_DELTAS = Counter("incremental.deltas")
INCREMENTAL_FACTORIZATIONS = Counter("incremental.factorizations")
INCREMENTAL_REBUILDS = Counter("incremental.rebuilds")
INCREMENTAL_SMW_SOLVES = Counter("incremental.smw_solves")
INCREMENTAL_SOLVES = Counter("incremental.solves")
NN_PLAN_BUILDS = Counter("nn.plan_builds")
NN_PLAN_REFOLDS = Counter("nn.plan_refolds")
PAD_PLACEMENT_CANDIDATES = Counter("pad_placement.candidates")
PCG_ITERATIONS = Counter("pcg.iterations")
POOL_WORKERS_RESPAWNED = Counter("pool.workers_respawned")
SERVE_COMPLETED = Counter("serve.completed")
SERVE_FAILED = Counter("serve.failed")
SERVE_MODEL_LOADS = Counter("serve.model_loads")
SERVE_MODEL_RELOADS = Counter("serve.model_reloads")
SERVE_REJECTED = Counter("serve.rejected")
SERVE_REQUESTS = Counter("serve.requests")
SOLVER_ATTEMPTS = Counter("solver.attempts")
SOLVER_DEADLINE_SKIPS = Counter("solver.deadline_skips")
SOLVER_FALLBACKS = Counter("solver.fallbacks")
TASK_QUARANTINED = Counter("task.quarantined")
TASK_RETRIES = Counter("task.retries")
TASK_TIMEOUTS = Counter("task.timeouts")
TRANSPORT_PICKLED_BYTES = Counter("transport.pickled_bytes")

# -- gauges --------------------------------------------------------------------

SERVE_ACTIVE_JOBS = Gauge("serve.active_jobs")
SERVE_QUEUE_DEPTH = Gauge("serve.queue_depth")

# -- spans ---------------------------------------------------------------------

AMG_SETUP = SpanName("amg_setup")
ANALYZE = SpanName("analyze")
BATCH = SpanName("batch")
FEATURES = SpanName("features")
FIT = SpanName("fit")
GENERATE = SpanName("generate")
GRID_BUILD = SpanName("grid_build")
IMPORTS = SpanName("imports")
INCREMENTAL_FACTORIZE = SpanName("incremental.factorize")
INCREMENTAL_PREVIEW_BATCH = SpanName("incremental.preview_batch")
INCREMENTAL_REBUILD = SpanName("incremental.rebuild")
INCREMENTAL_SOLVE = SpanName("incremental.solve")
INFERENCE = SpanName("inference")
ITEM = SpanName("item")
MODEL_BUILD = SpanName("model_build")
MODEL_LOAD = SpanName("model_load")
PAD_PLACEMENT = SpanName("pad_placement")
PARSE = SpanName("parse")
PCG = SpanName("pcg")
PLAN_BUILD = SpanName("plan_build")
RUN = SpanName("run")
SERVE = SpanName("serve")
SERVE_REQUEST = SpanName("serve.request")
SIMULATE = SpanName("simulate")
SOLVE = SpanName("solve")
SOLVE_ATTEMPT = SpanName("solve_attempt")
STAMP = SpanName("stamp")
TASK_ATTEMPT = SpanName("task_attempt")
TRAIN = SpanName("train")
TRAIN_BACKWARD = SpanName("train_backward")
TRAIN_FORWARD = SpanName("train_forward")
TRAIN_STEP = SpanName("train_step")
VALIDATE = SpanName("validate")
