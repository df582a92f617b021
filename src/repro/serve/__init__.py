"""Analysis-as-a-service: a persistent daemon over the fusion pipeline.

Batch analysis (:mod:`repro.core.batch`) amortises model-load and AMG
setup cost *within* one invocation; this package amortises it *across*
invocations.  ``python -m repro.serve --model-dir runs/models`` starts a
long-lived HTTP/JSON daemon that runs every request in-process, on its
one executor thread, behind two warm layers that each remove a cold start
from the request path:

- the **model registry** (:mod:`repro.serve.registry`) loads every
  checkpoint pair once and hot-reloads on file change;
- the **AMG setup cache** (:mod:`repro.solvers.cache`) is shared across
  requests, so repeat decks skip hierarchy construction entirely.

Admission control (bounded queue, ``queue_full``/``draining``
rejections), cooperative per-request deadlines, per-request
:mod:`repro.obs` traces and a graceful SIGTERM drain make the daemon
safe to put behind real clients.  See ``docs/serving.md``.
"""

from repro.serve.app import ServeDaemon
from repro.serve.registry import (
    ModelEntry,
    ModelLoadError,
    ModelNotFoundError,
    ModelRegistry,
)
from repro.serve.service import (
    AnalysisService,
    AnalyzeRequest,
    DrainingError,
    Job,
    QueueFullError,
    RequestError,
    ServeOptions,
)

__all__ = [
    "AnalysisService",
    "AnalyzeRequest",
    "DrainingError",
    "Job",
    "ModelEntry",
    "ModelLoadError",
    "ModelNotFoundError",
    "ModelRegistry",
    "QueueFullError",
    "RequestError",
    "ServeDaemon",
    "ServeOptions",
]
