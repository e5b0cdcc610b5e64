"""Performance engine: cached/batched estimation and stage-level timing.

Three coordinated layers (see DESIGN.md "Performance engine"):

1. :mod:`repro.perf.parallel` — the CPUs this process may use
   (affinity- and cgroup-aware), which size the serving fleet;
2. :mod:`repro.perf.cache` — memoized model evaluation keyed by
   ``(config, N, model fingerprint)``, feeding the batched
   ``optimize_many`` search path;
3. :mod:`repro.perf.report` — per-stage wall-clock and cache statistics
   attached to every :class:`~repro.core.pipeline.EstimationPipeline`.
"""

from repro.perf.cache import CacheStats, EstimateCache, model_fingerprint
from repro.perf.parallel import available_cpu_count, default_worker_count
from repro.perf.report import PIPELINE_STAGES, PerfReport, StageTiming

__all__ = [
    "CacheStats",
    "EstimateCache",
    "model_fingerprint",
    "available_cpu_count",
    "default_worker_count",
    "PIPELINE_STAGES",
    "PerfReport",
    "StageTiming",
]
