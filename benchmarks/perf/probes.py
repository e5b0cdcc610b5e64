"""Per-layer measurements: direct probes and the per-layer metric table.

A traced run records spans around the public calls its workload makes
(see ``workloads.py``).  A layer the workload never calls is measured by
a probe: the same public call, made directly on the workload's own
pipeline and inputs, so every per-layer metric has a value on every
workload.  ``README.md`` lists which workload measures which layer
through its own traffic and which through a probe.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from spans import Tracer

from repro.calibrate import Calibrator, ObservationLog
from repro.core.grid_kernel import GridKernel

SEARCH_TAGS = ("exhaustive", "branch-bound", "beam", "anneal", "greedy", "hill-climb")


class Counts:
    """Per-layer counters and rates, as lists of samples by name."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(float(value))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated between
    order statistics (NumPy's default); one sample is its own percentile."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a metric's repetitions."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# -- probes ---------------------------------------------------------------


def search_call(pipeline, tag: str, sizes: Sequence[int], tracer: Tracer,
                counts: Counts):
    """One cold ``optimize_many`` on backend ``tag`` (the estimate cache
    is emptied first, so no call is served by an earlier one), with its
    search counters summed over sizes."""
    pipeline.estimate_cache.clear()
    with tracer.span(f"search.{tag}.setup"):
        optimizer = pipeline.optimizer(backend=tag)
    with tracer.span(f"search.{tag}.run"):
        outcomes = optimizer.optimize_many(sizes)
    stats = [outcome.stats for outcome in outcomes]
    counts.add(f"search.{tag}.evaluations", sum(s.evaluations for s in stats))
    counts.add(f"search.{tag}.pruned_candidates",
               sum(s.pruned_candidates for s in stats))
    counts.add(f"search.{tag}.dedup_hits", sum(s.dedup_hits for s in stats))
    return outcomes


def probe_search(pipeline, sizes: Sequence[int], tracer: Tracer, counts: Counts,
                 tags: Sequence[str] = SEARCH_TAGS) -> None:
    for tag in tags:
        search_call(pipeline, tag, sizes, tracer, counts)


def probe_estimation(pipeline, configs: Sequence, sizes: Sequence[int],
                     tracer: Tracer, counts: Counts, calls: int = 200) -> None:
    """The grid kernel called directly and through the estimate cache
    (cold) over ``configs x sizes``, then ``calls`` scalar and
    per-configuration batch estimates cycling through both."""
    configs, sizes = list(configs), [int(n) for n in sizes]
    cells = len(configs) * len(sizes)
    kernel = GridKernel(pipeline.models, pipeline.adjustment)
    started = time.perf_counter()
    kernel.evaluate(configs, sizes)
    counts.add("grid.kernel_cells_per_s", cells / (time.perf_counter() - started))
    pipeline.estimate_cache.clear()
    started = time.perf_counter()
    pipeline.estimate_grid(configs, sizes)
    counts.add("grid.cached_cells_per_s", cells / (time.perf_counter() - started))
    for i in range(calls):
        config, n = configs[i % len(configs)], sizes[i % len(sizes)]
        with tracer.span("estimator.scalar"):
            pipeline.estimate(config, n).total
        with tracer.span("estimator.batch"):
            pipeline.estimate_totals(config, [n])


def probe_calibrate(pipeline, records: Sequence, log_path, tracer: Tracer,
                    counts: Counts) -> None:
    """Ingest ``records`` into a calibration loop on a file-backed log."""
    calibrator = Calibrator("probe", pipeline_provider=lambda: pipeline,
                            log=ObservationLog(log_path))
    try:
        for record in records:
            with tracer.span("calibrate.ingest"):
                calibrator.ingest(record, source="probe")
    finally:
        calibrator.log.close()
    counts.add("calibrate.observations", len(records))


def pipeline_counts(pipeline, counts: Counts, optimize_calls: int) -> None:
    """Grid-kernel and estimate-cache counters a pipeline's
    ``PerfReport`` accumulated over ``optimize_calls`` (>= 1) search calls."""
    report = pipeline.perf.to_dict()
    grid, cache = report["grid"], report["cache"]
    counts.add("grid.blocks", grid["blocks"] / optimize_calls)
    counts.add("grid.candidates_per_block", grid["block_candidates"] / grid["blocks"])
    counts.add("grid.scalar_fallback", grid["scalar_fallback"])
    counts.add("cache.hit_ratio", cache["hits"] / (cache["hits"] + cache["misses"]))
    counts.add("cache.entries", cache["entries"])


# -- the per-layer metric table ------------------------------------------

#: (metric, unit, source, statistic, scale).  ``source`` names a span
#: (durations) or a ``Counts`` series; ``statistic`` is the percentile
#: taken over its samples.
_LAYER_TABLE: List[Tuple[str, str, str, float, float]] = [
    ("measure.s", "s", "measure", 50, 1.0),
    ("measure.runs_per_s", "1/s", "measure.runs_per_s", 50, 1.0),
    ("fit.s", "s", "fit", 50, 1.0),
    ("fit.models", "count", "fit.models", 50, 1.0),
    ("adjust.s", "s", "adjust", 50, 1.0),
]
for _tag in SEARCH_TAGS:
    _LAYER_TABLE += [
        (f"search.{_tag}.setup_ms", "ms", f"search.{_tag}.setup", 50, 1e3),
        (f"search.{_tag}.run_ms", "ms", f"search.{_tag}.run", 50, 1e3),
        (f"search.{_tag}.evaluations", "count", f"search.{_tag}.evaluations", 50, 1.0),
        (f"search.{_tag}.pruned_candidates", "count",
         f"search.{_tag}.pruned_candidates", 50, 1.0),
        (f"search.{_tag}.dedup_hits", "count", f"search.{_tag}.dedup_hits", 50, 1.0),
    ]
_LAYER_TABLE += [
    ("grid.kernel_cells_per_s", "1/s", "grid.kernel_cells_per_s", 50, 1.0),
    ("grid.cached_cells_per_s", "1/s", "grid.cached_cells_per_s", 50, 1.0),
    ("grid.blocks", "count", "grid.blocks", 50, 1.0),
    ("grid.candidates_per_block", "count", "grid.candidates_per_block", 50, 1.0),
    ("grid.scalar_fallback", "count", "grid.scalar_fallback", 50, 1.0),
    ("cache.hit_ratio", "ratio", "cache.hit_ratio", 50, 1.0),
    ("cache.entries", "count", "cache.entries", 50, 1.0),
    ("estimator.scalar_us", "us", "estimator.scalar", 50, 1e6),
    ("estimator.batch_us", "us", "estimator.batch", 50, 1e6),
    ("protocol.decode_us", "us", "protocol.decode", 50, 1e6),
    ("protocol.encode_us", "us", "protocol.encode", 50, 1e6),
    ("batcher.queue_wait_ms.p50", "ms", "batcher.queue_wait", 50, 1e3),
    ("batcher.queue_wait_ms.p99", "ms", "batcher.queue_wait", 99, 1e3),
    ("batcher.batch_size_mean", "count", "batcher.batch_size_mean", 50, 1.0),
    ("batcher.groups_mean", "count", "batcher.groups_mean", 50, 1.0),
    ("registry.cached_totals_us", "us", "registry.cached_totals", 50, 1e6),
    ("registry.cache_hit_ratio", "ratio", "registry.cache_hit_ratio", 50, 1.0),
    ("registry.load_s", "s", "registry.load", 50, 1.0),
    ("persistence.save_s", "s", "persistence.save", 50, 1.0),
    ("calibrate.ingest_us", "us", "calibrate.ingest", 50, 1e6),
    ("calibrate.observations", "count", "calibrate.observations", 50, 1.0),
    ("server.sojourn_ms", "ms", "server.sojourn", 50, 1e3),
    ("server.cpu_us_per_request", "us", "server.cpu_per_request", 50, 1e6),
    ("server.shed", "count", "server.shed", 50, 1.0),
    ("server.errors", "count", "server.errors", 50, 1.0),
    ("gen.late_p99_ms", "ms", "gen.late", 99, 1e3),
    ("trace.overhead_frac", "ratio", "trace.overhead_frac", 50, 1.0),
]


def layer_metrics(tracer: Tracer, counts: Counts) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of a traced run as ``(value, unit)``.

    Raises ``KeyError`` naming the metric whose source recorded nothing:
    a per-layer metric without samples is a benchmark defect."""
    out: Dict[str, Tuple[float, str]] = {}
    for metric, unit, source, statistic, scale in _LAYER_TABLE:
        samples = tracer.values(source) or counts.samples.get(source)
        if not samples:
            raise KeyError(f"per-layer metric {metric!r}: no samples of {source!r}")
        out[metric] = (percentile(samples, statistic) * scale, unit)
    return out
