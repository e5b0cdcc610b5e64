"""Perf-engine bench: what batched and cached search buy.

**Sweep search** ranks the 62-candidate grid across a 96-size sweep,
asserting *bit-identical* rankings between the paths (a speedup that
changes answers is a bug):

* the "looped" baseline is 96 one-size exhaustive searches
  (``pipeline.optimizer().optimize(n)``).  They run through the same
  grid kernel and the same estimate cache as ``optimize_many``, and they
  fill that cache;
* the "batched" sweep is one ``optimize_many`` call over all 96 sizes,
  made right after the loop, so its estimates are read from the cache
  the loop filled (the gate asks >= 10x);
* the "warm cache" row repeats that call.

Results land in ``benchmarks/results/perf_engine.txt``, written only
when every gate passes.
"""

import time

from repro.analysis.tables import render_table
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.perf.parallel import available_cpu_count

SEED = 2004
SWEEP_SIZES = tuple(1600 + 80 * i for i in range(96))


def test_perf_engine(benchmark, spec, write_result):
    rows = []

    # -- search: looped vs batched vs cached ----------------------------------
    pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=SEED))
    _ = pipeline.store, pipeline.adjustment  # fit outside the timed region

    opt = pipeline.optimizer()
    grid = len(opt.candidates) * len(SWEEP_SIZES)
    started = time.perf_counter()
    looped = [opt.optimize(n) for n in SWEEP_SIZES]
    looped_s = time.perf_counter() - started

    started = time.perf_counter()
    batched = pipeline.optimize_many(SWEEP_SIZES)
    batched_s = time.perf_counter() - started

    for a, b in zip(looped, batched):
        assert [e.config.key() for e in a.ranking] == [
            e.config.key() for e in b.ranking
        ]
        assert [e.estimate_s for e in a.ranking] == [
            e.estimate_s for e in b.ranking
        ]
    batched_speedup = looped_s / batched_s if batched_s > 0 else float("inf")
    rows.append(
        [
            f"sweep search ({grid} estimates)",
            f"{looped_s:.3f}",
            f"{batched_s:.3f}",
            f"{batched_speedup:.1f}x",
        ]
    )
    assert batched_speedup >= 10.0, (
        f"batched sweep speedup {batched_speedup:.2f}x < 10x"
    )

    started = time.perf_counter()
    cached = pipeline.optimize_many(SWEEP_SIZES)
    cached_s = time.perf_counter() - started
    for a, b in zip(batched, cached):
        assert [e.estimate_s for e in a.ranking] == [
            e.estimate_s for e in b.ranking
        ]
    cached_speedup = looped_s / cached_s if cached_s > 0 else float("inf")
    rows.append(
        [
            "sweep search, warm cache",
            f"{looped_s:.3f}",
            f"{cached_s:.3f}",
            f"{cached_speedup:.1f}x",
        ]
    )
    stats = pipeline.estimate_cache.stats
    assert stats.hits >= grid  # the re-sweep was answered from the cache

    table = render_table(
        ["workload", "baseline [s]", "engine [s]", "speedup"],
        rows,
        title=f"Perf engine (cpus={available_cpu_count()})",
    )
    report = pipeline.perf.render()
    write_result("perf_engine", table + "\n\nPipeline stage report:\n" + report)

    benchmark.pedantic(
        lambda: pipeline.optimize_many(SWEEP_SIZES[:8]), rounds=1, iterations=1
    )
