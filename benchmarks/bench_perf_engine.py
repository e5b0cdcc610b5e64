"""Perf-engine bench: what the parallel/batched layers actually buy.

Two workloads, both asserting *bit-identical* results between the fast
and the reference paths (a speedup that changes answers is a bug):

* **Campaign fan-out** — the NS construction campaign serial
  (``workers=1``) vs pooled (``workers=8``, clamped to the machine).
  The >= 4x wall-time target applies where the hardware can express it
  (>= 8 usable CPUs); on smaller boxes the bench still verifies
  determinism and records what the clamp allowed.
* **Sweep search** — ranking the 62-candidate grid across a 96-size
  sweep: today's ``len(candidates) * len(sizes)`` scalar-call loop vs
  ``optimize_many``'s batched + cached evaluation (>= 10x, no hardware
  proviso — that one is vectorization, not parallelism), plus a fully
  cached re-sweep.

Results land in ``benchmarks/results/perf_engine.txt``.
"""

import time

from repro.analysis.tables import render_table
from repro.cluster.presets import kishimoto_cluster
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.measure.campaign import run_campaign
from repro.measure.grids import ns_plan
from repro.perf.parallel import available_cpu_count, resolve_workers

SEED = 2004
REQUESTED_WORKERS = 8
SWEEP_SIZES = tuple(1600 + 80 * i for i in range(96))


def test_perf_engine(benchmark, spec, write_result):
    rows = []

    # -- campaign: serial vs parallel -----------------------------------------
    # Each side on a fresh spec: on one spec the second campaign would be
    # read back from the first one's run memo.
    plan = ns_plan()
    started = time.perf_counter()
    serial = run_campaign(kishimoto_cluster(), plan, seed=SEED, workers=1)
    serial_s = time.perf_counter() - started

    workers = resolve_workers(REQUESTED_WORKERS)
    started = time.perf_counter()
    pooled = run_campaign(kishimoto_cluster(), plan, seed=SEED, workers=REQUESTED_WORKERS)
    pooled_s = time.perf_counter() - started

    assert pooled.dataset.to_json() == serial.dataset.to_json()
    assert pooled.cost_by_kind_and_n == serial.cost_by_kind_and_n
    campaign_speedup = serial_s / pooled_s if pooled_s > 0 else float("inf")
    rows.append(
        [
            f"campaign ({plan.construction_count} runs), workers={workers}",
            f"{serial_s:.3f}",
            f"{pooled_s:.3f}",
            f"{campaign_speedup:.1f}x",
        ]
    )
    if workers >= REQUESTED_WORKERS:
        assert campaign_speedup >= 4.0, (
            f"campaign speedup {campaign_speedup:.2f}x < 4x at "
            f"workers={workers}"
        )

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
        title=(
            f"Perf engine (cpus={available_cpu_count()}, "
            f"workers requested={REQUESTED_WORKERS} -> {workers})"
        ),
    )
    report = pipeline.perf.render()
    write_result("perf_engine", table + "\n\nPipeline stage report:\n" + report)

    benchmark.pedantic(
        lambda: pipeline.optimize_many(SWEEP_SIZES[:8]), rounds=1, iterations=1
    )
