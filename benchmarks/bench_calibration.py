"""Calibration loop costs: ingestion throughput and refit latency.

The observation log is on the serving hot path (every ``observe``
request appends a record and scores it against the promoted model), so
ingestion must be cheap; refits happen rarely but rebuild the whole
least-squares fit over seed-plus-observed data, so their latency bounds
how fast a drifted service can converge.  This bench measures both on a
10k-observation log: sustained ``Calibrator.ingest`` records/sec into a
file-backed JSONL log (residual scoring and Page-Hinkley included), and
the wall time of one ``Recalibrator.build_candidate`` + shadow
evaluation over that log.

Traffic repeats a realistic working set (the calibration family at a
handful of problem sizes), so scoring exercises the estimate cache the
way live traffic would.
"""

from __future__ import annotations

import itertools
import time

from repro.calibrate import Calibrator, ObservationLog, Recalibrator
from repro.hpl.driver import run_hpl_grid
from repro.measure.record import MeasurementRecord

TOTAL_OBSERVATIONS = 10_000
TRAFFIC_SIZES = (1600, 3200, 4800, 6400)


def traffic_records(pipeline):
    """The working set: calibration-family (heterogeneous) configs plus a
    few single-kind construction configs, so the stream both exercises
    the scoring path and actually moves the refit."""
    records = []
    kinds = pipeline.plan.kinds
    configs = list(pipeline.calibration_configs())
    configs += list(pipeline.plan.construction_configs[:4])
    for results in run_hpl_grid(
        pipeline.spec, [(config, TRAFFIC_SIZES, 0) for config in configs], seed=7
    ):
        records.extend(
            MeasurementRecord.from_result(result, kinds, seed=7)
            for result in results
        )
    return records


def test_calibration_costs(ns_pipeline, tmp_path, benchmark, write_result):
    working_set = traffic_records(ns_pipeline)
    stream = itertools.cycle(working_set)

    calibrator = Calibrator(
        "bench",
        pipeline_provider=lambda: ns_pipeline,
        log=ObservationLog(tmp_path / "observations.jsonl"),
    )

    started = time.perf_counter()
    for _ in range(TOTAL_OBSERVATIONS):
        calibrator.ingest(next(stream), source="bench")
    ingest_elapsed = time.perf_counter() - started
    ingest_rps = TOTAL_OBSERVATIONS / ingest_elapsed

    recalibrator = Recalibrator(holdout_fraction=0.25)
    fit_observations, holdout = recalibrator.split(calibrator.log.observations)
    started = time.perf_counter()
    candidate = recalibrator.build_candidate(ns_pipeline, fit_observations)
    refit_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    shadow = recalibrator.shadow_evaluate(
        candidate.pipeline, ns_pipeline, holdout[:64]
    )
    shadow_elapsed = time.perf_counter() - started

    lines = [
        f"observations ingested   {TOTAL_OBSERVATIONS:>8d}",
        f"ingestion               {ingest_rps:>8.0f} records/s "
        f"({ingest_elapsed:.2f}s, file-backed JSONL + residual scoring)",
        f"refit (build_candidate) {refit_elapsed:>8.2f} s "
        f"({candidate.fit_observations} observations, "
        f"{candidate.superseded_seed_records} seed records superseded)",
        f"shadow eval (64 held-out) {shadow_elapsed:>6.2f} s "
        f"(candidate {shadow.candidate.mean_abs_relative_error:.4f} vs "
        f"incumbent {shadow.incumbent.mean_abs_relative_error:.4f})",
    ]
    write_result("calibration", "\n".join(lines))

    # Acceptance bars (loose for CI runners): ingestion must sustain
    # hundreds of records/sec and a refit must land well under a minute.
    assert ingest_rps > 200, f"ingestion too slow: {ingest_rps:.0f}/s"
    assert refit_elapsed < 60, f"refit too slow: {refit_elapsed:.1f}s"
    assert candidate.fingerprint != ns_pipeline.estimate_cache.fingerprint

    benchmark.pedantic(
        lambda: recalibrator.build_candidate(ns_pipeline, fit_observations),
        rounds=1,
        iterations=1,
    )
