"""Extension bench: memory-guarded model construction (Section 3.4).

One paging construction run poisons a least-squares fit: the SUMMA NL
grid's single-Pentium-II run at N = 6400 needs ~1 GB (three resident
matrices) against 768 MB of RAM, runs ~4-5x slower than its compute time,
and drags the P-T offset to catastrophic values.  The guard predicts the
overflow from (N, P) alone — no timing needed — and keeps such runs out of
the fits.
"""

from dataclasses import replace

from repro.analysis.tables import render_table
from repro.cluster.config import ClusterConfig
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.measure.grids import nl_plan

KINDS = ("athlon", "pentium2")
SEED = 2004


def test_memory_guard_repairs_summa(benchmark, spec, write_result):
    plan = replace(
        nl_plan(),
        construction_sizes=(1200, 1600, 3200, 4800, 6400),
        evaluation_sizes=(3200, 4800),
    )

    def build(guard: bool):
        return EstimationPipeline(
            spec,
            PipelineConfig(
                protocol="nl",
                seed=SEED,
                workload="summa",
                calibration_n=4800,
                memory_guard=guard,
            ),
            plan=plan,
        )

    unguarded = build(False)
    guarded = build(True)
    probe = ClusterConfig.from_tuple(KINDS, (1, 1, 8, 1))

    rows = []
    for label, pipeline in (("unguarded", unguarded), ("guarded", guarded)):
        pt = pipeline.store.pt_model("pentium2", 1)
        est = pipeline.estimate(probe, 4800).total
        meas = pipeline.measured_time(probe, 4800)
        excluded = len(pipeline.excluded_paging_runs)
        rows.append(
            [
                label,
                excluded,
                f"{pt.k8:+.1f}",
                f"{est:.1f}" if est != float("inf") else "out of domain",
                f"{meas:.1f}",
            ]
        )
    write_result(
        "memory_guard_summa",
        render_table(
            ["fit", "runs excluded", "P-T offset k8 [s]", "est (1,1,8,1)@4800", "measured"],
            rows,
            title="Section 3.4 memory guard on the SUMMA NL grid",
        ),
    )

    # the unguarded fit is visibly poisoned; the guarded one is sane
    assert abs(unguarded.store.pt_model("pentium2", 1).k8) > 10 * abs(
        guarded.store.pt_model("pentium2", 1).k8
    )
    est = guarded.estimate(probe, 4800).total
    meas = guarded.measured_time(probe, 4800)
    assert abs(est - meas) / meas < 0.35
    assert len(guarded.excluded_paging_runs) > 0

    benchmark.pedantic(lambda: build(True).store, rounds=1, iterations=1)
