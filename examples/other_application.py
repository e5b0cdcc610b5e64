#!/usr/bin/env python
"""The paper's generality claim, executed: the same pipeline on SUMMA.

"Our approach is not limited to HPL but it is widely applicable to many
other applications."  Nothing in the model layer knows what HPL is — it
consumes per-kind (Ta, Tc) measurements.  Here we swap the application for
the ``summa`` workload family, a SUMMA-style matrix multiplication (3x the
flops of LU per matrix order, different communication pattern, no
pivoting), and run the identical measure -> fit -> compose -> adjust ->
optimize pipeline.

Run:  python examples/other_application.py
"""

from dataclasses import replace

from repro import EstimationPipeline, PipelineConfig, kishimoto_cluster
from repro.analysis.errors import evaluation_rows
from repro.analysis.tables import render_table
from repro.measure.grids import nl_plan

spec = kishimoto_cluster()

# SUMMA keeps three matrices resident, so N = 6400 pages on a single
# Pentium-II node (1 GB footprint vs 768 MB RAM).  Keep construction sizes
# inside memory — see tests/integration/test_other_application.py for what
# happens if you don't (the paper's Section 3.4 memory-binning motivation).
plan = replace(
    nl_plan(),
    construction_sizes=(1200, 1600, 3200, 4800),
    evaluation_sizes=(1600, 3200, 4800),
)

pipeline = EstimationPipeline(
    spec,
    PipelineConfig(protocol="nl", seed=42, workload="summa", calibration_n=4800),
    plan=plan,
)

print(pipeline.store.summary())
print(f"adjustment: {pipeline.adjustment.describe()}\n")

rows = []
for row in evaluation_rows(pipeline):
    rows.append(
        [
            row.n,
            row.estimated_config.label(plan.kinds),
            f"{row.tau:.1f}",
            f"{row.tau_hat:.1f}",
            row.actual_config.label(plan.kinds),
            f"{row.t_hat:.1f}",
            f"{row.regret:+.1%}",
        ]
    )
print(
    render_table(
        ["N", "est. best", "tau", "tau^", "actual best", "T^", "regret"],
        rows,
        title="SUMMA (C = A @ B) through the unchanged estimation pipeline",
    )
)

print(
    "\nNote how SUMMA's higher compute/communication ratio moves the "
    "crossover: the full\ncluster already wins at N = 3200, where HPL still "
    "preferred the lone Athlon."
)
