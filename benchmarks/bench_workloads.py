"""Workload kernel bench: vectorized grid runners vs scalar references.

Each workload family ships two implementations of its simulator: the
vectorized grid runner the campaigns actually run, and a straight-line
scalar reference (``simulate_*_reference``) kept for auditability.  This
bench sweeps one config across a 64-size group per family and gates the
grid runner at >= 5x the looped scalar reference — while asserting the
two paths agree (allclose; the no-noise grid path and the reference
differ only in floating-point reduction order).

Results land in ``benchmarks/results/workload_kernels.txt``.
"""

import time

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.cluster.config import ClusterConfig
from repro.measure.grids import PAPER_KINDS
from repro.workloads.montecarlo import run_montecarlo_grid, simulate_montecarlo_reference
from repro.workloads.sorting import run_sorting_grid, simulate_sorting_reference

CONFIG = (1, 4, 8, 1)
SIZES = tuple(2000 + 100 * i for i in range(64))
SPEEDUP_FLOOR = 5.0

FAMILIES = {
    "sorting": (run_sorting_grid, simulate_sorting_reference),
    "montecarlo": (run_montecarlo_grid, simulate_montecarlo_reference),
}


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_workload_batch_runners_beat_scalar_references(
    benchmark, spec, write_result
):
    config = ClusterConfig.from_tuple(PAPER_KINDS, CONFIG)
    rows = []
    for family, (grid, reference) in FAMILIES.items():
        grid(spec, [(config, SIZES[:2], 0)])  # warm numpy / placement caches
        scalar_s, scalar = _best_of(
            2, lambda: [reference(spec, config, n) for n in SIZES]
        )
        batch_s, [batched] = _best_of(3, lambda: grid(spec, [(config, SIZES, 0)]))

        for a, b in zip(scalar, batched):
            assert b.wall_time_s == pytest.approx(a.wall_time_s, rel=1e-9)
            for name, values in a.phase_arrays.items():
                np.testing.assert_allclose(
                    b.phase_arrays[name], values, rtol=1e-9
                )

        speedup = scalar_s / batch_s if batch_s > 0 else float("inf")
        rows.append(
            [
                f"{family} ({len(SIZES)} sizes)",
                f"{scalar_s * 1e3:.1f}",
                f"{batch_s * 1e3:.1f}",
                f"{speedup:.1f}x",
            ]
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"{family} grid runner speedup {speedup:.2f}x < "
            f"{SPEEDUP_FLOOR}x over the scalar reference"
        )

    write_result(
        "workload_kernels",
        render_table(
            ["kernel", "scalar [ms]", "batched [ms]", "speedup"],
            rows,
            title=f"Workload grid runners vs scalar references ({CONFIG})",
        ),
    )
    benchmark.pedantic(
        lambda: run_sorting_grid(spec, [(config, SIZES, 0)]), rounds=3, iterations=1
    )
