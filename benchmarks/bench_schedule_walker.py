"""Schedule-walker bench: the vectorized grid walker.

The evaluation grid of the basic protocol — 62 configurations x 5 problem
sizes — simulated two ways:

* **scalar** — the reference per-panel Python loop, one
  :func:`simulate_schedule` call per (config, N) cell;
* **grid** — one :func:`simulate_schedule_grid` call over the whole grid,
  walking it once per process count as padded ``(runs, ranks, panels)``
  NumPy array programs.

The grid walker promises *bitwise* equality with the reference loop
(same IEEE operations in the same order), so the bench asserts exact
wall-clock and per-phase agreement before it asserts the >= 10x speedup.
Results land in ``benchmarks/results/schedule_walker.txt``.
"""

import time

import numpy as np

from repro.analysis.tables import render_table
from repro.hpl.schedule import (
    clear_panel_tables,
    reset_walker_stats,
    simulate_schedule,
    simulate_schedule_grid,
    walker_stats,
)
from repro.hpl.timing import PHASE_NAMES
from repro.measure.grids import basic_plan

MIN_SPEEDUP = 10.0


def test_schedule_walker(benchmark, spec, write_result):
    plan = basic_plan()
    configs = plan.evaluation_configs
    sizes = list(plan.evaluation_sizes)
    cells = len(configs) * len(sizes)

    clear_panel_tables()
    reset_walker_stats()

    started = time.perf_counter()
    scalar = {
        config.key(): [simulate_schedule(spec, config, n) for n in sizes]
        for config in configs
    }
    scalar_s = time.perf_counter() - started

    # Cold grid pass: panel tables are built, not reused.
    groups = [(config, sizes) for config in configs]
    clear_panel_tables()
    started = time.perf_counter()
    walked = simulate_schedule_grid(spec, groups)
    grid_s = time.perf_counter() - started

    for config, results in zip(configs, walked):
        for ref, got in zip(scalar[config.key()], results):
            assert got.wall_time_s == ref.wall_time_s
            for name in PHASE_NAMES:
                assert np.array_equal(
                    got.phase_arrays[name], ref.phase_arrays[name]
                ), f"{config.label()} N={ref.n} phase {name!r}"

    # Warm pass: every (n, nb, p) panel table is memoized now.
    started = time.perf_counter()
    simulate_schedule_grid(spec, groups)
    warm_s = time.perf_counter() - started

    speedup = scalar_s / grid_s if grid_s > 0 else float("inf")
    warm_speedup = scalar_s / warm_s if warm_s > 0 else float("inf")
    stats = walker_stats()
    passes = len({config.total_processes for config in configs})

    table = render_table(
        ["walker", "seconds", "speedup"],
        [
            [f"scalar loop ({cells} cells)", f"{scalar_s:.3f}", "1.0x"],
            [
                f"grid (1 call, {passes} process-count passes)",
                f"{grid_s:.3f}",
                f"{speedup:.1f}x",
            ],
            ["grid, warm panel tables", f"{warm_s:.3f}", f"{warm_speedup:.1f}x"],
        ],
        title=(
            f"Schedule walker: {len(configs)} configs x {len(sizes)} sizes "
            f"(N={sizes[0]}..{sizes[-1]})"
        ),
    )
    write_result("schedule_walker", table + "\n\nWalker counters: " + stats.describe())

    assert speedup >= MIN_SPEEDUP, (
        f"grid walker speedup {speedup:.2f}x < {MIN_SPEEDUP:.0f}x over "
        f"{cells} cells"
    )

    benchmark.pedantic(
        lambda: simulate_schedule_grid(spec, groups),
        rounds=3,
        iterations=1,
    )
