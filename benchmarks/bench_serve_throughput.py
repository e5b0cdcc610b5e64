"""Serving throughput: micro-batching and fleet scaling.

Part 1 — micro-batching on vs off across concurrency levels.

The serving layer coalesces concurrent requests into micro-batches and
dispatches each batch through the vectorized estimator paths (one
``estimate_totals`` call per (pipeline, config) group, one
``optimize_many`` call per pipeline).  This bench quantifies what that
buys: closed-loop requests/sec at concurrency 1, 8 and 64 against the
golden saved pipeline, with batching on (defaults) and off
(``max_batch=1``).

Every request carries a distinct problem size so no round is flattened
by the estimate cache — the comparison measures evaluation and
dispatch costs, not cache hits.  At concurrency 1 batching cannot help
(every batch has size one, and with no batching timer the two modes do
the same work); the win must appear as concurrency grows, where the
batched optimize path shares one search run per batch.

Part 2 — fleet scaling: the same closed-loop workload against
``repro serve --workers N`` fleets (N = 1, 2, 4) sharing one port.
Reports aggregate requests/sec, p50/p99 latency, and scaling efficiency
(rps_N / (N * rps_1)); replies are checked bitwise against the direct
estimator path at every fleet size.  The >= 2x-at-4-workers acceptance
gate only applies where the machine actually has >= 4 CPUs — on a
1-CPU CI runner the fleet still runs (correctness is exercised), but
there is no parallel speedup to measure.
"""

import asyncio
from pathlib import Path

from repro.perf.parallel import available_cpu_count
from repro.serve import (
    EstimationServer,
    FleetConfig,
    FleetSupervisor,
    ModelRegistry,
    fire_concurrent,
    fire_timed,
)

FIXTURE = Path(__file__).parent.parent / "tests" / "golden" / "format1_pipeline"
CONCURRENCIES = (1, 8, 64)
CONFIG = (1, 2, 8, 1)
FLEET_SIZES = (1, 2, 4)


def estimate_payloads(count):
    return [
        {"op": "estimate", "pipeline": "golden", "config": list(CONFIG),
         "n": 1600 + 8 * i}
        for i in range(count)
    ]


def optimize_payloads(count):
    return [
        {"op": "optimize", "pipeline": "golden", "n": 1600 + 8 * i, "top": 3}
        for i in range(count)
    ]


def run_round(payloads, batching, concurrency):
    async def main():
        registry = ModelRegistry()
        registry.add("golden", FIXTURE)
        kwargs = {} if batching else {"max_batch": 1}
        server = EstimationServer(registry, port=0, refresh_interval_s=None, **kwargs)
        host, port = await server.start()
        try:
            replies, elapsed = await fire_concurrent(
                host, port, payloads, concurrency=concurrency
            )
        finally:
            await server.shutdown()
        assert all(r["ok"] for r in replies)
        return len(payloads) / elapsed, server.metrics.batch_sizes.max

    return asyncio.run(main())


def sweep(make_payloads, count):
    rows = []
    for concurrency in CONCURRENCIES:
        on_rps, on_max_batch = run_round(make_payloads(count), True, concurrency)
        off_rps, _ = run_round(make_payloads(count), False, concurrency)
        rows.append((concurrency, on_rps, off_rps, on_max_batch))
    return rows


def render(title, rows):
    lines = [title, f"{'concurrency':>11s} {'batched':>10s} {'batching-off':>13s} "
                    f"{'speedup':>8s} {'max batch':>10s}"]
    for concurrency, on_rps, off_rps, max_batch in rows:
        lines.append(
            f"{concurrency:>11d} {on_rps:>8.0f} /s {off_rps:>10.0f} /s "
            f"{on_rps / off_rps:>7.2f}x {max_batch:>10d}"
        )
    return "\n".join(lines)


def test_serve_throughput(benchmark, write_result):
    estimate_rows = sweep(estimate_payloads, 192)
    optimize_rows = sweep(optimize_payloads, 96)

    write_result(
        "serve_throughput",
        render("estimate requests (distinct N, single config)", estimate_rows)
        + "\n\n"
        + render("optimize requests (distinct N)", optimize_rows),
    )

    # the acceptance bar: at concurrency 64, micro-batching beats
    # batching-off in requests/sec on both workloads
    for rows in (estimate_rows, optimize_rows):
        concurrency, on_rps, off_rps, max_batch = rows[-1]
        assert concurrency == 64
        assert max_batch > 1, "no coalescing at concurrency 64"
        assert on_rps > off_rps
    # and the optimize win is structural (one optimize_many per batch),
    # not scheduling noise
    assert optimize_rows[-1][1] > 2.0 * optimize_rows[-1][2]

    benchmark.pedantic(
        lambda: run_round(optimize_payloads(32), True, 32),
        rounds=1,
        iterations=1,
    )


# -- part 2: fleet scaling -----------------------------------------------------


def _quantile_ms(latencies, q):
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index] * 1e3


def run_fleet_round(workers, payloads, concurrency, expected_by_n):
    supervisor = FleetSupervisor(
        {"golden": FIXTURE}, FleetConfig(workers=workers, stats_interval_s=0.1)
    )
    with supervisor:
        replies, latencies, elapsed = asyncio.run(
            fire_timed(supervisor.host, supervisor.port, payloads, concurrency)
        )
        status = supervisor.status()
    assert len(replies) == len(payloads)
    for reply in replies:
        assert reply["ok"], reply
        result = reply["result"]
        # bitwise identity at every fleet size: sharding the port must
        # not change a single served number
        assert result["totals"] == [expected_by_n[n] for n in result["ns"]]
    assert len(status["workers"]) == workers
    return len(payloads) / elapsed, _quantile_ms(latencies, 0.50), _quantile_ms(
        latencies, 0.99
    )


def test_fleet_scaling(benchmark, write_result):
    direct = ModelRegistry()
    direct.add("golden", FIXTURE)
    entry = direct.get("golden")
    sizes = [1600 + 8 * i for i in range(192)]
    config = entry.parse_config(CONFIG)
    expected_by_n = {
        n: float(t) for n, t in zip(sizes, entry.cached_totals(config, sizes))
    }
    payloads = [
        {"op": "estimate", "pipeline": "golden", "config": list(CONFIG), "n": n}
        for n in sizes
    ]

    rows = []
    for workers in FLEET_SIZES:
        rps, p50, p99 = run_fleet_round(workers, payloads, 16, expected_by_n)
        rows.append((workers, rps, p50, p99))

    base_rps = rows[0][1]
    lines = [
        f"fleet scaling ({len(payloads)} estimate requests, concurrency 16, "
        f"{available_cpu_count()} CPUs available)",
        f"{'workers':>7s} {'agg rps':>10s} {'p50 ms':>8s} {'p99 ms':>8s} "
        f"{'speedup':>8s} {'efficiency':>10s}",
    ]
    for workers, rps, p50, p99 in rows:
        lines.append(
            f"{workers:>7d} {rps:>7.0f} /s {p50:>8.2f} {p99:>8.2f} "
            f"{rps / base_rps:>7.2f}x {rps / (workers * base_rps):>9.0%}"
        )
    write_result("fleet_scaling", "\n".join(lines))

    # the acceptance gate needs real parallel hardware; a 1-CPU runner
    # has exercised correctness above but cannot show a speedup
    if available_cpu_count() >= 4:
        four_rps = dict((w, r) for w, r, _, _ in rows)[4]
        assert four_rps >= 2.0 * base_rps, (
            f"4-worker fleet managed only {four_rps / base_rps:.2f}x "
            f"the single-worker rate"
        )

    benchmark.pedantic(
        lambda: run_fleet_round(2, payloads[:64], 8, expected_by_n),
        rounds=1,
        iterations=1,
    )
