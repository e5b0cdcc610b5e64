#!/usr/bin/env python
"""Service smoke check: fast CI guard for ``repro.serve``.

A trimmed-down version of ``benchmarks/bench_serve_throughput.py`` that
runs in a few seconds with no pytest dependency.  It starts a real
server on an ephemeral port against the golden saved pipeline, fires
concurrent client queries at it, and verifies the properties that must
never regress:

* every served total is *bitwise* equal to a direct
  ``Estimator.estimate_totals`` call on the same loaded pipeline,
* concurrent traffic actually coalesces into micro-batches,
* micro-batching beats a batching-off server (``max_batch=1``) in
  requests/sec on an optimize workload, and is no worse than HALF the
  batching-off throughput on the lighter estimate workload (the loose
  ceiling keeps the check green on slow, noisy CI runners; the real
  targets live in the benchmark),
* shutdown drains cleanly with every admitted request answered.

Exit status is non-zero on any failure.  Run it as::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.cluster.config import ClusterConfig
from repro.core.persistence import load_pipeline
from repro.serve import EstimationServer, ModelRegistry, fire_concurrent

FIXTURE = Path(__file__).parent.parent / "tests" / "golden" / "format1_pipeline"
CONCURRENCY = 64
CONFIG = (1, 2, 8, 1)
#: Distinct problem sizes so no round is flattened by the estimate cache.
SIZES = tuple(1600 + 8 * i for i in range(256))


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def estimate_payloads() -> list[dict]:
    return [
        {"op": "estimate", "pipeline": "golden", "config": list(CONFIG), "n": n}
        for n in SIZES
    ]


def optimize_payloads() -> list[dict]:
    return [
        {"op": "optimize", "pipeline": "golden", "n": n, "top": 3}
        for n in SIZES[:128]
    ]


async def run_round(payloads: list[dict], batching: bool):
    registry = ModelRegistry()
    registry.add("golden", FIXTURE)
    kwargs = {} if batching else {"max_batch": 1}
    server = EstimationServer(registry, port=0, refresh_interval_s=None, **kwargs)
    host, port = await server.start()
    try:
        replies, elapsed = await fire_concurrent(
            host, port, payloads, concurrency=CONCURRENCY
        )
    finally:
        await server.shutdown()
    return server, replies, elapsed


def check_identity(replies) -> None:
    direct = load_pipeline(FIXTURE)
    config = ClusterConfig.from_tuple(direct.plan.kinds, CONFIG)
    want = {n: float(t) for n, t in zip(SIZES, direct.estimate_totals(config, SIZES))}
    if len(replies) != len(SIZES):
        fail(f"{len(replies)} replies to {len(SIZES)} requests")
    for reply in replies:
        if not reply.get("ok"):
            fail(f"request failed under smoke load: {reply}")
        (n,) = reply["result"]["ns"]
        (total,) = reply["result"]["totals"]
        if total != want[n]:
            fail(f"served total for N={n} is {total!r}, direct path says {want[n]!r}")
    print(f"ok: {len(SIZES)} served totals bitwise equal to direct estimates")


def throughput(payloads: list[dict], label: str) -> tuple[float, float]:
    server, replies, batched_s = asyncio.run(run_round(payloads, batching=True))
    if any(not r.get("ok") for r in replies):
        fail(f"{label}: batched round returned errors")
    if server.metrics.batch_sizes.max <= 1:
        fail(f"{label}: concurrent traffic never coalesced into a micro-batch")
    _, replies, unbatched_s = asyncio.run(run_round(payloads, batching=False))
    if any(not r.get("ok") for r in replies):
        fail(f"{label}: batching-off round returned errors")
    batched_rps = len(payloads) / batched_s
    unbatched_rps = len(payloads) / unbatched_s
    print(
        f"ok: {label} throughput {batched_rps:.0f} rps batched, "
        f"{unbatched_rps:.0f} rps batching-off "
        f"(largest batch {server.metrics.batch_sizes.max})"
    )
    return batched_rps, unbatched_rps


def check_cli_process() -> None:
    """Start a real ``repro serve`` process, query it with ``repro
    client``, and verify SIGINT shuts it down cleanly."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--dir", f"golden={FIXTURE}", "--port", str(port)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + 30.0
        while True:
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                    break
            except OSError:
                if server.poll() is not None or time.monotonic() > deadline:
                    out = server.communicate()[0] if server.poll() is not None else ""
                    fail(f"repro serve never came up on port {port}\n{out}")
                time.sleep(0.1)

        client = subprocess.run(
            [sys.executable, "-m", "repro", "client", "--port", str(port),
             "--op", "estimate", "--pipeline", "golden",
             "--config", "1,2,8,1", "--n", "3200"],
            env=env, capture_output=True, text=True, timeout=30,
        )
        if client.returncode != 0:
            fail(f"repro client failed: {client.stderr}")
        reply = json.loads(client.stdout)
        if not reply["ok"] or not reply["result"]["totals"]:
            fail(f"repro client got a bad reply: {client.stdout}")
        server.send_signal(signal.SIGINT)
        out, _ = server.communicate(timeout=30)
        if server.returncode != 0:
            fail(f"repro serve exited {server.returncode} on SIGINT\n{out}")
        if "requests" not in out:
            fail(f"repro serve did not print its metrics on shutdown\n{out}")
        print("ok: repro serve process answered repro client and shut down cleanly")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def main() -> None:
    print(f"serve smoke: {CONCURRENCY}-way concurrency against {FIXTURE.name}")

    _, replies, _ = asyncio.run(run_round(estimate_payloads(), batching=True))
    check_identity(replies)

    est_batched, est_unbatched = throughput(estimate_payloads(), "estimate")
    if est_batched < est_unbatched / 2:
        fail(
            f"micro-batched estimates ({est_batched:.0f} rps) fell below half "
            f"the batching-off throughput ({est_unbatched:.0f} rps)"
        )

    opt_batched, opt_unbatched = throughput(optimize_payloads(), "optimize")
    if opt_batched <= opt_unbatched:
        fail(
            f"micro-batching ({opt_batched:.0f} rps) failed to beat "
            f"batching-off ({opt_unbatched:.0f} rps) on the optimize workload"
        )

    check_cli_process()
    print("serve smoke passed")


if __name__ == "__main__":
    main()
