#!/usr/bin/env python
"""Fleet smoke check: fast CI guard for ``repro.serve.fleet``.

Starts a real 2-replica fleet against the golden saved pipeline and
verifies the properties the sharded serving layer must never lose:

* every served estimate is *bitwise* equal to the direct estimator path
  on the same loaded pipeline, with mixed estimate/optimize traffic;
* the model artifacts are genuinely shared: the workers' combined
  proportional (PSS) residency of the shared segment stays near 1x the
  segment size, not ``workers``x (skipped where ``/proc/<pid>/smaps``
  is unavailable);
* one promotion lands under live traffic with zero torn fingerprints —
  every reply carries the old fingerprint or the new one, and replies
  after the promotion all carry the new one;
* ``fleet_status`` aggregates both replicas from one connection;
* the fleet drains gracefully, and so does a real ``repro serve
  --workers 2`` process on SIGINT.

Exit status is non-zero on any failure.  Run it as::

    PYTHONPATH=src python tools/fleet_smoke.py
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.cluster.config import ClusterConfig
from repro.core.persistence import load_pipeline
from repro.serve import FleetConfig, FleetSupervisor, ServeClient, fire_concurrent

FIXTURE = Path(__file__).parent.parent / "tests" / "golden" / "format1_pipeline"
CONFIG = (1, 2, 8, 1)
SIZES = tuple(1600 + 8 * i for i in range(128))
WORKERS = 2


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def mixed_payloads() -> list[dict]:
    payloads: list[dict] = [
        {"op": "estimate", "pipeline": "golden", "config": list(CONFIG), "n": n}
        for n in SIZES
    ]
    payloads += [
        {"op": "optimize", "pipeline": "golden", "n": n, "top": 3}
        for n in SIZES[:32]
    ]
    return payloads


def check_identity(replies) -> None:
    direct = load_pipeline(FIXTURE)
    config = ClusterConfig.from_tuple(direct.plan.kinds, CONFIG)
    want = {n: float(t) for n, t in zip(SIZES, direct.estimate_totals(config, SIZES))}
    estimates = 0
    for reply in replies:
        if not reply.get("ok"):
            fail(f"request failed under fleet load: {reply}")
        result = reply["result"]
        if "totals" in result and "ns" in result:
            estimates += 1
            for n, total in zip(result["ns"], result["totals"]):
                if total != want[n]:
                    fail(
                        f"served total for N={n} is {total!r}, "
                        f"direct path says {want[n]!r}"
                    )
    if estimates != len(SIZES):
        fail(f"expected {len(SIZES)} estimate replies, saw {estimates}")
    print(
        f"ok: {estimates} fleet-served totals bitwise equal to direct estimates "
        f"(+{len(replies) - estimates} optimize replies)"
    )


def check_shared_residency(supervisor: FleetSupervisor) -> None:
    """The zero-copy claim, measured: each worker maps the whole segment
    (Rss ~ segment size) but the *proportional* set size splits it, so
    the fleet-wide PSS total stays ~1x the segment size."""
    segment = supervisor._segments["golden"]
    seg_size = segment.size
    pids = supervisor.worker_pids()
    total_pss_kb = 0
    for pid in pids:
        smaps = Path(f"/proc/{pid}/smaps")
        if not smaps.exists():
            print("skip: /proc/<pid>/smaps unavailable; cannot measure residency")
            return
        pss_kb = None
        in_segment = False
        try:
            for line in smaps.read_text().splitlines():
                if segment.name in line:
                    in_segment = True
                elif in_segment and line.startswith("Pss:"):
                    pss_kb = int(line.split()[1])
                    break
                elif in_segment and "-" in line.split(" ")[0] and "/" in line:
                    in_segment = False  # next mapping, no Pss seen
        except OSError:
            print("skip: cannot read smaps; residency not measured")
            return
        if pss_kb is None:
            fail(f"worker {pid} has no mapping of shared segment {segment.name}")
        total_pss_kb += pss_kb
    budget_kb = 1.5 * seg_size / 1024
    if total_pss_kb > budget_kb:
        fail(
            f"shared segment residency is {total_pss_kb} KiB PSS across "
            f"{len(pids)} workers — more than 1.5x the {seg_size / 1024:.0f} KiB "
            f"segment; artifacts are being copied, not shared"
        )
    print(
        f"ok: shared artifacts resident once — {total_pss_kb} KiB total PSS "
        f"across {len(pids)} workers for a {seg_size / 1024:.0f} KiB segment"
    )


def make_candidate(root: Path) -> Path:
    """A re-calibrated copy of the golden pipeline (new fingerprint)."""
    target = root / "candidate"
    shutil.copytree(FIXTURE, target)
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["adjustment"]["scales"] = [
        [mi, scale * 1.25] for mi, scale in manifest["adjustment"]["scales"]
    ]
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return target


def check_promotion_under_traffic(supervisor: FleetSupervisor, root: Path) -> None:
    old = load_pipeline(FIXTURE).estimate_cache.fingerprint
    candidate_dir = make_candidate(root)
    new = load_pipeline(candidate_dir).estimate_cache.fingerprint
    payloads = [
        {"op": "estimate", "pipeline": "golden", "config": list(CONFIG),
         "n": 1600 + 8 * (i % 64)}
        for i in range(400)
    ]
    outcome: dict = {}
    errors: list[BaseException] = []

    def promote() -> None:
        try:
            time.sleep(0.05)
            outcome.update(supervisor.promote("golden", candidate_dir))
        except BaseException as exc:  # surfaced after the join
            errors.append(exc)

    promoter = threading.Thread(target=promote)
    promoter.start()
    replies, _ = asyncio.run(
        fire_concurrent(supervisor.host, supervisor.port, payloads, concurrency=16)
    )
    promoter.join(timeout=120)
    if errors:
        fail(f"promotion failed under traffic: {errors[0]}")
    if outcome.get("replicas") != WORKERS:
        fail(f"promotion committed on {outcome.get('replicas')} of {WORKERS} replicas")

    seen: set[str] = set()
    for reply in replies:
        if not reply.get("ok"):
            fail(f"request failed during promotion: {reply}")
        seen.add(reply["result"]["fingerprint"])
    torn = seen - {old, new}
    if torn:
        fail(f"torn fingerprints during promotion: {sorted(torn)}")

    with ServeClient(supervisor.host, supervisor.port) as client:
        for _ in range(2 * WORKERS):
            result = client.estimate("golden", list(CONFIG), [3200])
            if result["fingerprint"] != new:
                fail(
                    f"post-promotion reply still carries {result['fingerprint']}, "
                    f"candidate is {new}"
                )
    print(
        f"ok: promotion landed under load — {len(replies)} replies, "
        f"fingerprints {sorted(seen)}, zero torn, all-new after commit"
    )


def check_fleet_status(supervisor: FleetSupervisor) -> None:
    # The answering replica freshens only its own row; a peer's row lags
    # by up to one stats interval, which is longer than the workload
    # above takes.  Wait two intervals so every peer has republished.
    time.sleep(2 * supervisor.config.stats_interval_s)
    with ServeClient(supervisor.host, supervisor.port) as client:
        status = client.fleet_status()
    if not status.get("fleet") or len(status.get("workers", [])) != WORKERS:
        fail(f"fleet_status did not report {WORKERS} workers: {status}")
    if status["totals"]["requests"] < len(SIZES):
        fail(f"fleet_status under-counts requests: {status['totals']}")
    print(
        f"ok: fleet_status aggregates {len(status['workers'])} replicas "
        f"({status['totals']['requests']} requests, listener={status['listener']})"
    )


def check_cli_process() -> None:
    """A real ``repro serve --workers 2`` process: comes up, answers,
    reports the fleet, and drains on SIGINT."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--dir", f"golden={FIXTURE}", "--port", str(port),
         "--workers", str(WORKERS)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                    break
            except OSError:
                if server.poll() is not None or time.monotonic() > deadline:
                    out = server.communicate()[0] if server.poll() is not None else ""
                    fail(f"repro serve --workers never came up on port {port}\n{out}")
                time.sleep(0.1)

        client = subprocess.run(
            [sys.executable, "-m", "repro", "client", "--port", str(port),
             "--op", "fleet_status"],
            env=env, capture_output=True, text=True, timeout=30,
        )
        if client.returncode != 0:
            fail(f"repro client fleet_status failed: {client.stderr}")
        reply = json.loads(client.stdout)
        if not reply["ok"] or len(reply["result"]["workers"]) != WORKERS:
            fail(f"fleet_status from the CLI process is wrong: {client.stdout}")
        server.send_signal(signal.SIGINT)
        out, _ = server.communicate(timeout=60)
        if server.returncode != 0:
            fail(f"repro serve --workers exited {server.returncode} on SIGINT\n{out}")
        if "replicas" not in out:
            fail(f"repro serve --workers did not report its fleet\n{out}")
        print("ok: repro serve --workers 2 answered fleet_status and drained on SIGINT")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def main() -> None:
    print(f"fleet smoke: {WORKERS} replicas against {FIXTURE.name}")
    with tempfile.TemporaryDirectory(prefix="fleet-smoke-") as tmp:
        root = Path(tmp)
        supervisor = FleetSupervisor(
            {"golden": FIXTURE},
            FleetConfig(workers=WORKERS, stats_interval_s=0.1),
        )
        with supervisor:
            print(
                f"fleet up on port {supervisor.port} "
                f"(listener={supervisor.listener})"
            )
            replies, elapsed = asyncio.run(
                fire_concurrent(
                    supervisor.host, supervisor.port, mixed_payloads(), concurrency=16
                )
            )
            print(f"ok: mixed workload {len(replies) / elapsed:.0f} rps")
            check_identity(replies)
            check_shared_residency(supervisor)
            check_fleet_status(supervisor)
            check_promotion_under_traffic(supervisor, root)
        print("ok: fleet drained cleanly")
    check_cli_process()
    print("fleet smoke passed")


if __name__ == "__main__":
    main()
