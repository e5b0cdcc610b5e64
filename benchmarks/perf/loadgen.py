"""Open-loop load from one process against a server subprocess.

All load comes from one asyncio thread over two pipelined connections
(the host this benchmark was written on has two CPUs: one for the
server, one for the load).  :func:`open_loop` sends requests at fixed
intervals whatever the server does, so a stall queues later requests.
Each request is timed from when it was *due*, which charges that
queueing to the requests that suffered it, and the generator reports how
late it sent each one.

Every reply is passed to a ``check(payload, reply) -> bool`` callback;
a reply that is not ``ok`` or fails the check counts as failed.
"""

from __future__ import annotations

import asyncio
import json
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

TARGET = Path(__file__).with_name("serve_target.py")
CONNECTIONS = 2
#: Seconds a step may run past its schedule before it is abandoned.
GRACE_S = 30.0

Check = Callable[[dict, dict], bool]


class ServerProcess:
    """One ``serve_target.py`` subprocess serving a saved pipeline."""

    def __init__(
        self,
        pipeline_dir: Path,
        name: str,
        report: Path,
        calibrate_log: Optional[Path] = None,
        trace: bool = False,
    ):
        self.report = report
        self.command = [
            sys.executable, str(TARGET), "--pipeline-dir", str(pipeline_dir),
            "--name", name, "--report", str(report),
        ]
        if calibrate_log is not None:
            self.command += ["--calibrate", str(calibrate_log)]
        if trace:
            self.command.append("--trace")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> float:
        """Spawn the server; returns seconds from spawn to its first
        ``ping`` reply."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(self.command, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            raise RuntimeError(f"server did not start (got {line!r})")
        self.port = int(line.split()[1])
        reply = asyncio.run(request_once(self.port, {"op": "ping"}))
        if not reply.get("ok"):
            raise RuntimeError(f"server ping failed: {reply}")
        return time.perf_counter() - started

    def stop(self, timeout_s: float = 30.0) -> Dict[str, object]:
        """Graceful SIGTERM, wait for exit, return the server's report."""
        proc, self.proc = self.proc, None
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout_s)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise RuntimeError(f"server exited with code {proc.returncode}")
        return json.loads(self.report.read_text())

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            self.proc = None


async def request_once(port: int, payload: dict) -> dict:
    """One request on a fresh connection (control-plane ops)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(json.dumps(dict(payload, id=0)).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


@dataclass
class StepResult:
    """What one open-loop step measured (times in seconds)."""

    attempted: int = 0
    failed: int = 0
    #: Per request, from its due time to its reply.
    latencies: List[float] = field(default_factory=list)
    #: Per request, how late the generator sent it.
    lateness: List[float] = field(default_factory=list)


async def open_loop(
    port: int, payloads: Sequence[dict], rate: float, check: Check
) -> StepResult:
    """Send ``payloads`` at ``rate`` per second, round-robin over the
    connections, and wait for every reply."""
    loop = asyncio.get_running_loop()
    lines = [
        json.dumps(dict(payload, id=i)).encode() + b"\n"
        for i, payload in enumerate(payloads)
    ]
    count = len(lines)
    connections = [
        await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)
    ]
    result = StepResult(attempted=count, latencies=[0.0] * count)
    start = loop.time() + 0.01
    due = [start + i / rate for i in range(count)]
    done = asyncio.Event()
    received = 0

    async def read(reader) -> None:
        nonlocal received
        while received < count:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection mid-step")
            now = loop.time()
            reply = json.loads(line)
            i = reply["id"]
            result.latencies[i] = now - due[i]
            if not (reply.get("ok") and check(payloads[i], reply)):
                result.failed += 1
            received += 1
            if received == count:
                done.set()

    readers = [loop.create_task(read(reader)) for reader, _ in connections]
    try:
        i = 0
        while i < count:
            now = loop.time()
            if due[i] > now:
                await asyncio.sleep(due[i] - now)
                continue
            while i < count and due[i] <= now:
                connections[i % CONNECTIONS][1].write(lines[i])
                result.lateness.append(now - due[i])
                i += 1
        await asyncio.wait_for(done.wait(), timeout=GRACE_S)
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in connections:
            writer.close()
        for _, writer in connections:
            await writer.wait_closed()
    return result
