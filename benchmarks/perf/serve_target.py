"""The server process the serve workloads drive.

An :class:`~repro.serve.server.EstimationServer` with the ``repro serve``
defaults (2 ms batch window, max_batch 64, max_pending 256, estimate
cache 4096) serving one saved pipeline, with hot-reload polling off so
no timer competes with the load.  ``--calibrate LOG`` attaches a
:class:`~repro.calibrate.Calibrator` on a file-backed observation log,
which ``repro serve`` has no flag for.

The process prints ``READY <port>`` once it listens, serves until
SIGTERM or SIGINT, shuts down gracefully and writes a JSON report to
``--report``: peak RSS, the CPU seconds spent between ``READY`` and the
end of the shutdown, and with ``--trace`` the spans of the serving
layers.  Tracing wraps public functions of the serving stack at run
time; the program's own files stay untouched.

Run by ``run.py``; by hand::

    PYTHONPATH=src python3 benchmarks/perf/serve_target.py \\
        --pipeline-dir DIR --name p --report report.json
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import json
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from spans import Tracer  # noqa: E402

from repro.calibrate import Calibrator, ObservationLog  # noqa: E402
from repro.serve import server as server_module  # noqa: E402
from repro.serve.batcher import MicroBatcher  # noqa: E402
from repro.serve.registry import ModelRegistry, RegistryEntry  # noqa: E402
from repro.serve.server import EstimationServer  # noqa: E402

#: perf_counter() at which the current request line's decode began; each
#: request line is served in its own task, so the value is per request.
_DECODE_STARTED: contextvars.ContextVar = contextvars.ContextVar("decode_started")


def instrument(tracer: Tracer) -> None:
    """Wrap the serving stack's public calls in spans.

    * ``protocol.decode`` / ``protocol.encode``: the request parser and
      the success-reply encoder, as the server module calls them;
    * ``server.sojourn``: decode start to encode end of one request (a
      success reply is always encoded after its request was decoded);
    * ``registry.cached_totals``, ``calibrate.ingest``: the calls that do
      an estimate's or an observation's model work;
    * ``batcher.queue_wait``: admission to the start of the batch that
      serves the request (read from the batcher's work items).
    """
    parse, encode = server_module.parse_request, server_module.encode_ok

    def parse_request(line):
        started = time.perf_counter()
        _DECODE_STARTED.set(started)
        try:
            return parse(line)
        finally:
            tracer.add("protocol.decode", time.perf_counter() - started)

    def encode_ok(request_id, result):
        started = time.perf_counter()
        try:
            return encode(request_id, result)
        finally:
            ended = time.perf_counter()
            tracer.add("protocol.encode", ended - started)
            tracer.add("server.sojourn", ended - _DECODE_STARTED.get())

    server_module.parse_request = parse_request
    server_module.encode_ok = encode_ok
    tracer.wrap(RegistryEntry, "cached_totals", "registry.cached_totals")
    tracer.wrap(Calibrator, "ingest", "calibrate.ingest")

    execute = MicroBatcher._execute

    def timed_execute(self, batch):
        started = time.perf_counter()
        for item in batch:
            tracer.add("batcher.queue_wait", started - item.enqueued)
        return execute(self, batch)

    MicroBatcher._execute = timed_execute


async def serve(args: argparse.Namespace, tracer: Tracer) -> float:
    """Serve until signalled; returns the CPU seconds spent serving."""
    registry = ModelRegistry()
    with tracer.span("registry.load"):
        registry.add(args.name, args.pipeline_dir)
    calibrators = {}
    if args.calibrate:
        calibrators[args.name] = Calibrator(
            args.name,
            pipeline_provider=lambda: registry.get(args.name).pipeline,
            log=ObservationLog(args.calibrate),
        )
    server = EstimationServer(registry, port=0, refresh_interval_s=None,
                              calibrators=calibrators)
    _, port = await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    ready_cpu = time.process_time()
    print(f"READY {port}", flush=True)
    await stop.wait()
    await server.shutdown()
    for calibrator in calibrators.values():
        calibrator.log.close()
    return time.process_time() - ready_cpu


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pipeline-dir", required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--calibrate", help="observation log path (JSONL)")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = Tracer(enabled=args.trace)
    if args.trace:
        instrument(tracer)
    serving_cpu_s = asyncio.run(serve(args, tracer))
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "serving_cpu_s": serving_cpu_s,
        "spans": tracer.to_dict(),
    }
    Path(args.report).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
