"""The asyncio frontend: JSON-lines over TCP, graceful lifecycle.

:class:`EstimationServer` owns the socket, the per-connection read
loops, and the service lifecycle; everything model-shaped lives in the
registry and the batcher.  Per connection, every request line spawns its
own task, so a pipelining client gets genuinely concurrent handling (and
therefore micro-batching) over a single connection; replies carry the
request ``id`` because they may complete out of order.  Writes are
serialized per connection.  A line longer than :data:`MAX_LINE_BYTES`
gets a typed ``BadRequest`` reply (``id`` null), after which the server
ends that connection: the stream position is lost after the overrun.

Ops route two ways:

* data plane (``estimate``/``optimize``/``whatif``) — through the
  :class:`~repro.serve.batcher.MicroBatcher` (bounded queue, typed
  ``Overloaded`` shedding);
* control plane (``models``/``stats``/``reload``/``ping``) — answered
  inline, *not* queued, so health checks and reloads keep working while
  the data plane is saturated.

**Graceful shutdown** (:meth:`shutdown`) runs in strict order: stop
accepting connections, refuse new request lines (typed ``ShuttingDown``
replies), wait for every admitted request's handler task, drain the
batcher's in-flight work, then close the connections.  Nothing admitted
is ever dropped.

**Hot reload** is a periodic :meth:`ModelRegistry.refresh` task (plus
the explicit ``reload`` op); see :mod:`repro.serve.registry` for the
swap semantics.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, Optional, Set, Tuple

from repro.errors import ReproError
from repro.measure.record import MeasurementRecord
from repro.serve.batcher import MicroBatcher
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (
    BATCHED_OPS,
    ERROR_BAD_REQUEST,
    ERROR_SHUTTING_DOWN,
    ProtocolError,
    Request,
    encode_error,
    encode_exception,
    encode_ok,
    parse_request,
)
from repro.serve.registry import ModelRegistry

#: Longest request line a connection reads (asyncio's default stream
#: limit, made explicit so the overrun reply can name it).
MAX_LINE_BYTES = 64 * 1024


def _recover_id(text: str):
    """Best-effort request id of an unparseable line, for the error reply."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    return payload.get("id") if isinstance(payload, dict) else None


class EstimationServer:
    """One serving process: socket + batcher + registry + metrics."""

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 256,
        max_batch: int = 64,
        refresh_interval_s: Optional[float] = 0.5,
        calibrators: Optional[Dict[str, object]] = None,
        reuse_port: bool = False,
        fleet: Optional[object] = None,
    ):
        self.registry = registry
        self.host = host
        self.port = port
        #: Bind with ``SO_REUSEPORT`` so sibling replicas can share the
        #: port (the kernel load-balances accepted connections).
        self.reuse_port = reuse_port
        #: Duck-typed fleet view (``status() -> dict``) answering the
        #: ``fleet_status`` op; ``None`` outside a fleet.
        self.fleet = fleet
        self.metrics = ServeMetrics()
        # The registry mirrors reload failures into the service metrics
        # (satellite of the calibration loop: failed swaps are counted,
        # not silently skipped).
        if registry.metrics is None:
            registry.metrics = self.metrics
        #: pipeline name -> :class:`repro.calibrate.Calibrator` (duck-typed
        #: here so the serve layer never imports the calibrate package).
        self.calibrators: Dict[str, object] = dict(calibrators or {})
        for calibrator in self.calibrators.values():
            if getattr(calibrator, "metrics", None) is None:
                calibrator.metrics = self.metrics
        self.batcher = MicroBatcher(
            registry,
            metrics=self.metrics,
            max_pending=max_pending,
            max_batch=max_batch,
        )
        self.refresh_interval_s = refresh_interval_s
        self._server: Optional[asyncio.Server] = None
        self._refresh_task: Optional[asyncio.Task] = None
        self._request_tasks: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._draining = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``
        (useful with ``port=0``)."""
        self.batcher.start()
        kwargs = {"reuse_port": True} if self.reuse_port else {}
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES, **kwargs
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        if self.refresh_interval_s:
            self._refresh_task = asyncio.get_running_loop().create_task(
                self._refresh_loop()
            )
        return (self.host, self.port)

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    async def shutdown(self) -> None:
        """Graceful stop: see module docstring for the ordering."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._refresh_task is not None:
            self._refresh_task.cancel()
            try:
                await self._refresh_task
            except asyncio.CancelledError:
                pass
        # Admitted requests finish: their tasks await batcher futures,
        # which resolve as the drain empties the queue.
        drain = asyncio.get_running_loop().create_task(
            self.batcher.drain_and_stop()
        )
        if self._request_tasks:
            await asyncio.gather(*self._request_tasks, return_exceptions=True)
        await drain
        for writer in list(self._writers):
            writer.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def _refresh_loop(self) -> None:
        while True:
            await asyncio.sleep(self.refresh_interval_s)
            swapped = self.registry.refresh()
            if swapped:
                self.metrics.reloads += len(swapped)

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections += 1
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran MAX_LINE_BYTES
                    await self._reject_long_line(reader, writer, write_lock)
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._serve_line(text, writer, write_lock)
                )
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _reject_long_line(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        """Answer a line that overran :data:`MAX_LINE_BYTES`, then end the
        connection: the stream position is lost after an overrun.

        Input still arriving is read and dropped until the client closes,
        because closing with unread input resets the connection, which
        can destroy the reply before the client has read it.
        """
        started = time.perf_counter()
        reply = encode_error(
            None,
            ERROR_BAD_REQUEST,
            f"request line exceeds the {MAX_LINE_BYTES}-byte line limit; "
            "closing the connection",
        )
        await self._write(reply, writer, lock)
        self.metrics.record_request("invalid", time.perf_counter() - started, error=True)
        try:
            writer.write_eof()
        except OSError:  # the client has reset the connection already
            return
        while await reader.read(MAX_LINE_BYTES):
            pass

    async def _serve_line(
        self, text: str, writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        started = time.perf_counter()
        op = "invalid"
        error = False
        shed = False
        request = None
        try:
            request = parse_request(text)
            op = request.op
            if self._draining:
                raise ProtocolError("service is shutting down", ERROR_SHUTTING_DOWN)
            reply = await self._dispatch(request)
        except Exception as exc:
            error = True
            shed = getattr(exc, "error_type", "") == "Overloaded"
            request_id = request.id if request is not None else _recover_id(text)
            reply = encode_exception(request_id, exc)
        await self._write(reply, writer, lock)
        self.metrics.record_request(
            op, time.perf_counter() - started, error=error, shed=shed
        )

    async def _write(
        self, reply: str, writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        async with lock:
            try:
                writer.write(reply.encode("utf-8") + b"\n")
                await writer.drain()
            except (ConnectionResetError, RuntimeError):
                pass  # client went away; nothing to tell it

    # -- dispatch -----------------------------------------------------------

    async def _dispatch(self, request: Request) -> str:
        if request.op in BATCHED_OPS:
            future = self.batcher.submit(request)
            result = await future
            return encode_ok(request.id, result)
        if request.op == "models":
            entry = self.registry.get(request.pipeline)
            return encode_ok(request.id, entry.model_inventory())
        if request.op == "stats":
            return encode_ok(
                request.id, self.metrics.to_dict(cache=self.registry.snapshot())
            )
        if request.op == "reload":
            swapped = self.registry.refresh(force=bool(request.params.get("force")))
            self.metrics.reloads += len(swapped)
            return encode_ok(
                request.id,
                {
                    "reloaded": swapped,
                    "checked": len(self.registry),
                    "errors": [
                        {"pipeline": name, "error": text}
                        for name, text in self.registry.last_reload_errors
                    ],
                },
            )
        if request.op == "ping":
            return encode_ok(
                request.id, {"pong": True, "pipelines": self.registry.names()}
            )
        if request.op == "observe":
            return encode_ok(request.id, self._observe(request))
        if request.op == "calibration":
            return encode_ok(request.id, self._calibration_status(request))
        if request.op == "fleet_status":
            if self.fleet is None:
                raise ProtocolError(
                    "this server is not part of a fleet "
                    "(start with 'repro serve --workers N')"
                )
            return encode_ok(request.id, self.fleet.status())
        return encode_error(request.id, "BadRequest", f"unhandled op {request.op!r}")

    # -- calibration ops ----------------------------------------------------

    def _calibrator_for(self, name: str):
        self.registry.get(name)  # UnknownPipeline for unserved names
        calibrator = self.calibrators.get(name)
        if calibrator is None:
            enabled = ", ".join(sorted(self.calibrators)) or "(none)"
            raise ProtocolError(
                f"pipeline {name!r} has no calibration loop attached "
                f"(calibrating: {enabled})"
            )
        return calibrator

    def _observe(self, request: Request) -> dict:
        """Ingest one observed run into the pipeline's calibration loop."""
        calibrator = self._calibrator_for(request.pipeline)
        try:
            record = MeasurementRecord.from_dict(request.params["record"])
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed 'record': {exc}") from exc
        source = request.params.get("source", "serve")
        if not isinstance(source, str):
            raise ProtocolError("'source' must be a string")
        return calibrator.ingest(record, source=source).to_dict()

    def _calibration_status(self, request: Request) -> dict:
        """Status of one calibration loop, or of all of them."""
        if request.pipeline is not None:
            return self._calibrator_for(request.pipeline).status()
        return {
            "pipelines": {
                name: calibrator.status()
                for name, calibrator in sorted(self.calibrators.items())
            }
        }
