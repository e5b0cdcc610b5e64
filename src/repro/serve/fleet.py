"""Sharded multi-process serving fleet (scale-out over one port).

One :class:`FleetSupervisor` process owns the shared state; N replica
processes each run the existing single-process stack unchanged — an
:class:`~repro.serve.server.EstimationServer` + ``MicroBatcher`` +
``ModelRegistry`` — so every correctness property of PR 3 (bitwise
identity, graceful drain, typed shedding) holds per replica, and the
fleet adds only *placement*:

**Accept sharding.**  Where the OS supports ``SO_REUSEPORT`` (Linux),
every replica listens on the same ``(host, port)`` and the kernel
load-balances accepted connections — no userspace hop.  Elsewhere (or
with ``listener="router"``) replicas listen on private ports and a
lightweight asyncio byte-splicing router round-robins accepted
connections across them.

**Validated artifacts.**  The supervisor reads each served pipeline
directory once and builds it once, so a corrupt directory fails in the
supervisor, never in a replica.  It keeps each generation's artifact
bytes, their origins and the fingerprint they build, and hands them to
every replica it spawns or respawns as process arguments (under
``fork`` nothing is copied).  Each replica builds its own pipeline from
those bytes and checks that it has that fingerprint
(:meth:`~repro.serve.registry.ModelRegistry.fleet_entry`).  A respawned
replica therefore serves the current generation, whatever has happened
on disk since.

**Two-phase promotion.**  :meth:`FleetSupervisor.promote` — the same
``(name, directory)`` signature as :meth:`ModelRegistry.promote`, so a
:class:`~repro.calibrate.manager.Calibrator` drives a whole fleet
exactly as it drives one registry — validates the candidate once, then:

1. *prepare*: every replica reads the candidate directory and builds
   its entry **beside** the live one, which must have the fingerprint
   the supervisor validated (a directory rewritten in between aborts
   the transaction);
2. *commit*: only after **all** replicas acked prepare, each installs
   the staged entry (one dict assignment on its event loop).

Control messages stay small (a name, a directory, a fingerprint):
``Connection.send`` has no timeout, so artifact bytes sent down a
replica's pipe could block the supervisor, while it holds its lock, on
a replica that is alive but not reading.

A replica therefore never serves a mix: before its commit it answers
with the old fingerprint, after with the new — and because every
replica had the candidate staged before *any* committed, the fleet
window where old and new answers coexist is bounded by one in-flight
batch per replica, each reply self-labeled by its ``fingerprint``
field.  A prepare failure on any replica aborts the transaction with
every replica still serving the old generation.

**Crash resilience.**  A monitor thread watches worker sentinels and
respawns dead replicas (new epoch, restart counted in the shared stats
block); the survivors keep accepting the whole time.

**Fleet stats.**  Each replica publishes its counters into a
:class:`~repro.serve.shared.FleetStatsBlock` row a few times per
second; any replica answers the ``fleet_status`` op by aggregating the
block, so one client connection sees the whole fleet.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.core.persistence import pipeline_from_blobs, read_pipeline_blobs
from repro.errors import ReproError
from repro.perf.parallel import default_worker_count
from repro.serve.shared import FleetStatsBlock


#: Default cap on auto-sized fleets (``workers=0``): beyond the CPU
#: count there is nothing left to shard.
MAX_AUTO_WORKERS = 16


class _Generation(NamedTuple):
    """One served generation: a directory's artifact bytes and their
    origins, and the fingerprint of the pipeline they build."""

    directory: Path
    blobs: Dict[str, bytes]
    origins: Dict[str, str]
    fingerprint: str


def _validated(directory: Path | str) -> _Generation:
    """Read ``directory`` once and build it once: the generation a
    supervisor hands its replicas (a corrupt directory raises here)."""
    blobs, origins = read_pipeline_blobs(directory)
    fingerprint = pipeline_from_blobs(blobs, origins).estimate_cache.fingerprint
    return _Generation(Path(directory), blobs, origins, fingerprint)


def reuse_port_supported() -> bool:
    """Whether this OS can shard one listening port across processes."""
    return hasattr(socket, "SO_REUSEPORT")


@dataclass
class FleetConfig:
    """Knobs of a serving fleet (everything else inherits the
    single-process server defaults)."""

    workers: int = 0  #: 0 = one per available CPU (affinity/cgroup-aware)
    host: str = "127.0.0.1"
    port: int = 0  #: 0 = pick an ephemeral port
    listener: str = "auto"  #: ``auto`` | ``reuseport`` | ``router``
    max_pending: int = 256
    max_batch: int = 64
    cache_capacity: Optional[int] = 4096
    stats_interval_s: float = 0.2
    ready_timeout_s: float = 60.0
    promote_timeout_s: float = 60.0
    drain_timeout_s: float = 30.0
    #: ``fork`` shares the parent's page cache and resource tracker
    #: (preferred); ``spawn`` is the portable fallback.
    start_method: str = field(
        default_factory=lambda: (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
    )

    def resolve_listener(self) -> str:
        if self.listener == "auto":
            return "reuseport" if reuse_port_supported() else "router"
        if self.listener not in ("reuseport", "router"):
            raise ReproError(
                f"unknown listener mode {self.listener!r} "
                f"(want auto, reuseport or router)"
            )
        if self.listener == "reuseport" and not reuse_port_supported():
            raise ReproError("this platform has no SO_REUSEPORT; use listener='router'")
        return self.listener

    def resolve_workers(self) -> int:
        if self.workers < 0:
            raise ReproError(f"workers must be >= 0, got {self.workers}")
        if self.workers == 0:
            return default_worker_count(cap=MAX_AUTO_WORKERS)
        return self.workers


# -- worker process ------------------------------------------------------------


class _WorkerFleetView:
    """The replica-side answerer of the ``fleet_status`` op."""

    def __init__(
        self, block: FleetStatsBlock, index: int, listener: str, port: int, publish=None
    ):
        self.block = block
        self.index = index
        self.listener = listener
        self.port = port
        self.publish = publish

    def status(self) -> Dict[str, object]:
        if self.publish is not None:
            self.publish()  # freshen this replica's own row; peers lag
            # by at most one stats interval
        status = self.block.aggregate()
        status.update(
            {
                "fleet": True,
                "listener": self.listener,
                "port": self.port,
                "answered_by": self.index,
            }
        )
        return status


async def _worker_async(
    index: int,
    epoch: int,
    config: FleetConfig,
    listener: str,
    served: Dict[str, _Generation],
    stats_name: str,
    conn,
) -> None:
    # Local import: keep module import light for the spawn start method.
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import EstimationServer

    block = FleetStatsBlock.attach(stats_name, untrack=config.start_method == "spawn")
    registry = ModelRegistry(cache_capacity=config.cache_capacity)
    for name in sorted(served):
        registry.install_entry(registry.fleet_entry(name, *served[name]))

    reuseport = listener == "reuseport"
    server = EstimationServer(
        registry,
        host=config.host,
        port=config.port if reuseport else 0,
        max_pending=config.max_pending,
        max_batch=config.max_batch,
        refresh_interval_s=None,  # fleet entries never watch disk
        reuse_port=reuseport,
    )
    host, port = await server.start()

    def publish() -> None:
        metrics = server.metrics
        hist = metrics.aggregate_latency()
        block.publish(
            index,
            pid=os.getpid(),
            port=port,
            epoch=epoch,
            heartbeat_us=int(time.monotonic() * 1e6),
            counters=metrics.fleet_counter_values(),
            latency_counts=hist.counts,
            latency_sum_us=int(hist.sum_ms * 1e3),
            latency_max_us=int(hist.max_ms * 1e3),
            cache=registry.aggregate_cache_stats().as_tuple(),
        )

    server.fleet = _WorkerFleetView(
        block, index, listener, config.port or port, publish=publish
    )
    publish()
    conn.send(("ready", index, port, os.getpid()))

    loop = asyncio.get_running_loop()
    control: asyncio.Queue = asyncio.Queue()

    def on_control_readable() -> None:
        try:
            control.put_nowait(conn.recv())
        except (EOFError, OSError):  # supervisor went away; drain below
            loop.remove_reader(conn.fileno())
            control.put_nowait(("drain",))

    loop.add_reader(conn.fileno(), on_control_readable)

    staged: Dict[int, object] = {}
    draining = False
    get: Optional[asyncio.Task] = None
    while not draining:
        # Keep one pending get() across timeouts instead of
        # cancel-and-recreate: a cancelled Queue.get can eat an item.
        if get is None:
            get = loop.create_task(control.get())
        done, _ = await asyncio.wait({get}, timeout=config.stats_interval_s)
        if not done:
            publish()
            continue
        message = get.result()
        get = None
        kind = message[0]
        if kind == "prepare":
            _, txn, name, directory, fingerprint = message
            try:
                blobs, origins = read_pipeline_blobs(directory)
                staged[txn] = registry.fleet_entry(name, directory, blobs, origins, fingerprint)
                conn.send(("prepared", index, txn, None))
            except Exception as exc:  # the supervisor aborts the txn
                conn.send(("prepared", index, txn, f"{type(exc).__name__}: {exc}"))
        elif kind == "commit":
            _, txn = message
            entry = staged.pop(txn)
            # One dict assignment on the event loop: in-flight batches
            # keep the old entry, no later request sees it.
            registry.install_entry(entry)
            server.metrics.promotions += 1
            publish()
            conn.send(("committed", index, txn, entry.fingerprint))
        elif kind == "abort":
            _, txn = message
            staged.pop(txn, None)
            conn.send(("aborted", index, txn))
        elif kind == "drain":
            draining = True
        else:  # pragma: no cover - protocol drift guard
            conn.send(("error", index, f"unknown control message {kind!r}"))

    if get is not None:
        get.cancel()
    try:
        loop.remove_reader(conn.fileno())
    except (OSError, ValueError):  # already removed on EOF
        pass
    await server.shutdown()
    publish()
    block.mark_detached(index)
    try:
        conn.send(("drained", index, server.metrics.total_requests))
    except (OSError, BrokenPipeError):  # supervisor already gone
        pass


def _worker_main(
    index: int,
    epoch: int,
    config: FleetConfig,
    listener: str,
    served: Dict[str, _Generation],
    stats_name: str,
    conn,
) -> None:
    # The supervisor owns SIGINT (Ctrl-C drains the whole fleet in
    # order); replicas must not die out from under it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    asyncio.run(
        _worker_async(index, epoch, config, listener, served, stats_name, conn)
    )


# -- front router (fallback listener) ------------------------------------------


class _FrontRouter:
    """Round-robin TCP splicer for platforms without ``SO_REUSEPORT``.

    Runs its own event loop in a daemon thread; each accepted connection
    is pinned to one backend replica for its lifetime (the JSON-lines
    protocol is connection-oriented), successive connections rotate.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._backends: List[Tuple[str, int]] = []
        self._next = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def set_backends(self, backends: List[Tuple[str, int]]) -> None:
        loop = self._loop

        def update() -> None:
            self._backends = list(backends)

        if loop is not None:
            loop.call_soon_threadsafe(update)
        else:
            update()

    def start(self, backends: List[Tuple[str, int]]) -> Tuple[str, int]:
        self._backends = list(backends)
        self._thread = threading.Thread(
            target=self._run, name="repro-fleet-router", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise ReproError(f"fleet router failed to start: {self._error}")
        if not self._ready.is_set():
            raise ReproError("fleet router did not come up within 30s")
        return (self.host, self.port)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # pragma: no cover - surfaced via start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = self._loop.create_future()
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop
        # Pumps hold their own sockets; closing the listener is enough
        # for shutdown — the supervisor drains replicas afterwards.

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if not self._backends:
            writer.close()
            return
        backend = self._backends[self._next % len(self._backends)]
        self._next += 1
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(*backend)
        except OSError:
            writer.close()
            return

        async def pump(src: asyncio.StreamReader, dst: asyncio.StreamWriter) -> None:
            try:
                while True:
                    data = await src.read(65536)
                    if not data:
                        break
                    dst.write(data)
                    await dst.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                try:
                    dst.close()
                except RuntimeError:
                    pass

        await asyncio.gather(
            pump(reader, upstream_writer), pump(upstream_reader, writer)
        )

    def stop(self) -> None:
        loop, stop = self._loop, getattr(self, "_stop", None)
        if loop is not None and stop is not None:

            def finish() -> None:
                if not stop.done():
                    stop.set_result(None)

            loop.call_soon_threadsafe(finish)
        if self._thread is not None:
            self._thread.join(timeout=10.0)


# -- supervisor ----------------------------------------------------------------


@dataclass
class _Worker:
    index: int
    epoch: int
    process: multiprocessing.process.BaseProcess
    conn: object  #: supervisor end of the control pipe
    port: int = 0
    draining: bool = False

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class FleetSupervisor:
    """Owns the served generations, the stats block, and N replicas."""

    def __init__(
        self,
        pipelines: Mapping[str, Path | str],
        config: Optional[FleetConfig] = None,
    ):
        if not pipelines:
            raise ReproError("a fleet needs at least one pipeline to serve")
        self.pipelines: Dict[str, Path] = {
            name: Path(directory) for name, directory in pipelines.items()
        }
        self.config = config or FleetConfig()
        self.listener = self.config.resolve_listener()
        self.workers = self.config.resolve_workers()
        self._ctx = multiprocessing.get_context(self.config.start_method)
        self._served: Dict[str, _Generation] = {}
        self._block: Optional[FleetStatsBlock] = None
        self._workers: List[_Worker] = []
        self._router: Optional[_FrontRouter] = None
        self._reserve_socket: Optional[socket.socket] = None
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._lock = threading.RLock()
        self._txn = 0
        self._started = False
        self.host = self.config.host
        self.port = self.config.port

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Validate every pipeline, spawn and wait for every replica;
        returns the public ``(host, port)`` clients should connect to."""
        if self._started:
            raise ReproError("fleet already started")
        self._started = True
        for name, directory in self.pipelines.items():
            self._served[name] = _validated(directory)
        self._block = FleetStatsBlock.create(self.workers)

        if self.listener == "reuseport":
            # Reserve the port for the fleet's lifetime with a bound,
            # non-listening SO_REUSEPORT socket: replicas (re)bind it
            # freely, nothing else on the host can take it, and a full
            # respawn can never lose it.
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, self.port))
            self.port = sock.getsockname()[1]
            self.config = _replace_port(self.config, self.port)
            self._reserve_socket = sock

        with self._lock:
            for index in range(self.workers):
                self._spawn(index, epoch=1)
            self._await_ready(range(self.workers))

        if self.listener == "router":
            self._router = _FrontRouter(self.host, self.port)
            _, self.port = self._router.start(self._backend_addresses())

        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-fleet-monitor", daemon=True
        )
        self._monitor.start()
        return (self.host, self.port)

    def _spawn(self, index: int, epoch: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                index,
                epoch,
                self.config,
                self.listener,
                self._served,
                self._block.name,
                child_conn,
            ),
            name=f"repro-serve-worker-{index}",
            daemon=True,  # never outlive a crashed supervisor
        )
        process.start()
        child_conn.close()
        if index < len(self._workers):
            self._workers[index] = _Worker(index, epoch, process, parent_conn)
        else:
            self._workers.append(_Worker(index, epoch, process, parent_conn))

    def _await_ready(self, indexes) -> None:
        deadline = time.monotonic() + self.config.ready_timeout_s
        for index in indexes:
            worker = self._workers[index]
            message = self._recv(worker, deadline, expected="ready")
            worker.port = int(message[2])

    def _recv(self, worker: _Worker, deadline: float, expected: str):
        """One control reply from ``worker``, or raise on timeout/death."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ReproError(
                    f"fleet worker {worker.index} sent no {expected!r} "
                    f"within {self.config.ready_timeout_s}s"
                )
            if worker.conn.poll(min(remaining, 0.1)):
                message = worker.conn.recv()
                if message[0] == expected:
                    return message
                continue  # stale message from a previous phase
            if not worker.alive:
                raise ReproError(
                    f"fleet worker {worker.index} died before sending "
                    f"{expected!r} (exit code {worker.process.exitcode})"
                )

    def _backend_addresses(self) -> List[Tuple[str, int]]:
        return [
            (self.host, worker.port) for worker in self._workers if worker.alive
        ]

    # -- crash monitor -------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.is_set():
            with self._lock:
                dead = [
                    worker
                    for worker in self._workers
                    if not worker.alive and not worker.draining
                ]
                for worker in dead:
                    self._block.bump_restart(worker.index)
                    try:
                        self._spawn(worker.index, epoch=worker.epoch + 1)
                        self._await_ready([worker.index])
                    except ReproError:
                        continue  # retried on the next monitor pass
                if dead and self._router is not None:
                    self._router.set_backends(self._backend_addresses())
                sentinels = [
                    worker.process.sentinel
                    for worker in self._workers
                    if worker.alive and not worker.draining
                ]
            if sentinels:
                multiprocessing.connection.wait(sentinels, timeout=0.5)
            else:
                self._monitor_stop.wait(0.5)

    # -- promotion (two-phase) -----------------------------------------------

    def promote(self, name: str, directory: Path | str) -> Dict[str, object]:
        """Fan a model promotion out to every replica, atomically per
        replica and all-or-nothing across the fleet.

        Same signature as :meth:`ModelRegistry.promote`, so a
        :class:`~repro.calibrate.manager.Calibrator` given a fleet
        supervisor as its ``registry`` promotes all replicas at once.
        See the module docstring for the two-phase protocol.
        """
        if name not in self._served:
            raise ReproError(
                f"no pipeline named {name!r} "
                f"(serving: {', '.join(sorted(self._served)) or '(none)'})"
            )
        candidate = _validated(directory)
        with self._lock:
            self._txn += 1
            txn = self._txn
            live = [worker for worker in self._workers if worker.alive]
            deadline = time.monotonic() + self.config.promote_timeout_s

            # Phase 1 — prepare: every replica must stage and verify the
            # candidate before any replica is told to serve it.
            try:
                failures: List[str] = []
                for worker in live:
                    try:
                        worker.conn.send(("prepare", txn, name, str(candidate.directory),
                                          candidate.fingerprint))
                    except OSError as exc:
                        failures.append(f"worker {worker.index}: {exc}")
                for worker in live:
                    try:
                        message = self._recv(worker, deadline, expected="prepared")
                    except ReproError as exc:
                        failures.append(str(exc))
                        continue
                    if message[3] is not None:
                        failures.append(f"worker {worker.index}: {message[3]}")
                if failures:
                    raise ReproError(
                        "fleet promotion aborted in prepare: " + "; ".join(failures)
                    )
            except ReproError:
                for worker in live:
                    if worker.alive:
                        try:
                            worker.conn.send(("abort", txn))
                        except OSError:
                            pass
                raise

            # Phase 2 — commit: the transaction is decided.  A replica
            # dying here is not a rollback (its respawn serves the new
            # generation recorded below); the survivors all swap.
            committed = 0
            for worker in live:
                try:
                    worker.conn.send(("commit", txn))
                    self._recv(worker, deadline, expected="committed")
                    committed += 1
                except (ReproError, OSError):
                    continue
            self._served[name] = candidate
        return {
            "pipeline": name,
            "fingerprint": candidate.fingerprint,
            "directory": str(directory),
            "replicas": committed,
            "txn": txn,
        }

    # -- introspection ---------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Supervisor-side fleet rollup (same shape as the op reply)."""
        status = self._block.aggregate()
        status.update(
            {
                "fleet": True,
                "listener": self.listener,
                "port": self.port,
                "pipelines": {
                    name: generation.fingerprint
                    for name, generation in sorted(self._served.items())
                },
            }
        )
        return status

    def worker_pids(self) -> List[int]:
        with self._lock:
            return [worker.process.pid for worker in self._workers if worker.alive]

    def kill_worker(self, index: int) -> int:
        """Hard-kill one replica and reap it (crash-resilience tests);
        returns its pid.

        Every liveness probe (``is_alive``, a ``waitpid``) holds the lock:
        if two threads probe one exited child, the one whose ``waitpid``
        fails with ECHILD reports it alive.  Returns only once the exit
        code is recorded."""
        with self._lock:
            process = self._workers[index].process
            process.kill()
            process.join(timeout=10.0)
            if process.exitcode is None:
                raise ReproError(f"fleet worker {index} (pid {process.pid}) survived kill")
            return process.pid

    # -- shutdown --------------------------------------------------------------

    def shutdown(self) -> None:
        """Drain every replica, stop the router/monitor, release the
        stats block."""
        if not self._started:
            return
        self._monitor_stop.set()
        with self._lock:
            for worker in self._workers:
                worker.draining = True
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
        deadline = time.monotonic() + self.config.drain_timeout_s
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                worker.conn.send(("drain",))
                self._recv(worker, deadline, expected="drained")
            except (ReproError, OSError, EOFError):
                pass
            worker.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.alive:
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        if self._router is not None:
            self._router.stop()
        if self._reserve_socket is not None:
            self._reserve_socket.close()
        if self._block is not None:
            self._block.close()
            self._block.unlink()
        self._started = False

    def __enter__(self) -> "FleetSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _replace_port(config: FleetConfig, port: int) -> FleetConfig:
    from dataclasses import replace

    return replace(config, port=port)


__all__ = [
    "FleetConfig",
    "FleetSupervisor",
    "MAX_AUTO_WORKERS",
    "reuse_port_supported",
]
