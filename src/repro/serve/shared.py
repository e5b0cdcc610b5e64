"""The fleet's shared stats block (serving layer).

:class:`FleetStatsBlock` is a fixed-layout int64 block of per-replica
serving counters in one ``multiprocessing.shared_memory`` segment.  Each
replica owns exactly one row (single writer, monotonically
non-decreasing counts, so a reader sampling mid-update only ever lags —
it never sees invented history); the supervisor owns the per-replica
restart counters and aggregates everything for the ``fleet_status`` op.
The model artifacts are not shared: each replica builds its pipelines
from the bytes the supervisor validated (:mod:`repro.serve.fleet`).

**Lifecycle.**  The supervisor creates and unlinks the block; replicas
attach and close.  Under the ``fork`` start method (the fleet default)
every process shares the parent's ``resource_tracker``, so the
creator's single registration is authoritative and attachers must not
touch it.  Under ``spawn`` each attacher gets its *own* tracker, whose
attach-time registration would unlink the block when that one process
exits, yanking it from under its siblings (bpo-39959; no ``track=False``
before Python 3.13) — spawn-context attachers pass ``untrack=True`` to
undo the registration.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.perf.cache import CacheStats
from repro.serve.metrics import FLEET_COUNTER_FIELDS, LATENCY_BUCKETS_MS

#: Per-row bookkeeping fields preceding the serve counters.
STATS_META_FIELDS = ("pid", "port", "epoch", "heartbeat_us", "attached")
#: Cache counters appended after the latency fields.
STATS_CACHE_FIELDS = ("cache_hits", "cache_misses", "cache_evictions")

_N_LATENCY = len(LATENCY_BUCKETS_MS) + 1
_ROW_FIELDS: Tuple[str, ...] = (
    STATS_META_FIELDS
    + FLEET_COUNTER_FIELDS
    + tuple(f"lat_bucket_{i}" for i in range(_N_LATENCY))
    + ("latency_sum_us", "latency_max_us")
    + STATS_CACHE_FIELDS
)
_HEADER_WORDS = 4
_STATS_MAGIC = 0x52505246  # "RPRF"


@dataclass
class WorkerRow:
    """One replica's decoded stats row."""

    index: int
    pid: int
    port: int
    epoch: int
    heartbeat_us: int
    attached: bool
    counters: Dict[str, int]
    latency_counts: List[int]
    latency_sum_us: int
    latency_max_us: int
    cache: CacheStats
    restarts: int


class FleetStatsBlock:
    """Fixed-layout shared int64 stats: one row per replica.

    Layout: ``[magic, workers, row_words, reserved]`` header, then a
    supervisor-owned ``restarts`` word per replica, then ``workers``
    rows of :data:`_ROW_FIELDS` words.  Every word is an int64; every
    counter is monotonically non-decreasing, so unsynchronized reads are
    safe (a torn sample can only lag the true totals).
    """

    ROW_FIELDS = _ROW_FIELDS

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self._shm = shm
        self._owner = owner
        header = np.ndarray((_HEADER_WORDS,), dtype=np.int64, buffer=shm.buf)
        if header[0] != _STATS_MAGIC:
            raise ModelError(
                f"shared segment {shm.name!r} is not a fleet stats block"
            )
        self.workers = int(header[1])
        row_words = int(header[2])
        if row_words != len(_ROW_FIELDS):
            raise ModelError(
                f"fleet stats block {shm.name!r} has {row_words}-word rows; "
                f"this build expects {len(_ROW_FIELDS)} (version skew)"
            )
        base = _HEADER_WORDS
        self._restarts = np.ndarray(
            (self.workers,), dtype=np.int64, buffer=shm.buf, offset=base * 8
        )
        self._rows = np.ndarray(
            (self.workers, row_words),
            dtype=np.int64,
            buffer=shm.buf,
            offset=(base + self.workers) * 8,
        )

    @classmethod
    def create(cls, workers: int) -> "FleetStatsBlock":
        if workers < 1:
            raise ModelError(f"fleet stats block needs >= 1 worker, got {workers}")
        words = _HEADER_WORDS + workers + workers * len(_ROW_FIELDS)
        shm = shared_memory.SharedMemory(create=True, size=words * 8)
        header = np.ndarray((_HEADER_WORDS,), dtype=np.int64, buffer=shm.buf)
        header[:] = (_STATS_MAGIC, workers, len(_ROW_FIELDS), 0)
        block = cls(shm, owner=True)
        block._restarts[:] = 0
        block._rows[:] = 0
        return block

    @classmethod
    def attach(cls, name: str, untrack: bool = False) -> "FleetStatsBlock":
        """Attach to a block another process created, optionally undoing
        the tracker registration (see module docstring: required under
        ``spawn``, wrong under ``fork``)."""
        shm = shared_memory.SharedMemory(name=name)
        if untrack:
            try:  # no ``track=False`` before Python 3.13; undo the registration
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals vary
                pass
        return cls(shm, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- replica side (single writer per row) --------------------------------

    def publish(
        self,
        index: int,
        *,
        pid: int,
        port: int,
        epoch: int,
        heartbeat_us: int,
        counters: Sequence[int],
        latency_counts: Sequence[int],
        latency_sum_us: int,
        latency_max_us: int,
        cache: Tuple[int, int, int],
    ) -> None:
        """Overwrite row ``index`` with a replica's current totals."""
        if len(counters) != len(FLEET_COUNTER_FIELDS):
            raise ModelError(
                f"expected {len(FLEET_COUNTER_FIELDS)} counters, got {len(counters)}"
            )
        if len(latency_counts) != _N_LATENCY:
            raise ModelError(
                f"expected {_N_LATENCY} latency buckets, got {len(latency_counts)}"
            )
        row = [pid, port, epoch, heartbeat_us, 1]
        row.extend(int(c) for c in counters)
        row.extend(int(c) for c in latency_counts)
        row.extend((int(latency_sum_us), int(latency_max_us)))
        row.extend(int(c) for c in cache)
        self._rows[index, :] = row

    def mark_detached(self, index: int) -> None:
        """Freeze a row's counters but stop counting it as live."""
        self._rows[index, _ROW_FIELDS.index("attached")] = 0

    # -- supervisor side -----------------------------------------------------

    def bump_restart(self, index: int) -> int:
        self._restarts[index] += 1
        return int(self._restarts[index])

    def restarts(self) -> List[int]:
        return [int(v) for v in self._restarts]

    def row(self, index: int) -> WorkerRow:
        raw = [int(v) for v in self._rows[index]]
        fields = dict(zip(_ROW_FIELDS, raw))
        n_meta = len(STATS_META_FIELDS)
        n_counters = len(FLEET_COUNTER_FIELDS)
        counters = dict(
            zip(FLEET_COUNTER_FIELDS, raw[n_meta:n_meta + n_counters])
        )
        lat_base = n_meta + n_counters
        return WorkerRow(
            index=index,
            pid=fields["pid"],
            port=fields["port"],
            epoch=fields["epoch"],
            heartbeat_us=fields["heartbeat_us"],
            attached=bool(fields["attached"]),
            counters=counters,
            latency_counts=raw[lat_base:lat_base + _N_LATENCY],
            latency_sum_us=fields["latency_sum_us"],
            latency_max_us=fields["latency_max_us"],
            cache=CacheStats.from_tuple(
                (
                    fields["cache_hits"],
                    fields["cache_misses"],
                    fields["cache_evictions"],
                )
            ),
            restarts=int(self._restarts[index]),
        )

    def rows(self) -> List[WorkerRow]:
        return [self.row(i) for i in range(self.workers)]

    def aggregate(self) -> Dict[str, object]:
        """Fleet-wide rollup for the ``fleet_status`` op."""
        from repro.serve.metrics import LatencyHistogram

        totals = {field: 0 for field in FLEET_COUNTER_FIELDS}
        latency = LatencyHistogram()
        cache = CacheStats()
        per_worker: List[Dict[str, object]] = []
        for row in self.rows():
            if row.pid:
                for field, value in row.counters.items():
                    totals[field] += value
                latency.merge(
                    LatencyHistogram.from_counts(
                        row.latency_counts,
                        sum_ms=row.latency_sum_us / 1e3,
                        max_ms=row.latency_max_us / 1e3,
                    )
                )
                cache.merge(row.cache)
            per_worker.append(
                {
                    "index": row.index,
                    "pid": row.pid,
                    "port": row.port,
                    "epoch": row.epoch,
                    "attached": row.attached,
                    "restarts": row.restarts,
                    "requests": row.counters.get("requests", 0),
                    "shed": row.counters.get("shed", 0),
                }
            )
        return {
            "workers": per_worker,
            "totals": totals,
            "latency": latency.to_dict(),
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": round(cache.hit_rate, 4),
            },
            "restarts": self.restarts(),
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._restarts = None
        self._rows = None
        self._shm.close()

    def unlink(self) -> None:
        if self._owner:
            self._shm.unlink()


__all__ = [
    "FleetStatsBlock",
    "WorkerRow",
    "STATS_META_FIELDS",
    "STATS_CACHE_FIELDS",
]
