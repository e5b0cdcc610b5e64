"""Zero-copy shared model artifacts and fleet stats (serving layer).

A fleet of N replica processes serving the same pipelines should pay
~1x the artifact load cost and ~1x the resident model memory, not Nx.
This module provides the two shared-memory primitives the fleet
(:mod:`repro.serve.fleet`) builds on:

:class:`ArtifactSegment`
    One ``multiprocessing.shared_memory`` segment holding a saved
    pipeline's artifact bytes, the flattened model-coefficient array,
    and precomputed :class:`~repro.hpl.schedule.PanelTable` geometry.
    The supervisor packs it once (:func:`pack_pipeline_segment`); every
    replica attaches and reconstitutes its pipeline straight from the
    shared buffer (:func:`load_pipeline_from_segment`) — zero disk I/O,
    and the numpy geometry arrays are read-only *views* into the
    segment, so the kernel keeps one physical copy for the whole fleet.

:class:`FleetStatsBlock`
    A fixed-layout int64 block of per-replica serving counters.  Each
    replica owns exactly one row (single writer, monotonically
    non-decreasing counts, so a reader sampling mid-update only ever
    lags — it never sees invented history); the supervisor owns the
    per-replica restart counters and aggregates everything for the
    ``fleet_status`` op.

**Torn-artifact detection.**  ``load_pipeline_from_segment`` re-derives
the coefficient array from the parsed models and verifies it is bitwise
equal to the packed array.  The two representations are written
together at pack time, so any corruption — a half-written segment, a
reader racing a swap that the two-phase promotion protocol should have
made impossible — fails loudly as a :class:`~repro.errors.ModelError`
instead of serving wrong numbers.

**Lifecycle.**  The supervisor creates and unlinks segments; replicas
attach and close.  Under the ``fork`` start method (the fleet default)
every process shares the parent's ``resource_tracker``, so the
creator's single registration is authoritative and attachers must not
touch it.  Under ``spawn`` each attacher gets its *own* tracker, whose
attach-time registration would unlink the segment when that one process
exits, yanking it from under its siblings (bpo-39959; no ``track=False``
before Python 3.13) — spawn-context attachers pass ``untrack=True`` to
undo the registration.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.model_api import model_to_dict
from repro.core.persistence import pipeline_from_blobs, read_pipeline_blobs
from repro.core.pipeline import EstimationPipeline
from repro.errors import ModelError
from repro.hpl.schedule import HPLParameters, PanelTable, _build_panel_table
from repro.perf.cache import CacheStats
from repro.serve.metrics import FLEET_COUNTER_FIELDS, LATENCY_BUCKETS_MS

_MAGIC = b"RPROSEG1"
_ALIGN = 64

#: ``to_dict`` keys that are identity/metadata, not coefficients (the
#: same partition ``repro.cli`` uses for the model inventory listing).
_MODEL_META_KEYS = frozenset(
    ["kind", "p", "mi", "n_range", "p_range", "chisq_ta", "chisq_tc", "composed_from"]
)

#: Cap on precomputed panel tables per segment (matches the in-process
#: memo bound; a construction dataset touches far fewer keys).
MAX_PANEL_TABLES = 256

#: The per-table arrays shipped in a segment, in :class:`PanelTable`
#: field order.
_PANEL_ARRAY_FIELDS = (
    "owner", "width", "m_rows", "q", "pfact_flops",
    "update_flops", "laswp_bytes", "panel_nbytes",
)


def _attach(name: str, untrack: bool) -> shared_memory.SharedMemory:
    """Attach to an existing segment, optionally undoing the tracker
    registration (see module docstring: required under ``spawn``, wrong
    under ``fork``)."""
    shm = shared_memory.SharedMemory(name=name)
    if untrack:
        try:  # no ``track=False`` before Python 3.13; undo the registration
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    return shm


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class ArtifactSegment:
    """Named blobs + named numpy arrays in one shared-memory segment.

    Layout: an 8-byte magic, a little-endian ``uint64`` header length,
    a JSON header (``meta`` dict, blob/array directories with offsets
    into the payload), then the 64-byte-aligned payload.  Arrays are
    returned as read-only views into the shared buffer — no copies.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self._shm = shm
        self._owner = owner
        buf = shm.buf
        if bytes(buf[:8]) != _MAGIC:
            raise ModelError(
                f"shared segment {shm.name!r} has no artifact header "
                f"(bad magic); refusing to parse"
            )
        (header_len,) = struct.unpack_from("<Q", buf, 8)
        try:
            header = json.loads(bytes(buf[16:16 + header_len]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelError(
                f"corrupt header in shared segment {shm.name!r} ({exc})"
            ) from exc
        self.meta: Dict[str, object] = header.get("meta", {})
        self._blobs: Dict[str, Tuple[int, int]] = {
            name: (int(off), int(size))
            for name, (off, size) in header.get("blobs", {}).items()
        }
        self._arrays: Dict[str, Tuple[str, Tuple[int, ...], int]] = {
            name: (str(dtype), tuple(int(d) for d in shape), int(off))
            for name, (dtype, shape, off) in header.get("arrays", {}).items()
        }

    # -- construction --------------------------------------------------------

    @classmethod
    def pack(
        cls,
        meta: Mapping[str, object],
        blobs: Mapping[str, bytes],
        arrays: Mapping[str, np.ndarray],
    ) -> "ArtifactSegment":
        """Create a new segment holding ``blobs`` and ``arrays``."""
        blob_dir: Dict[str, List[int]] = {}
        array_dir: Dict[str, List[object]] = {}
        # Lay out the payload first against offset 0, then shift by the
        # header size (which depends on the directory JSON, which depends
        # on the offsets — resolved by computing relative offsets and one
        # fixed shift).
        offset = 0
        chunks: List[Tuple[int, bytes]] = []
        for name, blob in blobs.items():
            offset = _align(offset)
            blob_dir[name] = [offset, len(blob)]
            chunks.append((offset, bytes(blob)))
            offset += len(blob)
        contiguous: List[Tuple[int, np.ndarray]] = []
        for name, array in arrays.items():
            arr = np.ascontiguousarray(array)
            offset = _align(offset)
            array_dir[name] = [arr.dtype.str, list(arr.shape), offset]
            contiguous.append((offset, arr))
            offset += arr.nbytes
        payload_size = offset

        # The shift must not change the header length; pad the header to
        # a fixed alignment boundary so any directory size maps to the
        # same payload base.
        def header_bytes(shift: int) -> bytes:
            directory = {
                "meta": dict(meta),
                "blobs": {k: [v[0] + shift, v[1]] for k, v in blob_dir.items()},
                "arrays": {
                    k: [v[0], v[1], v[2] + shift] for k, v in array_dir.items()
                },
            }
            return json.dumps(directory, separators=(",", ":")).encode("utf-8")

        probe = header_bytes(0)
        base = _align(16 + len(probe) + 32)  # slack: offsets grow the JSON
        header = header_bytes(base)
        if 16 + len(header) > base:  # pragma: no cover - slack exhausted
            base = _align(16 + len(header) + 64)
            header = header_bytes(base)

        shm = shared_memory.SharedMemory(create=True, size=max(base + payload_size, 16))
        buf = shm.buf
        buf[:8] = _MAGIC
        struct.pack_into("<Q", buf, 8, len(header))
        buf[16:16 + len(header)] = header
        for off, blob in chunks:
            buf[base + off:base + off + len(blob)] = blob
        for off, arr in contiguous:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=buf, offset=base + off)
            view[...] = arr
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str, untrack: bool = False) -> "ArtifactSegment":
        """Attach to a segment packed by another process (non-owning)."""
        return cls(_attach(name, untrack), owner=False)

    # -- access --------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def size(self) -> int:
        return self._shm.size

    def blob_names(self) -> List[str]:
        return sorted(self._blobs)

    def blob(self, name: str) -> bytes:
        off, size = self._blobs[name]
        return bytes(self._shm.buf[off:off + size])

    def array_names(self) -> List[str]:
        return sorted(self._arrays)

    def array(self, name: str) -> np.ndarray:
        """Read-only zero-copy view of one packed array."""
        dtype, shape, off = self._arrays[name]
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=off)
        view.flags.writeable = False
        return view

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment (owner only; attached views stay valid
        until their processes close)."""
        if self._owner:
            self._shm.unlink()

    def __enter__(self) -> "ArtifactSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self._owner:
            try:
                self.unlink()
            except FileNotFoundError:
                pass


# -- pipeline segments ---------------------------------------------------------


def model_coefficients(pipeline: EstimationPipeline) -> np.ndarray:
    """Every model's numeric coefficients flattened to one float64 array.

    Deterministic order (store order, then sorted ``to_dict`` keys, meta
    keys excluded), so two pipelines with bitwise-identical models yield
    bitwise-identical arrays — the torn-artifact check in
    :func:`load_pipeline_from_segment` relies on exactly that.
    """
    values: List[float] = []
    for model in pipeline.models.models():
        data = model_to_dict(model)
        for key in sorted(data):
            if key in _MODEL_META_KEYS or key == "type":
                continue
            value = data[key]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values.append(float(value))
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, (int, float)) and not isinstance(item, bool):
                        values.append(float(item))
    return np.asarray(values, dtype=np.float64)


def _panel_table_keys(pipeline: EstimationPipeline) -> List[Tuple[int, int, int]]:
    """The ``(n, nb, p)`` panel-table keys this pipeline's workload spans
    (every construction-measurement size x process count, default NB)."""
    nb = HPLParameters().nb
    dataset = pipeline.campaign.dataset
    keys = sorted({(int(r.n), nb, int(r.total_processes)) for r in dataset})
    return keys[:MAX_PANEL_TABLES]


def pack_pipeline_segment(directory: Path | str) -> ArtifactSegment:
    """Pack one saved pipeline directory into a shared segment.

    Reads the artifact bytes once, validates them by building a real
    pipeline (so a corrupt directory fails *here*, in the supervisor,
    never in a replica), and ships: the raw artifact blobs, the
    flattened coefficient array, and the precomputed panel-table
    geometry for every ``(n, p)`` the construction campaign measured.
    ``segment.meta['fingerprint']`` is the served model fingerprint.
    """
    src = Path(directory)
    blobs, origins = read_pipeline_blobs(src)
    pipeline = pipeline_from_blobs(blobs, origins)
    coefficients = model_coefficients(pipeline)

    arrays: Dict[str, np.ndarray] = {"coefficients": coefficients}
    tables_meta: List[Dict[str, int]] = []
    for i, (n, nb, p) in enumerate(_panel_table_keys(pipeline)):
        table = _build_panel_table(n, nb, p)
        prefix = f"pt{i}"
        for field_name in _PANEL_ARRAY_FIELDS:
            arrays[f"{prefix}.{field_name}"] = getattr(table, field_name)
        tables_meta.append(
            {"n": n, "nb": nb, "p": p, "nblocks": table.nblocks, "prefix": prefix}
        )

    meta = {
        "kind": "pipeline",
        "directory": str(src),
        "fingerprint": pipeline.estimate_cache.fingerprint,
        "panel_tables": tables_meta,
    }
    return ArtifactSegment.pack(meta, blobs, arrays)


def shared_panel_tables(segment: ArtifactSegment) -> List[PanelTable]:
    """Reconstitute the packed panel tables as zero-copy views."""
    tables: List[PanelTable] = []
    for entry in segment.meta.get("panel_tables", []):
        prefix = entry["prefix"]
        fields = {
            name: segment.array(f"{prefix}.{name}") for name in _PANEL_ARRAY_FIELDS
        }
        tables.append(
            PanelTable(
                n=int(entry["n"]),
                nb=int(entry["nb"]),
                p=int(entry["p"]),
                nblocks=int(entry["nblocks"]),
                **fields,
            )
        )
    return tables


def load_pipeline_from_segment(segment: ArtifactSegment) -> EstimationPipeline:
    """Reconstitute a pipeline from a packed segment — zero disk I/O.

    Bitwise-verifies the parsed models against the packed coefficient
    array (see module docstring) and raises
    :class:`~repro.errors.ModelError` on any mismatch.  The returned
    pipeline is the same object :func:`~repro.core.persistence.load_pipeline`
    would build from the original directory: identical fingerprint,
    identical answers.
    """
    names = segment.blob_names()
    blobs = {name: segment.blob(name) for name in names}
    origins = {name: f"shm:{segment.name}/{name}" for name in names}
    pipeline = pipeline_from_blobs(blobs, origins)

    packed = segment.array("coefficients")
    derived = model_coefficients(pipeline)
    if derived.shape != packed.shape or not np.array_equal(derived, packed):
        raise ModelError(
            f"torn shared artifact segment {segment.name!r}: parsed model "
            f"coefficients do not match the packed array (fingerprint "
            f"{segment.meta.get('fingerprint')!r})"
        )
    expected = segment.meta.get("fingerprint")
    actual = pipeline.estimate_cache.fingerprint
    if expected is not None and actual != expected:
        raise ModelError(
            f"torn shared artifact segment {segment.name!r}: fingerprint "
            f"{actual} != packed {expected}"
        )
    return pipeline


# -- fleet stats block ---------------------------------------------------------

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
        return cls(_attach(name, untrack), owner=False)

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


def seed_from_segment(segment: ArtifactSegment) -> int:
    """Seed this process's panel-table memo from a packed segment;
    returns the number of tables seeded (see
    :func:`repro.hpl.schedule.seed_panel_tables`).  The tables are views
    into the segment: keep it open while they may be used, or call
    :func:`repro.hpl.schedule.clear_panel_tables` before closing it."""
    from repro.hpl.schedule import seed_panel_tables

    return seed_panel_tables(shared_panel_tables(segment))


__all__ = [
    "ArtifactSegment",
    "FleetStatsBlock",
    "WorkerRow",
    "MAX_PANEL_TABLES",
    "STATS_META_FIELDS",
    "STATS_CACHE_FIELDS",
    "model_coefficients",
    "pack_pipeline_segment",
    "load_pipeline_from_segment",
    "shared_panel_tables",
    "seed_from_segment",
]
