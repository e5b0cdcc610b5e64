"""Hot-reloadable model registry: named, fingerprinted pipeline entries.

The registry is the serving layer's source of truth for *which models
answer queries*.  Each entry pairs a caller-facing name with one loaded
pipeline (:func:`repro.core.persistence.load_pipeline`) and is keyed by
``(name, fingerprint)`` where the fingerprint covers every model's
coefficients plus the adjustment — exactly the estimate-cache
invalidation fingerprint, so "same fingerprint" provably means "same
answers".

**Hot reload.**  ``save_pipeline`` re-writing a served directory must
take effect without restarting the service and without dropping
requests.  :meth:`ModelRegistry.refresh` compares each entry's on-disk
file signature (mtime + size of the four artifacts); a changed directory
is re-loaded *beside* the live entry and only then swapped in — one
attribute assignment, atomic under the event loop, so a batch already
holding the old entry finishes against the old models while the next
batch sees the new ones.  A half-written directory (re-save in progress)
fails to load and is simply skipped until a later refresh finds it whole:
serving continues from the previous generation.  When the swap changes
the fingerprint the entry's estimate cache is retired with it (its
counters fold into the registry's session totals); a byte-identical
re-save keeps the cache — the entries are still provably valid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.core.persistence import load_pipeline, pipeline_from_blobs
from repro.core.pipeline import EstimationPipeline
from repro.errors import ModelError, ReproError
from repro.perf.cache import CacheStats, EstimateCache
from repro.serve.protocol import ERROR_UNKNOWN_PIPELINE, ProtocolError

#: The artifacts whose on-disk state defines a pipeline directory's
#: signature for change detection.
_WATCHED_FILES = ("manifest.json", "models.json", "cluster.json", "construction.json")

#: Default LRU capacity of each entry's estimate cache.
DEFAULT_CACHE_CAPACITY = 4096


def _directory_signature(directory: Path) -> Tuple[Tuple[str, int, int], ...]:
    """(name, mtime_ns, size) of every watched artifact that exists."""
    out = []
    for name in _WATCHED_FILES:
        path = directory / name
        try:
            stat = path.stat()
        except OSError:
            continue
        out.append((name, stat.st_mtime_ns, stat.st_size))
    return tuple(out)


class UnknownPipeline(ProtocolError):
    """A request named a pipeline the registry does not hold."""

    def __init__(self, name: str, known: Sequence[str]):
        known_text = ", ".join(sorted(known)) or "(none)"
        super().__init__(
            f"no pipeline named {name!r} (serving: {known_text})",
            ERROR_UNKNOWN_PIPELINE,
        )


@dataclass
class RegistryEntry:
    """One served pipeline generation.

    Immutable in spirit: a reload builds a *new* entry and swaps it into
    the registry, so any in-flight batch keeps a consistent
    (pipeline, fingerprint, cache) triple for its whole execution.
    """

    name: str
    directory: Path
    pipeline: EstimationPipeline
    fingerprint: str
    cache: EstimateCache
    signature: Tuple[Tuple[str, int, int], ...]
    generation: int
    loaded_monotonic: float
    #: Where the artifacts came from: ``"disk"`` (watched + reloadable)
    #: or ``"fleet"`` (a fleet replica's, built from the bytes its
    #: supervisor validated; swapped only by the promotion protocol,
    #: never by the disk watcher).
    source: str = "disk"

    @property
    def key(self) -> Tuple[str, str]:
        """The registry key: pipeline name + model fingerprint."""
        return (self.name, self.fingerprint)

    @property
    def workload(self) -> str:
        """The workload family tag this entry's pipeline was built for."""
        return self.pipeline.config.workload

    def parse_config(self, values: Sequence[int]) -> ClusterConfig:
        config = ClusterConfig.from_tuple(self.pipeline.plan.kinds, values)
        config.validate_against(self.pipeline.spec)
        return config

    def cached_totals(self, config: ClusterConfig, ns: Sequence[int]) -> np.ndarray:
        """Adjusted totals over ``ns``, served from this entry's cache
        where possible; misses go through the pipeline's grid kernel as
        one block (:meth:`~repro.perf.cache.EstimateCache.get_block`), so
        values are bitwise those of the direct path."""
        return self.cache.get_block([config], ns, self.pipeline.grid_kernel.evaluate)[0]

    def bound_engine_cache(self) -> None:
        """Hold the pipeline's search-engine cache to this entry's capacity.

        Served ``optimize`` and ``pareto`` batches fill the engine's
        :class:`~repro.perf.cache.RowCache`, one column per distinct N.
        Once a batch leaves more values than the estimate cache's
        capacity, every value is dropped and counted as an eviction; a
        capacity of ``None`` leaves it unbounded."""
        capacity = self.cache.capacity
        engine_cache = self.pipeline.estimate_cache
        if capacity is not None and len(engine_cache) > capacity:
            engine_cache.stats.evictions += len(engine_cache)
            engine_cache.clear()

    def model_inventory(self) -> Dict[str, object]:
        """Structured model listing for the ``models`` op."""
        facade = self.pipeline.models
        models = []
        for model in facade.models():
            data = model.to_dict()
            models.append(
                {
                    "type": model.model_type,
                    "kind": model.kind_name,
                    "mi": model.mi,
                    "p": data.get("p"),
                    "composed": model.is_composed,
                    "fingerprint": model.fingerprint(),
                }
            )
        return {
            "pipeline": self.name,
            "workload": self.workload,
            "backend": facade.backend.name,
            "fingerprint": self.fingerprint,
            "generation": self.generation,
            "count": len(models),
            "models": models,
        }

    def cache_snapshot(self) -> Dict[str, object]:
        stats = self.cache.stats
        return {
            "fingerprint": self.fingerprint,
            "entries": len(self.cache),
            "capacity": self.cache.capacity,
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "hit_rate": round(stats.hit_rate, 4),
        }


class ModelRegistry:
    """Name -> :class:`RegistryEntry` map with explicit/automatic reload."""

    def __init__(self, cache_capacity: Optional[int] = DEFAULT_CACHE_CAPACITY):
        self.cache_capacity = cache_capacity
        self._entries: Dict[str, RegistryEntry] = {}
        #: Counters of retired cache generations, folded on swap.
        self.retired_cache_stats = CacheStats()
        #: (name, error text) of reload attempts that failed and were skipped.
        self.last_reload_errors: List[Tuple[str, str]] = []
        #: Total failed reload attempts over the registry's lifetime (the
        #: per-refresh list above only shows the latest pass).
        self.reload_failures = 0
        #: Optional :class:`~repro.serve.metrics.ServeMetrics` to mirror
        #: failure counts into (the server attaches its own on startup).
        self.metrics = None

    # -- loading ------------------------------------------------------------

    def _load_entry(self, name: str, directory: Path, generation: int) -> RegistryEntry:
        signature = _directory_signature(directory)
        pipeline = load_pipeline(directory)
        # The pipeline's own search-engine cache fingerprint already covers
        # the facade (every model + memory bins), the adjustment and the
        # guard footprint — reuse it so serve-level invalidation can never
        # drift from the in-pipeline rule.
        fingerprint = pipeline.estimate_cache.fingerprint
        return RegistryEntry(
            name=name,
            directory=directory,
            pipeline=pipeline,
            fingerprint=fingerprint,
            cache=EstimateCache(fingerprint, capacity=self.cache_capacity),
            signature=signature,
            generation=generation,
            loaded_monotonic=time.monotonic(),
        )

    def add(self, name: str, directory: Path | str) -> RegistryEntry:
        """Load and register a saved pipeline directory under ``name``.

        Raises the loader's :class:`~repro.errors.ReproError` subclasses
        (missing directory, corrupt artifact, future format) unchanged.
        """
        if name in self._entries:
            raise ReproError(f"pipeline name {name!r} already registered")
        entry = self._load_entry(name, Path(directory), generation=1)
        self._entries[name] = entry
        return entry

    def fleet_entry(
        self,
        name: str,
        directory: Path | str,
        blobs: Mapping[str, bytes],
        origins: Mapping[str, str],
        fingerprint: str,
    ) -> RegistryEntry:
        """Build (but do not register) a fleet replica's entry from the
        artifact bytes of ``directory``.

        ``fingerprint`` is the one the fleet supervisor validated; a
        pipeline that fingerprints otherwise (the directory was rewritten
        between the supervisor's read and this one) raises
        :class:`~repro.errors.ModelError` naming both.  Fleet entries are
        exempt from the disk watcher (:meth:`refresh`); they change only
        through :meth:`install_entry`, driven by the fleet's promotion
        protocol.
        """
        pipeline = pipeline_from_blobs(blobs, origins)
        actual = pipeline.estimate_cache.fingerprint
        if actual != fingerprint:
            raise ModelError(
                f"pipeline {name!r} in {directory} has fingerprint {actual}, "
                f"not the {fingerprint} its fleet supervisor validated"
            )
        return RegistryEntry(
            name=name,
            directory=Path(directory),
            pipeline=pipeline,
            fingerprint=actual,
            cache=EstimateCache(actual, capacity=self.cache_capacity),
            signature=(),
            generation=1,
            loaded_monotonic=time.monotonic(),
            source="fleet",
        )

    def install_entry(self, entry: RegistryEntry) -> RegistryEntry:
        """Atomically swap a fully-built entry in under its name.

        The fleet's two-phase promotion *commit*: the entry was staged
        (loaded and verified) during the prepare phase, so the commit is
        one dict assignment — in-flight batches keep the old entry,
        every later request sees the new one, and no request can observe
        a mix.  Cache-retirement semantics match :meth:`_swap`.
        """
        old = self._entries.get(entry.name)
        if old is not None:
            if entry.fingerprint == old.fingerprint:
                entry.cache = old.cache
            else:
                self.retired_cache_stats.merge(old.cache.stats)
            entry.generation = old.generation + 1
        self._entries[entry.name] = entry
        return entry

    # -- queries ------------------------------------------------------------

    def get(self, name: str) -> RegistryEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownPipeline(name, list(self._entries)) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def entries(self) -> List[RegistryEntry]:
        return [self._entries[name] for name in self.names()]

    def __len__(self) -> int:
        return len(self._entries)

    # -- hot reload ---------------------------------------------------------

    def _swap(
        self, old: RegistryEntry, directory: Optional[Path] = None
    ) -> Optional[RegistryEntry]:
        fresh = self._load_entry(
            old.name,
            old.directory if directory is None else directory,
            generation=old.generation + 1,
        )
        if fresh.fingerprint == old.fingerprint:
            # Same models, same answers: keep the warm cache (its entries
            # are still provably valid under the unchanged fingerprint).
            fresh.cache = old.cache
        else:
            self.retired_cache_stats.merge(old.cache.stats)
        self._entries[old.name] = fresh
        return fresh

    def promote(self, name: str, directory: Path | str) -> RegistryEntry:
        """Swap ``name`` to serve a (possibly different) pipeline directory
        — the calibration loop's promotion/rollback hook.

        The swap is one dict assignment after the new entry is fully
        loaded, so in-flight batches holding the old entry finish against
        it; cache-retirement semantics are exactly those of a hot reload
        (same fingerprint keeps the warm cache, a new one retires it into
        the session totals).  Raises the loader's errors unchanged and
        leaves the old entry serving if loading fails.
        """
        return self._swap(self.get(name), directory=Path(directory))

    def refresh(self, force: bool = False) -> List[str]:
        """Re-load every entry whose directory changed on disk.

        Returns the names that were swapped.  A directory that currently
        fails to load (e.g. a re-save caught mid-write) is *skipped* — the
        live entry keeps serving — and recorded in
        :attr:`last_reload_errors` for the ``stats``/``reload`` replies.
        """
        swapped: List[str] = []
        errors: List[Tuple[str, str]] = []
        for entry in list(self._entries.values()):
            if entry.source != "disk":
                continue  # fleet entries swap via the promotion protocol
            if not force and _directory_signature(entry.directory) == entry.signature:
                continue
            try:
                self._swap(entry)
                swapped.append(entry.name)
            except ReproError as exc:
                errors.append((entry.name, str(exc)))
        self.last_reload_errors = errors
        if errors:
            self.reload_failures += len(errors)
            if self.metrics is not None:
                self.metrics.reload_failures += len(errors)
        return swapped

    def aggregate_cache_stats(self) -> CacheStats:
        """Session-total cache counters: every live entry plus every
        retired generation (what a fleet replica publishes per row)."""
        aggregate = CacheStats()
        aggregate.merge(self.retired_cache_stats)
        for entry in self.entries():
            aggregate.merge(entry.cache.stats)
        return aggregate

    def snapshot(self) -> Dict[str, object]:
        """Registry state for the ``stats`` op."""
        aggregate = self.aggregate_cache_stats()
        entries = {}
        for entry in self.entries():
            entries[entry.name] = {
                "directory": str(entry.directory),
                "source": entry.source,
                "generation": entry.generation,
                "protocol": entry.pipeline.plan.name,
                "workload": entry.workload,
                "cache": entry.cache_snapshot(),
            }
        return {
            "pipelines": entries,
            "session_cache": {
                "hits": aggregate.hits,
                "misses": aggregate.misses,
                "evictions": aggregate.evictions,
                "hit_rate": round(aggregate.hit_rate, 4),
            },
            "reload_errors": [
                {"pipeline": name, "error": text}
                for name, text in self.last_reload_errors
            ],
            "reload_failures": self.reload_failures,
        }
