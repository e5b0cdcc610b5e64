"""Estimate caching (perf-engine layer 2).

The optimizer and the sweep/what-if analyses ask the same
``(configuration, N)`` questions over and over — a seed sweep re-ranks
the same 62 candidates at every size, a what-if study re-evaluates whole
grids.  Model evaluation is pure: for a *fixed* set of fitted models the
estimate of ``(config, N)`` never changes.  :class:`EstimateCache`
memoizes those lookups.

**Invalidation rule** (also documented in DESIGN.md): a cache is bound
to a *model fingerprint* — a hash over every fitted/composed model's
coefficients, the adjustment scales, and the estimator-relevant pipeline
knobs.  The fingerprint participates in every key, so entries produced
by one model generation can never answer for another; refit the models
and the pipeline builds a fresh cache with a fresh fingerprint.  Timing
fields (e.g. ``ModelStore.build_seconds``) are deliberately excluded:
two stores holding identical models fingerprint identically.

**Two stores.**  A pipeline's search engine keeps a :class:`RowCache`:
its working set is the candidate pool, so it is unbounded and addressed
by row — one value array plus a filled mask per problem order, reached
through a configuration-key -> row map.  The serving layer keeps one
:class:`EstimateCache` per registry entry for the lifetime of the
process, and that must not grow without limit: passing ``capacity``
turns it into an LRU over a dict of ``(key, N, fingerprint)`` entries —
both hits and updates refresh an entry's recency, and inserting beyond
capacity evicts the least-recently-used entry, counted in
:attr:`CacheStats.evictions`.  Both count a hit or a miss per looked-up
cell, so their counters read alike.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError


def model_fingerprint(*parts: object) -> str:
    """Stable short hash of the model state that determines estimates.

    Callers pass plain-data renderings (``to_dict()`` outputs, tuples of
    knobs); anything whose ``repr`` is value-determined works.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()[:16]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`EstimateCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Fold another counter set into this one (e.g. when a serving
        registry retires a cache generation but keeps session totals)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions

    def as_tuple(self) -> Tuple[int, int, int]:
        """``(hits, misses, evictions)`` — the wire/shared-memory form.

        Fleet replicas publish exactly these three integers per stats
        row; :meth:`from_tuple` rebuilds the counters on the supervisor
        side for the fleet-wide rollup.
        """
        return (self.hits, self.misses, self.evictions)

    @classmethod
    def from_tuple(cls, values: Tuple[int, int, int]) -> "CacheStats":
        """Inverse of :meth:`as_tuple`."""
        hits, misses, evictions = values
        return cls(hits=int(hits), misses=int(misses), evictions=int(evictions))

    def describe(self) -> str:
        text = (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate)"
        )
        if self.evictions:
            text += f", {self.evictions} evictions"
        return text


class EstimateCache:
    """Memo of ``(config, N)`` -> estimated seconds under one fingerprint.

    Keys are ``(config.key(), n, fingerprint)``;
    :meth:`key_of` exposes the config part so hot loops can compute it
    once per configuration instead of once per lookup.  With a
    ``capacity`` the cache is a strict LRU (see module docstring).
    """

    def __init__(self, fingerprint: str = "", capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        self.fingerprint = fingerprint
        self.capacity = capacity
        self.stats = CacheStats()
        self._data: OrderedDict[Tuple[Hashable, int, str], float] = OrderedDict()

    @staticmethod
    def key_of(config) -> Hashable:
        """The per-configuration key component (hashable, canonical)."""
        return config.key()

    def get(self, config_key: Hashable, n: int) -> Optional[float]:
        """Cached estimate, counting the lookup as a hit or miss."""
        value = self._recall((config_key, n, self.fingerprint))
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def _recall(self, key: Tuple[Hashable, int, str]) -> Optional[float]:
        """Uncounted lookup; a hit refreshes its recency under a capacity."""
        value = self._data.get(key)
        if value is not None and self.capacity is not None:
            self._data.move_to_end(key)
        return value

    def put(self, config_key: Hashable, n: int, value: float) -> None:
        key = (config_key, n, self.fingerprint)
        if key in self._data:
            self._data[key] = value
            if self.capacity is not None:
                self._data.move_to_end(key)
            return
        self._data[key] = value
        if self.capacity is not None and len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def get_block(
        self,
        configs: Sequence[object],
        ns: Sequence[int],
        evaluate: Callable[[Sequence[object], Sequence[int]], np.ndarray],
    ) -> np.ndarray:
        """The ``(C, S)`` block of estimates for ``configs x ns``: every
        cell is looked up first, the rows with a miss go to
        ``evaluate(configs, ns)`` as one block, and only the missing cells
        are stored (hit cells keep their cached values, so a warm sweep
        is pure dictionary lookups).

        One pass with a local lookup per cell and the hit and miss
        counters added once, with the same outcome as a :meth:`get` per
        cell in block order followed by a :meth:`put` per missing cell in
        block order."""
        sizes = [int(n) for n in ns]
        width = len(sizes)
        fingerprint, lookup = self.fingerprint, self._recall
        keys = [self.key_of(config) for config in configs]
        # Row-major cells; None marks a miss until the evaluated block fills it.
        values: List[Optional[float]] = []
        miss_rows: List[int] = []
        for i, config_key in enumerate(keys):
            row = [lookup((config_key, n, fingerprint)) for n in sizes]
            if None in row:
                miss_rows.append(i)
            values += row
        misses = values.count(None)
        self.stats.hits += len(values) - misses
        self.stats.misses += misses
        if miss_rows:
            block = np.asarray(
                evaluate([configs[i] for i in miss_rows], sizes), dtype=float
            )
            if block.shape != (len(miss_rows), width):
                raise ReproError(
                    f"block evaluator returned shape {block.shape}, "
                    f"expected {(len(miss_rows), width)}"
                )
            for i, fresh in zip(miss_rows, block.tolist()):
                base, config_key = i * width, keys[i]
                for j, n in enumerate(sizes):
                    if values[base + j] is None:
                        values[base + j] = fresh[j]
                        self.put(config_key, n, fresh[j])
        return np.array(values, dtype=float).reshape(len(keys), width)

    def clear(self) -> None:
        """Drop all entries (counters survive; they describe the session)."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def describe(self) -> str:
        bound = f"/{self.capacity}" if self.capacity is not None else ""
        return (
            f"EstimateCache(fingerprint={self.fingerprint or '(none)'}, "
            f"{len(self._data)}{bound} entries, {self.stats.describe()})"
        )


class RowCache:
    """Unbounded memo of ``(config, N)`` -> estimated seconds under one
    fingerprint, addressed by row.

    Each distinct configuration key gets a row, in order of first sight
    (:meth:`rows_of`); each problem order ``N`` gets a value array and a
    filled mask over those rows.  :meth:`get_rows` counts hits, misses
    and entries exactly as :meth:`EstimateCache.get_block` does on an
    unbounded cache (a hit or miss per cell, one entry per distinct
    filled ``(key, N)``), without a Python step per cell.  Rows keep
    their keys across :meth:`clear`, so row numbers a caller derived
    once stay valid.
    """

    def __init__(self, fingerprint: str = ""):
        self.fingerprint = fingerprint
        self.stats = CacheStats()
        self._rows: Dict[Hashable, int] = {}
        self._columns: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._entries = 0

    def rows_of(self, configs: Sequence[object]) -> np.ndarray:
        """The row of each configuration's key; unseen keys get the next
        free rows in order."""
        rows = self._rows
        return np.fromiter(
            (rows.setdefault(config.key(), len(rows)) for config in configs),
            dtype=np.intp,
            count=len(configs),
        )

    def _column(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The (values, filled) arrays of order ``n``, long enough for
        every row."""
        column = self._columns.get(n)
        needed = len(self._rows)
        if column is None or column[0].size < needed:
            size = max(needed, 2 * column[0].size if column else 0)
            values, filled = np.zeros(size), np.zeros(size, dtype=bool)
            if column is not None:
                values[: column[0].size] = column[0]
                filled[: column[1].size] = column[1]
            column = self._columns[n] = (values, filled)
        return column

    def get_rows(
        self,
        rows: np.ndarray,
        ns: Sequence[int],
        evaluate: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """The ``(R, S)`` block of estimates for ``rows x ns``: the rows
        with a missing cell go to ``evaluate(positions)`` — positions
        into ``rows``, in block order — as one block, and only the
        missing cells are stored (hit cells keep their cached values)."""
        columns = [self._column(int(n)) for n in ns]
        out = np.empty((rows.size, len(columns)))
        hit = np.empty(out.shape, dtype=bool)
        for j, (values, filled) in enumerate(columns):
            hit[:, j] = filled[rows]
            out[:, j] = values[rows]
        hits = int(np.count_nonzero(hit))
        self.stats.hits += hits
        self.stats.misses += hit.size - hits
        miss = ~hit
        positions = np.flatnonzero(miss.any(axis=1))
        if positions.size:
            block = evaluate(positions)
            for j, (values, filled) in enumerate(columns):
                fresh = miss[positions, j]
                cells = positions[fresh]
                out[cells, j] = block[fresh, j]
                before = np.count_nonzero(filled)
                values[rows[cells]] = block[fresh, j]
                filled[rows[cells]] = True
                self._entries += np.count_nonzero(filled) - before
        return out

    def clear(self) -> None:
        """Drop all values (rows and counters survive)."""
        self._columns.clear()
        self._entries = 0

    def __len__(self) -> int:
        return self._entries

    def describe(self) -> str:
        return (
            f"RowCache(fingerprint={self.fingerprint or '(none)'}, "
            f"{self._entries} entries, {self.stats.describe()})"
        )
