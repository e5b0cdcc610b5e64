"""Datasets of measurement records: filtering, grouping, persistence.

A :class:`Dataset` is an ordered collection of
:class:`~repro.measure.record.MeasurementRecord` with the query surface the
model-construction layer needs (records of one kind/configuration family,
the distinct ``N`` or ``P`` values measured) plus JSON and CSV round-trips
so campaigns can be cached and shared.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import MeasurementError
from repro.hpl.timing import PHASE_NAMES
from repro.measure.record import MeasurementRecord

_FORMAT_VERSION = 1


class Dataset:
    """An ordered, key-unique collection of measurements.

    Indexed by key and by configuration, so :meth:`lookup` and
    :meth:`for_config` never scan the records.
    """

    def __init__(self, records: Iterable[MeasurementRecord] = ()):
        self._records: List[MeasurementRecord] = []
        self._position: Dict[Tuple, int] = {}  # key -> position
        self._by_config: Dict[Tuple[int, ...], List[int]] = {}  # in record order
        for record in records:
            self.add(record)

    # -- mutation ------------------------------------------------------------

    def add(self, record: MeasurementRecord) -> None:
        key = record.key()
        if key in self._position:
            raise MeasurementError(f"duplicate measurement {key}")
        self._position[key] = len(self._records)
        self._by_config.setdefault(record.config_tuple, []).append(len(self._records))
        self._records.append(record)

    def merge(self, other: "Dataset") -> "Dataset":
        """New dataset with the records of both (keys must not collide)."""
        merged = Dataset(self._records)
        for record in other:
            merged.add(record)
        return merged

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[MeasurementRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> MeasurementRecord:
        return self._records[index]

    # -- queries --------------------------------------------------------------------

    def filter(self, predicate: Callable[[MeasurementRecord], bool]) -> "Dataset":
        return Dataset(r for r in self._records if predicate(r))

    def for_config(self, config_tuple: Sequence[int]) -> "Dataset":
        positions = self._by_config.get(tuple(config_tuple), ())
        return Dataset(self._records[i] for i in positions)

    def for_n(self, n: int) -> "Dataset":
        return self.filter(lambda r: r.n == n)

    def single_kind(self, kind_name: str) -> "Dataset":
        """Homogeneous runs of one kind (the model-construction runs)."""
        return self.filter(
            lambda r: r.is_single_kind and r.has_kind(kind_name)
        )

    def sizes(self) -> List[int]:
        return sorted({r.n for r in self._records})

    def process_counts(self) -> List[int]:
        return sorted({r.total_processes for r in self._records})

    def config_tuples(self) -> List[Tuple[int, ...]]:
        """Distinct configurations, in order of their first record."""
        return list(self._by_config)

    def lookup(
        self, config_tuple: Sequence[int], n: int, trial: int = 0
    ) -> MeasurementRecord:
        wanted = (tuple(config_tuple), n, trial)
        if wanted not in self._position:
            raise MeasurementError(f"no measurement for {wanted}")
        return self._records[self._position[wanted]]

    def total_wall_time(self) -> float:
        """Total simulated measurement cost in seconds."""
        return sum(r.wall_time_s for r in self._records)

    # -- persistence --------------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "format": _FORMAT_VERSION,
            "records": [r.to_dict() for r in self._records],
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Dataset":
        payload = json.loads(text)
        if payload.get("format") != _FORMAT_VERSION:
            raise MeasurementError(
                f"unsupported dataset format {payload.get('format')!r}"
            )
        return cls(MeasurementRecord.from_dict(d) for d in payload["records"])

    def save(self, path: Path | str) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Path | str) -> "Dataset":
        return cls.from_json(Path(path).read_text())

    def _phase_columns(self) -> List[str]:
        """Phase column names: the first record's decomposition (HPL's
        historical columns for HPL datasets; a dataset never mixes
        workload families)."""
        if not self._records:
            return list(PHASE_NAMES)
        first = self._records[0]
        if not first.per_kind:
            return list(PHASE_NAMES)
        return list(first.per_kind[0].phases.as_dict())

    def to_csv(self) -> str:
        """Flat per-kind CSV (one row per record per measured kind)."""
        phase_columns = self._phase_columns()
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(
            ["config", "n", "p", "wall_s", "gflops", "kind", "pe_count", "procs_per_pe", "ta", "tc"]
            + phase_columns
        )
        for r in self._records:
            for km in r.per_kind:
                writer.writerow(
                    [
                        r.label,
                        r.n,
                        r.total_processes,
                        f"{r.wall_time_s:.6f}",
                        f"{r.gflops:.4f}",
                        km.kind_name,
                        km.pe_count,
                        km.procs_per_pe,
                        f"{km.ta:.6f}",
                        f"{km.tc:.6f}",
                    ]
                    + [f"{getattr(km.phases, p):.6f}" for p in phase_columns]
                )
        return out.getvalue()

    def summary(self) -> str:
        if not self._records:
            return "Dataset(empty)"
        return (
            f"Dataset({len(self._records)} records, "
            f"N in {self.sizes()[0]}..{self.sizes()[-1]}, "
            f"{len(self.config_tuples())} configurations, "
            f"total {self.total_wall_time():.1f} simulated seconds)"
        )
