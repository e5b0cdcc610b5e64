"""Observation ingestion: the stream that closes the measure→fit→serve loop.

The paper's models are empirical — the k0..k6 coefficients are only as
good as the measurements they were fitted on, and the platform underneath
them does not stand still (a switch renegotiates to a lower rate, a
kernel upgrade changes the MPI shared-memory path).  An
:class:`ObservationLog` is where *live* evidence accumulates: every
record is one timed run — a real execution, a ``run_hpl_grid`` replay,
or a ``{"op": "observe"}`` request to the serving layer — appended to a
JSONL file whose contents alone determine every calibration decision
(drift alarms, refit windows, shadow scores).  No clocks, no RNG: replay
the log and you replay the decisions.

An observation wraps a full :class:`~repro.measure.record.MeasurementRecord`
(the flat ``(P1, M1, P2, M2)`` configuration, the problem order ``N``,
the wall time and the per-kind ``Ta``/``Tc`` breakdown), tagged with a
monotonically increasing sequence number and a free-form source label.
Unlike a campaign :class:`~repro.measure.dataset.Dataset`, the log allows
repeated ``(config, N)`` coordinates — observing the same point twice is
the normal case for a long-lived service — so :meth:`ObservationLog.as_dataset`
re-numbers trials into a reserved band before handing records to the
key-unique dataset layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import CalibrationError
from repro.measure.dataset import Dataset
from repro.measure.record import MeasurementRecord

_FORMAT_VERSION = 1

#: Trial numbers of observation records in :meth:`ObservationLog.as_dataset`
#: start here, far above any campaign's trial indices, so observed records
#: can never collide with seed-dataset keys when the two are merged.
OBSERVATION_TRIAL_BASE = 1_000_000


@dataclass(frozen=True)
class Observation:
    """One logged run: a measurement record plus its log identity."""

    seq: int
    source: str
    record: MeasurementRecord
    #: Workload family tag of the run (:mod:`repro.workloads`).  Logs
    #: written before the workload subsystem carry no tag and read back
    #: as ``"hpl"`` — the only family that existed then.
    workload: str = "hpl"

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": _FORMAT_VERSION,
            "seq": self.seq,
            "source": self.source,
            "workload": self.workload,
            "record": self.record.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Observation":
        try:
            return cls(
                seq=int(data["seq"]),  # type: ignore[arg-type]
                source=str(data["source"]),
                record=MeasurementRecord.from_dict(data["record"]),  # type: ignore[arg-type]
                workload=str(data.get("workload", "hpl")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(f"malformed observation: {exc!r}") from exc


class ObservationLog:
    """Append-only store of observations, optionally file-backed.

    With a ``path`` the log is persistent JSONL — one observation per
    line, flushed on every append so a crashed service loses at most the
    line being written; re-opening the same path replays the file and
    continues the sequence.  Without a path the log is in-memory (tests,
    short-lived replay sessions).
    """

    def __init__(self, path: Optional[Path | str] = None):
        self.path = Path(path) if path is not None else None
        self._observations: List[Observation] = []
        self._handle = None
        if self.path is not None and self.path.exists():
            self._replay_file()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")

    def _replay_file(self) -> None:
        assert self.path is not None
        for lineno, line in enumerate(
            self.path.read_text(encoding="utf-8").splitlines(), 1
        ):
            text = line.strip()
            if not text:
                continue
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise CalibrationError(
                    f"corrupt observation log {self.path}:{lineno} ({exc})"
                ) from exc
            observation = Observation.from_dict(payload)
            if observation.seq != len(self._observations):
                raise CalibrationError(
                    f"observation log {self.path}:{lineno} is out of sequence "
                    f"(expected seq {len(self._observations)}, "
                    f"got {observation.seq})"
                )
            self._observations.append(observation)

    # -- mutation -----------------------------------------------------------

    def append(
        self, record: MeasurementRecord, source: str = "live",
        workload: str = "hpl",
    ) -> Observation:
        """Log one run; returns the observation with its assigned ``seq``."""
        observation = Observation(
            seq=len(self._observations), source=source, record=record,
            workload=workload,
        )
        self._observations.append(observation)
        if self._handle is not None:
            self._handle.write(json.dumps(observation.to_dict()) + "\n")
            self._handle.flush()
        return observation

    def extend_from_dataset(
        self, dataset: Dataset, source: str = "dataset",
        workload: str = "hpl",
    ) -> List[Observation]:
        """The measure→observation adapter: ingest a whole campaign/replay
        dataset (e.g. ``run_hpl_grid`` output) in record order."""
        return [
            self.append(record, source=source, workload=workload)
            for record in dataset
        ]

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ObservationLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._observations)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self._observations)

    def __getitem__(self, index: int) -> Observation:
        return self._observations[index]

    @property
    def observations(self) -> List[Observation]:
        return list(self._observations)

    def tail(self, count: int) -> List[Observation]:
        """The newest ``count`` observations (fewer if the log is short)."""
        if count < 1:
            raise CalibrationError(f"tail count must be >= 1, got {count}")
        return self._observations[-count:]

    def window(self, start_seq: int, end_seq: int) -> List[Observation]:
        """Observations with ``start_seq <= seq <= end_seq`` (inclusive)."""
        return [
            o for o in self._observations if start_seq <= o.seq <= end_seq
        ]

    def sources(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for observation in self._observations:
            counts[observation.source] = counts.get(observation.source, 0) + 1
        return counts

    def as_dataset(
        self, observations: Optional[Sequence[Observation]] = None
    ) -> Dataset:
        """The observations as a key-unique :class:`Dataset`.

        Each record's trial is re-numbered to
        ``OBSERVATION_TRIAL_BASE + seq`` so repeated ``(config, N)``
        coordinates (legitimate in a stream) and collisions with campaign
        keys (trials 0..k) are both impossible.
        """
        selected = self._observations if observations is None else observations
        return Dataset(
            replace(o.record, trial=OBSERVATION_TRIAL_BASE + o.seq)
            for o in selected
        )

    def summary(self) -> str:
        if not self._observations:
            return "ObservationLog(empty)"
        sources = ", ".join(
            f"{name}: {count}" for name, count in sorted(self.sources().items())
        )
        where = str(self.path) if self.path is not None else "memory"
        return (
            f"ObservationLog({len(self._observations)} observations, "
            f"seq 0..{self._observations[-1].seq}, {sources}; {where})"
        )
