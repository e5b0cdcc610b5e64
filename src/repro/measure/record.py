"""Measurement records: what one timed run contributes to a dataset.

A record stores the configuration (as a flat kind tuple, the paper's
``(P1, M1, P2, M2)``), the problem order, the wall time, and — per PE kind
— the mean phase breakdown of that kind's processes, for any workload
family.  The model layer consumes ``ta`` / ``tc`` per kind; everything
else is kept for analysis and reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from repro.cluster.config import ClusterConfig
from repro.errors import MeasurementError
from repro.runs import PhaseVector, WorkloadResult, kind_means, normalize_trials


@dataclass(frozen=True)
class KindMeasurement:
    """Per-kind view of one run: the mean phase breakdown of the kind's
    processes plus the allocation that produced it."""

    kind_name: str
    pe_count: int
    procs_per_pe: int
    #: The workload family's phase vector
    #: (:class:`~repro.hpl.timing.PhaseTimes` for HPL and SUMMA).
    phases: PhaseVector

    @property
    def ta(self) -> float:
        return self.phases.ta

    @property
    def tc(self) -> float:
        return self.phases.tc

    @property
    def total(self) -> float:
        return self.phases.total

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind_name,
            "pe_count": self.pe_count,
            "procs_per_pe": self.procs_per_pe,
            "phases": self.phases.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "KindMeasurement":
        # Lazy import: the workloads package sits above the measure layer
        # (workload modules register their batch runners with it).
        from repro.workloads.phases import phases_from_dict

        return cls(
            kind_name=str(data["kind"]),
            pe_count=int(data["pe_count"]),
            procs_per_pe=int(data["procs_per_pe"]),
            phases=phases_from_dict(data["phases"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class MeasurementRecord:
    """One timed run of any workload family."""

    kinds: Tuple[str, ...]  # kind-name order of the flat tuple
    config_tuple: Tuple[int, ...]  # (P1, M1, P2, M2, ...)
    n: int
    total_processes: int
    wall_time_s: float
    gflops: float
    per_kind: Tuple[KindMeasurement, ...]
    seed: int = 0
    trial: int = 0

    def __post_init__(self) -> None:
        if len(self.config_tuple) != 2 * len(self.kinds):
            raise MeasurementError(
                f"config tuple {self.config_tuple} does not match kinds {self.kinds}"
            )
        if self.n < 1:
            raise MeasurementError(f"invalid problem order {self.n}")
        if self.wall_time_s <= 0:
            raise MeasurementError(f"invalid wall time {self.wall_time_s}")

    # -- identity ---------------------------------------------------------------

    @property
    def label(self) -> str:
        return ",".join(str(v) for v in self.config_tuple)

    def config(self) -> ClusterConfig:
        return ClusterConfig.from_tuple(self.kinds, self.config_tuple)

    def key(self) -> Tuple:
        """Unique identity of the measurement within a campaign."""
        return (self.config_tuple, self.n, self.trial)

    # -- per-kind access -----------------------------------------------------------

    def kind(self, kind_name: str) -> KindMeasurement:
        for km in self.per_kind:
            if km.kind_name == kind_name:
                return km
        raise MeasurementError(
            f"kind {kind_name!r} not measured in config {self.label}"
        )

    def has_kind(self, kind_name: str) -> bool:
        return any(km.kind_name == kind_name for km in self.per_kind)

    def pe_count(self, kind_name: str) -> int:
        index = self.kinds.index(kind_name)
        return self.config_tuple[2 * index]

    def procs_per_pe(self, kind_name: str) -> int:
        index = self.kinds.index(kind_name)
        return self.config_tuple[2 * index + 1]

    @property
    def is_single_kind(self) -> bool:
        return sum(1 for km in self.per_kind if km.pe_count > 0) == 1

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "kinds": list(self.kinds),
            "config": list(self.config_tuple),
            "n": self.n,
            "p": self.total_processes,
            "wall_s": self.wall_time_s,
            "gflops": self.gflops,
            "per_kind": [km.to_dict() for km in self.per_kind],
            "seed": self.seed,
            "trial": self.trial,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MeasurementRecord":
        return cls(
            kinds=tuple(data["kinds"]),  # type: ignore[arg-type]
            config_tuple=tuple(int(v) for v in data["config"]),  # type: ignore[union-attr]
            n=int(data["n"]),
            total_processes=int(data["p"]),
            wall_time_s=float(data["wall_s"]),
            gflops=float(data["gflops"]),
            per_kind=tuple(
                KindMeasurement.from_dict(km)  # type: ignore[arg-type]
                for km in data["per_kind"]  # type: ignore[union-attr]
            ),
            seed=int(data.get("seed", 0)),
            trial=int(data.get("trial", 0)),
        )

    @classmethod
    def from_result(
        cls,
        result: WorkloadResult,
        kinds: Sequence[str],
        seed: int = 0,
        trial: int = 0,
    ) -> "MeasurementRecord":
        """Turn a simulator result into a measurement record (the one-run
        case of :meth:`from_results`)."""
        return cls.from_results([result], kinds, seed=seed, trials=trial)[0]

    @classmethod
    def from_results(
        cls,
        results: Sequence[WorkloadResult],
        kinds: Sequence[str],
        seed: int = 0,
        trials: Union[int, Sequence[int]] = 0,
    ) -> List["MeasurementRecord"]:
        """Records of one configuration's runs, built from their phase
        block in one pass (:func:`~repro.runs.kind_means`).

        ``kinds`` fixes the flat-tuple ordering (cluster kind order), so
        records from different configurations align column-wise;
        ``trials`` is one trial index or one per run.
        """
        if not results:
            return []
        kinds = tuple(kinds)
        config = results[0].config
        config_tuple = config.as_flat_tuple(kinds)
        allocations = [(name, config.allocation(name)) for name in kinds]
        measured = [(name, a) for name, a in allocations if a.pe_count > 0]
        means = kind_means(results, [name for name, _ in measured])
        return [
            cls(
                kinds=kinds,
                config_tuple=config_tuple,
                n=result.n,
                total_processes=result.total_processes,
                wall_time_s=result.wall_time_s,
                gflops=result.gflops,
                per_kind=tuple(
                    KindMeasurement(name, alloc.pe_count, alloc.procs_per_pe, phases)
                    for (name, alloc), phases in zip(measured, kind_phases)
                ),
                seed=seed,
                trial=trial,
            )
            for result, kind_phases, trial in zip(
                results, means, normalize_trials(results, trials)
            )
        ]
