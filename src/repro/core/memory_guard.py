"""Memory-aware model construction (paper Section 3.4, made operational).

The paper observes that memory pressure is *predictable* from ``N`` and
``P``, so the modelling layer can select different equations per memory
regime.  The sharpest practical consequence: a construction measurement
taken while a node was paging does not describe the in-memory regime at
all, and letting it into a least-squares fit poisons every coefficient
(see ``tests/integration/test_other_application.py`` for a measured case —
a single paging SUMMA run drives the P-T offset to -170 seconds).

:class:`MemoryGuard` classifies measurements by their predicted worst-node
memory ratio — the workload family's own memory model
(:meth:`repro.workloads.Workload.memory_ratio`) — and :func:`split_dataset`
partitions a construction dataset into an in-memory part (fit the standard
models on it) and a paging part (fit separate models, or simply refuse to
estimate that regime).  The pipeline enables this via
``PipelineConfig.memory_guard``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.cluster.spec import ClusterSpec
from repro.errors import MeasurementError, ModelError
from repro.measure.dataset import Dataset
from repro.measure.record import MeasurementRecord

if TYPE_CHECKING:
    from repro.workloads import Workload


@dataclass(frozen=True)
class MemoryGuard:
    """Predicts whether a (configuration, N) pair fits in memory.

    Parameters
    ----------
    spec:
        The cluster (node RAM sizes).
    workload:
        The :class:`~repro.workloads.Workload` family whose memory model
        predicts the ratio.
    threshold:
        Memory ratio above which a run is classified as paging.  1.0 is
        the physical boundary; values slightly below it (e.g. 0.95) leave
        a safety margin against workspace underestimation.
    """

    spec: ClusterSpec
    workload: "Workload"
    threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ModelError("threshold must be positive")

    def ratio(self, config, n: int) -> float:
        """Worst memory ratio across the kinds a configuration uses."""
        return max(
            self.workload.memory_ratio(self.spec, config, n, alloc.kind_name)
            for alloc in config.active
        )

    def fits(self, config, n: int) -> bool:
        return self.ratio(config, n) <= self.threshold

    def record_fits(self, record: MeasurementRecord) -> bool:
        return self.fits(record.config(), record.n)


def split_dataset(dataset: Dataset, guard: MemoryGuard) -> Tuple[Dataset, Dataset]:
    """Partition into (in-memory, paging) datasets by predicted ratio."""
    in_memory, paging = Dataset(), Dataset()
    for record in dataset:
        (in_memory if guard.record_fits(record) else paging).add(record)
    return in_memory, paging


def require_clean(dataset: Dataset, guard: MemoryGuard) -> Dataset:
    """The strict variant: raise if any construction run paged.

    Useful when a campaign is *supposed* to be in-memory by design; a
    violation means the grid needs shrinking, not silent filtering.
    """
    clean, paging = split_dataset(dataset, guard)
    if len(paging):
        offenders = sorted({(r.label, r.n) for r in paging})
        raise MeasurementError(
            f"{len(paging)} construction measurements exceed memory "
            f"(threshold {guard.threshold}): {offenders[:5]}..."
        )
    return clean
