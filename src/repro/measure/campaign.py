"""Campaign execution: run a plan's grids on the simulator.

:func:`run_campaign` performs every construction measurement of a
:class:`~repro.measure.grids.CampaignPlan` and accounts the measurement
cost per PE kind and problem size — the quantity the paper reports in its
Tables 3 and 6 ("HPL execution time for measurements", ~6 hours for the
Basic grid vs ~10 minutes for NS).

Evaluation measurements (the ground truth the estimated-best configuration
is verified against) are produced by :func:`run_evaluation` and kept in a
separate dataset so nothing from the evaluation grid can leak into model
construction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.spec import ClusterSpec
from repro.errors import MeasurementError
from repro.hpl.driver import NoiseSpec, run_hpl_batch
from repro.hpl.schedule import HPLParameters
from repro.measure.dataset import Dataset
from repro.measure.grids import CampaignPlan, group_runs_by_config
from repro.measure.record import MeasurementRecord
from repro.perf.parallel import ParallelRunner
from repro.runs import WorkloadResult

#: Batched runner: all problem orders of one configuration in a single call
#: (``run_hpl_batch`` signature), returning one shared result per entry.  A
#: workload family supplies its own (:meth:`repro.workloads.Workload.batch_runner`).
BatchRunner = Callable[..., List[WorkloadResult]]


@dataclass
class CampaignResult:
    """Construction dataset plus the measurement-cost ledger."""

    plan_name: str
    dataset: Dataset
    #: seconds of simulated measurement per (kind_name, N) — the rows of the
    #: paper's Tables 3 and 6.  Runs of a homogeneous kind are charged to
    #: that kind.  Treated as immutable once the result is built (the
    #: per-kind rollup below is computed once).
    cost_by_kind_and_n: Dict[Tuple[str, int], float] = field(default_factory=dict)
    _kind_totals: Optional[Dict[str, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def cost_for_kind(self, kind_name: str) -> float:
        if self._kind_totals is None:
            rollup: Dict[str, float] = defaultdict(float)
            for (kind, _), cost in self.cost_by_kind_and_n.items():
                rollup[kind] += cost
            self._kind_totals = dict(rollup)
        return self._kind_totals.get(kind_name, 0.0)

    def cost_for_n(self, kind_name: str, n: int) -> float:
        return self.cost_by_kind_and_n.get((kind_name, n), 0.0)

    @property
    def total_cost_s(self) -> float:
        return sum(self.cost_by_kind_and_n.values())


def _measure_config_batch(
    group: Tuple[ClusterConfig, List[Tuple[int, int]]],
    spec: ClusterSpec,
    kinds: Tuple[str, ...],
    params: Optional[HPLParameters],
    noise: Optional[NoiseSpec],
    seed: int,
    batch_runner: BatchRunner,
) -> List[Tuple[int, MeasurementRecord]]:
    """All sizes of one configuration in a single batched simulation —
    module-level so process-pool workers can unpickle it.  Returns records
    tagged with their original plan positions."""
    config, indexed = group
    results = batch_runner(
        spec, config, [n for _, n in indexed], params=params, noise=noise, seed=seed
    )
    return [
        (index, MeasurementRecord.from_result(result, kinds, seed=seed, trial=0))
        for (index, _), result in zip(indexed, results)
    ]


def _measure_entries(
    entries: Sequence[Tuple[int, ClusterConfig]],
    spec: ClusterSpec,
    kinds: Tuple[str, ...],
    params: Optional[HPLParameters],
    noise: Optional[NoiseSpec],
    seed: int,
    batch_runner: BatchRunner,
    workers: int,
) -> List[MeasurementRecord]:
    """Measure plan entries, one batch per configuration, and return
    records in plan-entry order."""
    measure_batch = partial(
        _measure_config_batch,
        spec=spec,
        kinds=kinds,
        params=params,
        noise=noise,
        seed=seed,
        batch_runner=batch_runner,
    )
    chunks = ParallelRunner(workers=workers).map(
        measure_batch, group_runs_by_config(list(entries))
    )
    records: List[Optional[MeasurementRecord]] = [None] * sum(
        len(chunk) for chunk in chunks
    )
    for chunk in chunks:
        for index, record in chunk:
            records[index] = record
    return records


def run_campaign(
    spec: ClusterSpec,
    plan: CampaignPlan,
    params: Optional[HPLParameters] = None,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    batch_runner: BatchRunner = run_hpl_batch,
    workers: int = 1,
) -> CampaignResult:
    """Execute every construction measurement of ``plan``.

    ``batch_runner`` (HPL's by default) simulates each configuration's
    whole size grid in one call; records are reassembled into plan order.

    ``workers > 1`` fans the work out over a process pool
    (:class:`repro.perf.parallel.ParallelRunner`) — one configuration
    batch per task.  Every run derives its own noise stream from
    ``(seed, config, N, trial)``, so results do not depend on batching or
    ``workers``; the default ``workers=1`` never forks.
    """
    records = _measure_entries(
        list(plan.construction_runs()),
        spec, plan.kinds, params, noise, seed, batch_runner, workers,
    )
    dataset = Dataset()
    cost: Dict[Tuple[str, int], float] = defaultdict(float)
    for record in records:
        dataset.add(record)
        cost[(_charged_kind(record), record.n)] += record.wall_time_s
    return CampaignResult(
        plan_name=plan.name, dataset=dataset, cost_by_kind_and_n=dict(cost)
    )


def run_evaluation(
    spec: ClusterSpec,
    plan: CampaignPlan,
    params: Optional[HPLParameters] = None,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    batch_runner: BatchRunner = run_hpl_batch,
    workers: int = 1,
) -> Dataset:
    """Measure the full evaluation grid (the ground-truth runs the paper
    uses to find the *actual* best configuration).

    Batching and ``workers`` behave exactly as in :func:`run_campaign`.
    """
    records = _measure_entries(
        list(plan.evaluation_runs()),
        spec, plan.kinds, params, noise, seed, batch_runner, workers,
    )
    return Dataset(records)


def _charged_kind(record: MeasurementRecord) -> str:
    """Which kind a construction run's cost is charged to.

    Construction runs are homogeneous; a heterogeneous run (not used by the
    standard plans, but allowed) is charged to its bottleneck kind.
    """
    measured = [km for km in record.per_kind if km.pe_count > 0]
    if not measured:
        raise MeasurementError(f"record {record.label} measures no kind")
    if len(measured) == 1:
        return measured[0].kind_name
    return max(measured, key=lambda km: km.total).kind_name
