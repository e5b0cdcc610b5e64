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

Both measure each distinct run once per spec: the paper's NL and NS
grids are sub-grids of Basic's, and every protocol's evaluation grid
repeats runs of the others, so a run already measured on the same spec
object (same runner, parameters, noise, seed, kinds, configuration, N
and trial) is served from the spec's run memo instead of simulated
again.  A fresh spec measures cold.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.spec import ClusterSpec
from repro.errors import MeasurementError
from repro.hpl.driver import NoiseSpec, run_hpl_grid
from repro.hpl.schedule import HPLParameters
from repro.measure.dataset import Dataset
from repro.measure.grids import CampaignPlan, group_runs_by_config
from repro.measure.record import MeasurementRecord
from repro.runs import WorkloadResult

#: Grid runner: every run of a grid of ``(config, sizes, trials)`` groups in
#: a single call (``run_hpl_grid`` signature), returning one result list
#: per group.  A workload family supplies its own
#: (:meth:`repro.workloads.Workload.batch_runner`).
GridRunner = Callable[..., List[List[WorkloadResult]]]


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


#: Runs memoized per spec (least recently used evicted first).  The nine
#: paper pipelines of one seed (HPL, sorting and Monte Carlo under Basic,
#: NL and NS, campaign and evaluation grids) measure 2,392 distinct runs.
_RUNS_PER_SPEC = 4096
_memo_lock = threading.Lock()
_counts = threading.local()

#: One run's memo key: ``((batch_runner, params, noise, seed, kinds),
#: config.key(), n, trial)``.
RunKey = Tuple[tuple, tuple, int, int]


@dataclass(frozen=True)
class RunCounts:
    """Runs measured so far in one thread, by where they came from.

    ``simulated`` by a grid runner, ``reused`` from a spec's run memo;
    the pipeline's measuring stages record differences."""

    simulated: int = 0
    reused: int = 0

    def __sub__(self, other: "RunCounts") -> "RunCounts":
        return RunCounts(self.simulated - other.simulated, self.reused - other.reused)


def run_counts() -> RunCounts:
    """The calling thread's run counters."""
    return getattr(_counts, "value", RunCounts())


def _simulate(
    runs: Sequence[Tuple[int, ClusterConfig, int]],
    spec: ClusterSpec,
    kinds: Tuple[str, ...],
    params: Optional[HPLParameters],
    noise: Optional[NoiseSpec],
    seed: int,
    batch_runner: GridRunner,
) -> List[MeasurementRecord]:
    """Simulate ``(n, config, trial)`` runs, grouped by configuration, in
    one grid-runner call, and return their records in order; each group's
    records come from its phase block."""
    grouped = group_runs_by_config([(n, config) for n, config, _ in runs])
    groups = [
        (config, [n for _, n in indexed], [runs[i][2] for i, _ in indexed])
        for config, indexed in grouped
    ]
    results = batch_runner(spec, groups, params=params, noise=noise, seed=seed)
    records: List[MeasurementRecord] = [None] * len(runs)  # type: ignore[list-item]
    for (_, indexed), (_, _, trials), group_results in zip(grouped, groups, results):
        group = MeasurementRecord.from_results(group_results, kinds, seed=seed, trials=trials)
        for (i, _), record in zip(indexed, group):
            records[i] = record
    return records


def _measure_entries(
    entries: Sequence[Tuple[int, ClusterConfig]],
    spec: ClusterSpec,
    kinds: Tuple[str, ...],
    params: Optional[HPLParameters],
    noise: Optional[NoiseSpec],
    seed: int,
    batch_runner: GridRunner,
    trials: int = 1,
) -> List[List[MeasurementRecord]]:
    """Measure plan entries, ``trials`` runs each, and return every
    entry's trial records in plan-entry order.

    Each run is first looked up in the spec's run memo, keyed by
    everything that fixes its record (:data:`RunKey`) and bounded to
    ``_RUNS_PER_SPEC`` runs; records are frozen, so datasets share them.
    Only the misses reach the grid runner, each once.  Every run seeds
    its own noise, so a record does not depend on which runs the memo
    served.  Simulated records are stored once the grid call has
    returned, so a call that raises stores nothing.
    """
    context = (batch_runner, params, noise, seed, tuple(kinds))
    memo = spec._runs
    records: List[Optional[MeasurementRecord]] = []
    # per missed run: its n, configuration, trial and positions in ``records``
    misses: Dict[RunKey, Tuple[int, ClusterConfig, int, List[int]]] = {}
    with _memo_lock:
        for n, config in entries:
            config_key = config.key()
            for trial in range(trials):
                key = (context, config_key, n, trial)
                record = memo.get(key)
                if record is None:
                    misses.setdefault(key, (n, config, trial, []))[3].append(len(records))
                else:
                    memo.move_to_end(key)
                records.append(record)
    if misses:
        runs = list(misses.values())
        simulated = _simulate(
            [run[:3] for run in runs], spec, kinds, params, noise, seed, batch_runner
        )
        with _memo_lock:
            memo.update(zip(misses, simulated))
            while len(memo) > _RUNS_PER_SPEC:
                memo.popitem(last=False)
        for (_, _, _, positions), record in zip(runs, simulated):
            for i in positions:
                records[i] = record
    counts = run_counts()
    _counts.value = RunCounts(
        counts.simulated + len(misses),
        counts.reused + len(records) - len(misses),
    )
    return [records[i:i + trials] for i in range(0, len(records), trials)]


def run_campaign(
    spec: ClusterSpec,
    plan: CampaignPlan,
    params: Optional[HPLParameters] = None,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    batch_runner: GridRunner = run_hpl_grid,
) -> CampaignResult:
    """Execute every construction measurement of ``plan``.

    ``batch_runner`` (HPL's grid runner by default) simulates, in one
    call, every run of the construction grid the spec's run memo does not
    hold; records are reassembled into plan order.  Every run derives its
    own noise stream from ``(seed, config, N, trial)``.
    """
    entries = _measure_entries(
        list(plan.construction_runs()),
        spec, plan.kinds, params, noise, seed, batch_runner,
    )
    dataset = Dataset()
    cost: Dict[Tuple[str, int], float] = defaultdict(float)
    for (record,) in entries:
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
    batch_runner: GridRunner = run_hpl_grid,
) -> Dataset:
    """Measure the full evaluation grid (the ground-truth runs the paper
    uses to find the *actual* best configuration).

    Batching and the run memo behave exactly as in :func:`run_campaign`.
    """
    entries = _measure_entries(
        list(plan.evaluation_runs()),
        spec, plan.kinds, params, noise, seed, batch_runner,
    )
    return Dataset(record for (record,) in entries)


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
