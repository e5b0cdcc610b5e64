"""Repeated measurements and robust aggregation.

Real benchmarking repeats each timed run and aggregates — usually taking
the **minimum** (the least-disturbed observation of a deterministic
computation) or the **median** (robust to both directions).  The paper
times each configuration once; on a shared or flaky machine that is
exactly how an outlier (a cron job, an NFS stall) ends up inside a
least-squares fit.

:func:`run_campaign_with_trials` runs ``trials`` independent simulated
measurements of every plan entry and folds each entry's trials into a
single :class:`~repro.measure.record.MeasurementRecord`
(:func:`aggregate_records`), accounting the *full* cost of all trials
(robustness is not free).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.errors import MeasurementError
from repro.hpl.driver import NoiseSpec, run_hpl_grid
from repro.hpl.schedule import HPLParameters
from repro.measure.campaign import (
    CampaignResult,
    GridRunner,
    _charged_kind,
    _measure_entries,
)
from repro.measure.dataset import Dataset
from repro.measure.grids import CampaignPlan
from repro.measure.record import KindMeasurement, MeasurementRecord

AGGREGATORS: Dict[str, Callable[[np.ndarray], float]] = {
    "min": lambda values: float(np.min(values)),
    "median": lambda values: float(np.median(values)),
    "mean": lambda values: float(np.mean(values)),
}


def aggregate_records(
    records: Sequence[MeasurementRecord], how: str = "median"
) -> MeasurementRecord:
    """Fold repeated trials of one (configuration, N) into one record.

    The chosen statistic is applied to the wall time and, field-wise, to
    every per-kind phase (a field-wise median is not any single trial, but
    it is the right robust location estimate for fitting).
    """
    if not records:
        raise MeasurementError("no trials to aggregate")
    if how not in AGGREGATORS:
        raise MeasurementError(
            f"unknown aggregator {how!r}; have {sorted(AGGREGATORS)}"
        )
    first = records[0]
    for record in records[1:]:
        if (record.config_tuple, record.n) != (first.config_tuple, first.n):
            raise MeasurementError(
                "trials must share configuration and size: "
                f"{record.key()} vs {first.key()}"
            )
    agg = AGGREGATORS[how]
    wall = agg(np.array([r.wall_time_s for r in records]))
    per_kind: List[KindMeasurement] = []
    for km in first.per_kind:
        # The record's own phase vector names the fields, so any workload
        # family's decomposition aggregates the same way.
        phase_cls = type(km.phases)
        phases = {}
        for name in km.phases.as_dict():
            phases[name] = agg(
                np.array(
                    [getattr(r.kind(km.kind_name).phases, name) for r in records]
                )
            )
        per_kind.append(
            KindMeasurement(
                kind_name=km.kind_name,
                pe_count=km.pe_count,
                procs_per_pe=km.procs_per_pe,
                phases=phase_cls.from_dict(phases),
            )
        )
    gflops = float(np.median([r.gflops for r in records]))
    return MeasurementRecord(
        kinds=first.kinds,
        config_tuple=first.config_tuple,
        n=first.n,
        total_processes=first.total_processes,
        wall_time_s=wall,
        gflops=gflops,
        per_kind=tuple(per_kind),
        seed=first.seed,
        trial=0,
    )


def run_campaign_with_trials(
    spec: ClusterSpec,
    plan: CampaignPlan,
    trials: int = 3,
    how: str = "median",
    params: Optional[HPLParameters] = None,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    batch_runner: GridRunner = run_hpl_grid,
) -> CampaignResult:
    """A construction campaign with repeated, robustly aggregated trials.

    The cost ledger charges every trial (a 3-trial campaign costs ~3x the
    single-shot one — the price of outlier immunity).

    ``batch_runner`` (HPL's grid runner by default) simulates the
    ``configs x sizes x trials`` runs the spec's run memo does not hold in
    one call; trial 0 is the run a plain campaign with the same noise
    measures.  Every ``(config, N, trial)`` seeds its own noise stream.
    """
    if trials < 1:
        raise MeasurementError("trials must be >= 1")
    entries = _measure_entries(
        list(plan.construction_runs()),
        spec, plan.kinds, params, noise, seed, batch_runner, trials=trials,
    )
    dataset = Dataset()
    cost: Dict[Tuple[str, int], float] = defaultdict(float)
    for repeats in entries:
        record = aggregate_records(repeats, how)
        run_cost = 0.0
        for repeat in repeats:
            run_cost += repeat.wall_time_s
        dataset.add(record)
        cost[(_charged_kind(record), record.n)] += run_cost
    return CampaignResult(
        plan_name=f"{plan.name}-x{trials}", dataset=dataset, cost_by_kind_and_n=dict(cost)
    )
