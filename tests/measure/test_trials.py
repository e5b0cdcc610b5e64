"""Tests for repeated trials, robust aggregation and outlier injection."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import MeasurementError, SimulationError
from repro.hpl.driver import NoiseSpec, run_hpl
from repro.measure.grids import PAPER_KINDS, ns_plan
from repro.measure.record import MeasurementRecord
from repro.measure.trials import aggregate_records, run_campaign_with_trials

KINDS = PAPER_KINDS


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))


def record_for(spec, config, n, trial, noise=None, seed=0):
    result = run_hpl(spec, config, n, noise=noise, seed=seed, trial=trial)
    return MeasurementRecord.from_result(result, KINDS, seed=seed, trial=trial)


class TestOutlierInjection:
    def test_outlier_spec_validation(self):
        with pytest.raises(SimulationError):
            NoiseSpec(outlier_probability=1.5)
        with pytest.raises(SimulationError):
            NoiseSpec(outlier_factor=0.5)

    def test_outliers_occur_at_expected_rate(self, spec):
        noise = NoiseSpec(outlier_probability=0.3, outlier_factor=3.0)
        clean = run_hpl(spec, cfg(1, 1, 0, 0), 800).wall_time_s
        slow = 0
        trials = 60
        for trial in range(trials):
            t = run_hpl(
                spec, cfg(1, 1, 0, 0), 800, noise=noise, seed=5, trial=trial
            ).wall_time_s
            if t > 2.0 * clean:
                slow += 1
        assert 0.15 < slow / trials < 0.45

    def test_outlier_runs_are_reproducible(self, spec):
        noise = NoiseSpec(outlier_probability=0.5)
        a = run_hpl(spec, cfg(1, 1, 4, 1), 800, noise=noise, seed=9, trial=3)
        b = run_hpl(spec, cfg(1, 1, 4, 1), 800, noise=noise, seed=9, trial=3)
        assert a.wall_time_s == b.wall_time_s


class TestAggregation:
    def test_median_resists_one_outlier(self, spec):
        noise = NoiseSpec(outlier_probability=0.0)
        records = [record_for(spec, cfg(1, 1, 0, 0), 800, t, noise, seed=1) for t in range(2)]
        # synthesize an outlier trial by scaling a clean record
        outlier = records[0]
        slow = MeasurementRecord(
            kinds=outlier.kinds,
            config_tuple=outlier.config_tuple,
            n=outlier.n,
            total_processes=outlier.total_processes,
            wall_time_s=outlier.wall_time_s * 5,
            gflops=outlier.gflops / 5,
            per_kind=tuple(
                type(km)(km.kind_name, km.pe_count, km.procs_per_pe, km.phases.scaled(5))
                for km in outlier.per_kind
            ),
            seed=outlier.seed,
            trial=2,
        )
        agg = aggregate_records(records + [slow], how="median")
        clean_wall = np.median([r.wall_time_s for r in records])
        assert agg.wall_time_s == pytest.approx(clean_wall, rel=0.05)
        # mean would have been dragged
        dragged = aggregate_records(records + [slow], how="mean")
        assert dragged.wall_time_s > 1.5 * agg.wall_time_s

    def test_min_takes_fastest(self, spec):
        records = [
            record_for(spec, cfg(1, 1, 0, 0), 800, t, NoiseSpec(), seed=2)
            for t in range(4)
        ]
        agg = aggregate_records(records, how="min")
        assert agg.wall_time_s == min(r.wall_time_s for r in records)

    def test_mismatched_trials_rejected(self, spec):
        a = record_for(spec, cfg(1, 1, 0, 0), 800, 0)
        b = record_for(spec, cfg(1, 1, 0, 0), 1200, 1)
        with pytest.raises(MeasurementError):
            aggregate_records([a, b])

    def test_unknown_aggregator_rejected(self, spec):
        a = record_for(spec, cfg(1, 1, 0, 0), 800, 0)
        with pytest.raises(MeasurementError):
            aggregate_records([a], how="mode")

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            aggregate_records([])

    def test_phase_identity_preserved(self, spec):
        """Field-wise aggregation keeps total == ta + tc exactly."""
        records = [
            record_for(spec, cfg(1, 2, 4, 1), 800, t, NoiseSpec(), seed=3)
            for t in range(3)
        ]
        agg = aggregate_records(records, how="median")
        for km in agg.per_kind:
            assert km.phases.total == pytest.approx(km.ta + km.tc)


class TestTrialCampaign:
    def test_trials_must_be_positive(self, spec):
        with pytest.raises(MeasurementError):
            run_campaign_with_trials(spec, ns_plan(), trials=0)

    def test_campaign_with_trials_triples_cost(self, spec):
        from dataclasses import replace
        from repro.measure.campaign import run_campaign

        plan = replace(ns_plan(), construction_sizes=(400, 800, 1200, 1600))
        single = run_campaign(spec, plan, noise=NoiseSpec(), seed=6)
        tripled = run_campaign_with_trials(
            spec, plan, trials=3, noise=NoiseSpec(), seed=6
        )
        assert len(tripled.dataset) == len(single.dataset)
        assert tripled.total_cost_s == pytest.approx(
            3 * single.total_cost_s, rel=0.10
        )
        assert tripled.plan_name == "ns-x3"

    def test_batched_trials_identical_to_scalar_path(self, spec):
        """The batched sizes-times-trials grid must reproduce the run-by-run
        trial campaign exactly, outliers included."""

        def scalar_runner(spec, groups, params=None, noise=None, seed=0):
            # Grid-shaped, but one run_hpl call per entry.
            return [
                [
                    run_hpl(spec, config, n, params=params, noise=noise, seed=seed, trial=t)
                    for n, t in zip(ns, trial)
                ]
                for config, ns, trial in groups
            ]

        noise = NoiseSpec(outlier_probability=0.2, outlier_factor=3.0)
        plan = ns_plan()
        batched = run_campaign_with_trials(spec, plan, trials=3, noise=noise, seed=7)
        scalar = run_campaign_with_trials(
            spec, plan, trials=3, noise=noise, seed=7, batch_runner=scalar_runner
        )
        assert batched.dataset.to_json() == scalar.dataset.to_json()
        for kind in KINDS:
            assert batched.cost_for_kind(kind) == scalar.cost_for_kind(kind)
