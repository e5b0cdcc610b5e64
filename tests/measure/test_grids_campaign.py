"""Tests for the campaign grids (Tables 2/5/8) and campaign execution
(Tables 3/6)."""

import pytest

from repro.cluster.presets import kishimoto_cluster
from repro.errors import MeasurementError
from repro.hpl.driver import NoiseSpec
from repro.hpl.driver import run_hpl
from repro.measure.campaign import run_campaign, run_evaluation
from repro.measure.grids import (
    basic_plan,
    evaluation_configs,
    group_runs_by_config,
    nl_plan,
    ns_plan,
    plan_by_name,
)

from tests.conftest import config_of


class TestGrids:
    def test_basic_plan_has_486_construction_runs(self):
        """Paper Table 2: (6 + 48) x 9 = 486 sets."""
        plan = basic_plan()
        assert len(plan.construction_configs) == 54
        assert len(plan.construction_sizes) == 9
        assert plan.construction_count == 486

    def test_nl_ns_plans_have_120_construction_runs(self):
        """Paper Tables 5/8: (6 + 24) x 4 = 120 sets."""
        for plan in (nl_plan(), ns_plan()):
            assert len(plan.construction_configs) == 30
            assert plan.construction_count == 120

    def test_evaluation_grid_is_62_configs(self):
        """Paper Section 4.1: 62 possible configurations."""
        assert len(evaluation_configs()) == 62
        assert len(basic_plan().evaluation_configs) == 62

    def test_construction_configs_are_single_kind(self):
        for config in basic_plan().construction_configs:
            assert config.is_single_kind

    def test_evaluation_uses_m2_equal_1(self):
        for config in evaluation_configs():
            if config.pe_count("pentium2") > 0:
                assert config.procs_per_pe("pentium2") == 1

    def test_protocol_sizes_match_paper(self):
        assert basic_plan().construction_sizes == (400, 600, 800, 1200, 1600, 2400, 3200, 4800, 6400)
        assert nl_plan().construction_sizes == (1600, 3200, 4800, 6400)
        assert ns_plan().construction_sizes == (400, 800, 1200, 1600)
        assert basic_plan().evaluation_sizes == (3200, 4800, 6400, 8000, 9600)
        assert nl_plan().evaluation_sizes == (1600, 3200, 4800, 6400, 8000, 9600)

    def test_plan_by_name(self):
        assert plan_by_name("nl").name == "nl"
        with pytest.raises(MeasurementError):
            plan_by_name("huge")

    def test_run_iterators_cover_grid(self):
        plan = ns_plan()
        runs = list(plan.construction_runs())
        assert len(runs) == plan.construction_count
        evals = list(plan.evaluation_runs())
        assert len(evals) == plan.evaluation_count == 6 * 62

    def test_group_runs_by_config_preserves_order_and_indices(self):
        plan = ns_plan()
        entries = list(plan.construction_runs())
        groups = group_runs_by_config(entries)
        # First-seen configuration order, one group per distinct config.
        assert [config.key() for config, _ in groups] == list(
            dict.fromkeys(config.key() for _, config in entries)
        )
        # Every original entry appears exactly once with its plan index.
        flattened = sorted(
            (index, n) for _, indexed in groups for index, n in indexed
        )
        assert flattened == [(i, n) for i, (n, _) in enumerate(entries)]

    def test_group_runs_by_config_interleaved_configs(self):
        """An observation-replay stream interleaves configs arbitrarily;
        grouping must still be first-seen ordered and index-faithful."""
        a = config_of(1, 3, 8, 1)
        b = config_of(0, 0, 8, 2)
        entries = [(3200, a), (1600, b), (4800, a), (800, b), (3200, a)]
        groups = group_runs_by_config(entries)
        assert [config.key() for config, _ in groups] == [a.key(), b.key()]
        grouped = {config.key(): indexed for config, indexed in groups}
        # Within a group, plan order is preserved — including the
        # duplicate (config, n) coordinate at indices 0 and 4.
        assert grouped[a.key()] == [(0, 3200), (2, 4800), (4, 3200)]
        assert grouped[b.key()] == [(1, 1600), (3, 800)]

    def test_group_runs_by_config_equal_configs_coalesce(self):
        """Two distinct ClusterConfig objects with the same allocation are
        one group: grouping is by value, not identity."""
        entries = [
            (1600, config_of(1, 4, 0, 0)),
            (3200, config_of(1, 4, 0, 0)),
        ]
        groups = group_runs_by_config(entries)
        assert len(groups) == 1
        assert groups[0][1] == [(0, 1600), (1, 3200)]


class TestCampaign:
    @pytest.fixture(scope="class")
    def ns_result(self):
        return run_campaign(kishimoto_cluster(), ns_plan(), noise=NoiseSpec(), seed=3)

    def test_all_runs_recorded(self, ns_result):
        assert len(ns_result.dataset) == 120

    def test_cost_charged_to_measured_kind(self, ns_result):
        athlon = ns_result.cost_for_kind("athlon")
        p2 = ns_result.cost_for_kind("pentium2")
        assert athlon > 0 and p2 > 0
        assert ns_result.total_cost_s == pytest.approx(athlon + p2)
        assert ns_result.total_cost_s == pytest.approx(
            ns_result.dataset.total_wall_time()
        )

    def test_pentium2_dominates_cost(self, ns_result):
        """Paper Table 6: 'most of which is consumed by Pentium-II'."""
        assert ns_result.cost_for_kind("pentium2") > 5 * ns_result.cost_for_kind("athlon")

    def test_cost_per_n_increases(self, ns_result):
        costs = [ns_result.cost_for_n("pentium2", n) for n in (400, 800, 1200, 1600)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_cost_rollup_matches_ledger(self, ns_result):
        """The precomputed per-kind rollup must agree with a fresh scan."""
        for kind in ("athlon", "pentium2"):
            expected = sum(
                cost for (k, _), cost in ns_result.cost_by_kind_and_n.items() if k == kind
            )
            assert ns_result.cost_for_kind(kind) == expected
        assert ns_result.cost_for_kind("no-such-kind") == 0.0

    def test_campaign_reproducible(self):
        # Two fresh specs: on one spec the second campaign would be read
        # back from the first one's run memo.
        a = run_campaign(kishimoto_cluster(), ns_plan(), noise=NoiseSpec(), seed=3)
        b = run_campaign(kishimoto_cluster(), ns_plan(), noise=NoiseSpec(), seed=3)
        assert a.dataset.to_json() == b.dataset.to_json()

    def test_evaluation_covers_grid(self):
        spec = kishimoto_cluster()
        plan = ns_plan()
        # restrict to one size for speed by shrinking the plan
        from dataclasses import replace

        small = replace(plan, evaluation_sizes=(1600,))
        evaluation = run_evaluation(spec, small, noise=NoiseSpec(), seed=3)
        assert len(evaluation) == 62
        assert evaluation.sizes() == [1600]


class TestBatchedCampaignEquality:
    """The batched walker path must be value-identical to run-by-run
    measurement — same datasets, same cost ledgers."""

    @staticmethod
    def scalar_runner(spec, groups, params=None, noise=None, seed=0):
        # Grid-shaped, but one run_hpl call per run: the run-by-run oracle.
        return [
            [
                run_hpl(spec, config, n, params=params, noise=noise, seed=seed, trial=t)
                for n, t in zip(ns, trials)
            ]
            for config, ns, trials in groups
        ]

    def test_campaign_dataset_and_costs_identical(self):
        spec = kishimoto_cluster()
        plan = ns_plan()
        noise = NoiseSpec()
        batched = run_campaign(spec, plan, noise=noise, seed=3)
        scalar = run_campaign(
            spec, plan, noise=noise, seed=3, batch_runner=self.scalar_runner
        )
        assert batched.dataset.to_json() == scalar.dataset.to_json()
        for kind in ("athlon", "pentium2"):
            assert batched.cost_for_kind(kind) == scalar.cost_for_kind(kind)

    def test_evaluation_identical(self):
        from dataclasses import replace

        spec = kishimoto_cluster()
        small = replace(ns_plan(), evaluation_sizes=(1600,))
        batched = run_evaluation(spec, small, noise=NoiseSpec(), seed=3)
        scalar = run_evaluation(
            spec, small, noise=NoiseSpec(), seed=3, batch_runner=self.scalar_runner
        )
        assert batched.to_json() == scalar.to_json()


class TestCostOrdering:
    """The paper's headline cost comparison: Basic >> NL >> NS."""

    def test_protocol_cost_ordering(self):
        spec = kishimoto_cluster()
        costs = {}
        for plan in (nl_plan(), ns_plan()):
            costs[plan.name] = run_campaign(spec, plan, seed=0).total_cost_s
        # NS (small N) is more than 10x cheaper than NL (paper: 12235 s vs
        # 572 s, a 21x gap).
        assert costs["ns"] * 10 < costs["nl"]
