"""The per-spec run memo behind every campaign (counted, not timed).

Campaigns, evaluations and trial campaigns look every run up in a
bounded memo held on the spec before they call the grid runner, so the
paper's three protocols simulate each distinct run once per spec.  A
counting grid runner checks what is simulated; every memo-served
dataset must equal a cold measurement on a fresh spec, bit for bit.
"""

import copy
import pickle
import sys
import threading
from dataclasses import replace

import pytest

import repro.measure.campaign as campaign_module
from repro.cluster.presets import kishimoto_cluster
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.errors import SimulationError
from repro.hpl.driver import NoiseSpec, run_hpl_grid
from repro.hpl.schedule import HPLParameters
from repro.measure.campaign import _measure_entries, run_campaign, run_evaluation
from repro.measure.grids import custom_plan
from repro.measure.trials import run_campaign_with_trials
from repro.workloads import create_workload

PROTOCOLS = ("basic", "nl", "ns")
#: Distinct runs of the six paper grids (campaign and evaluation of
#: Basic, NL and NS) at one seed, against 1,780 runs measured.
DISTINCT_RUNS = {"hpl": 802, "sorting": 802, "montecarlo": 788}


class Counting:
    """A grid runner that counts the runs it is handed, and refuses a
    configuration group without runs (the memo never hands the runner a
    configuration whose runs all hit)."""

    def __init__(self, runner=run_hpl_grid, fail=False):
        self.runner = runner
        self.fail = fail
        self.runs = 0

    def __call__(self, spec, groups, **kwargs):
        assert all(sizes for _, sizes, _ in groups), "a group without runs"
        self.runs += sum(len(sizes) for _, sizes, _ in groups)
        if self.fail:
            raise SimulationError("injected grid failure")
        return self.runner(spec, groups, **kwargs)


def measure_protocols(spec, family, runner, seed):
    """The six paper grids of one family, on one spec."""
    workload = create_workload(family)
    for protocol in PROTOCOLS:
        plan = workload.plan(protocol)
        run_campaign(spec, plan, noise=NoiseSpec(), seed=seed, batch_runner=runner)
        run_evaluation(spec, plan, noise=NoiseSpec(), seed=seed, batch_runner=runner)


@pytest.fixture(scope="module")
def tiny_plan():
    """Ten configurations at two sizes, and one evaluation size."""
    return custom_plan(kishimoto_cluster(), (400, 800), (800,), max_procs=2)


def simulated(runner, spec, plan, **kwargs):
    """Runs ``runner`` simulates for ``plan``'s campaign on ``spec``."""
    before = runner.runs
    run_campaign(spec, plan, batch_runner=runner, **kwargs)
    return runner.runs - before


class TestPaperGrids:
    def test_each_distinct_run_is_simulated_once_per_spec(self):
        spec = kishimoto_cluster()
        runners = {family: Counting(create_workload(family).batch_runner())
                   for family in DISTINCT_RUNS}
        for family, runner in runners.items():
            measure_protocols(spec, family, runner, seed=5)
            assert runner.runs == DISTINCT_RUNS[family], family
        # The default bound holds one seed's nine pipelines ...
        assert len(spec._runs) == sum(DISTINCT_RUNS.values()) == 2392
        assert len(spec._runs) <= campaign_module._RUNS_PER_SPEC
        # ... so a second build at that seed simulates nothing,
        for family, runner in runners.items():
            measure_protocols(spec, family, runner, seed=5)
            assert runner.runs == DISTINCT_RUNS[family], family
        # while another seed, or a fresh spec, simulates every run again.
        for family, runner in runners.items():
            measure_protocols(spec, family, runner, seed=6)
            measure_protocols(kishimoto_cluster(), family, runner, seed=5)
            assert runner.runs == 3 * DISTINCT_RUNS[family], family

    def test_ns_pipeline_reports_its_runs_served_by_basic_and_nl(self):
        spec = kishimoto_cluster()
        reports = {}
        for protocol in PROTOCOLS:
            pipeline = EstimationPipeline(spec, PipelineConfig(protocol=protocol, seed=3))
            len(pipeline.campaign.dataset), len(pipeline.evaluation)
            reports[protocol] = pipeline.perf
        assert reports["basic"].runs == {
            "campaign": {"simulated": 486, "reused": 0},
            "evaluation": {"simulated": 268, "reused": 42},
        }
        assert reports["nl"].to_dict()["runs"] == {
            "campaign": {"simulated": 0, "reused": 120},
            "evaluation": {"simulated": 48, "reused": 324},
        }
        ns = reports["ns"]
        assert ns.to_dict()["runs"] == {
            "campaign": {"simulated": 0, "reused": 120},
            "evaluation": {"simulated": 0, "reused": 372},
        }
        assert "runs: campaign 0 simulated/120 reused; evaluation 0 simulated/372 reused" in (
            ns.render().splitlines()
        )

    @pytest.mark.parametrize("family", sorted(DISTINCT_RUNS))
    def test_memo_served_datasets_equal_cold_measurements(self, family):
        """Every grid measured on one spec (most runs served by an earlier
        protocol's grid) equals its cold measurement on a fresh spec."""
        workload = create_workload(family)
        shared = kishimoto_cluster()
        for protocol in PROTOCOLS:
            plan = workload.plan(protocol)
            kwargs = dict(noise=NoiseSpec(), seed=5, batch_runner=workload.batch_runner())
            warm = run_campaign(shared, plan, **kwargs)
            cold = run_campaign(kishimoto_cluster(), plan, **kwargs)
            assert warm.dataset.to_json() == cold.dataset.to_json(), protocol
            assert warm.cost_by_kind_and_n == cold.cost_by_kind_and_n, protocol
            warm_truth = run_evaluation(shared, plan, **kwargs)
            cold_truth = run_evaluation(kishimoto_cluster(), plan, **kwargs)
            assert warm_truth.to_json() == cold_truth.to_json(), protocol


class TestKey:
    @pytest.mark.parametrize("change", [
        {"params": HPLParameters(nb=64)},
        {"noise": NoiseSpec(sigma_compute=0.02)},
        {"seed": 8},
    ], ids=["params", "noise", "seed"])
    def test_changing_one_part_misses(self, tiny_plan, change):
        spec, runner = kishimoto_cluster(), Counting()
        base = {"noise": NoiseSpec(), "seed": 7}
        runs = tiny_plan.construction_count
        assert simulated(runner, spec, tiny_plan, **base) == runs
        assert simulated(runner, spec, tiny_plan, **base) == 0
        assert simulated(runner, spec, tiny_plan, **{**base, **change}) == runs

    def test_another_runner_misses(self, tiny_plan):
        spec, runner, other = kishimoto_cluster(), Counting(), Counting()
        runs = tiny_plan.construction_count
        assert simulated(runner, spec, tiny_plan) == runs
        assert simulated(other, spec, tiny_plan) == runs
        assert simulated(runner, spec, tiny_plan) == simulated(other, spec, tiny_plan) == 0

    def test_changing_kinds_misses(self, tiny_plan):
        spec, runner = kishimoto_cluster(), Counting()
        entries = list(tiny_plan.construction_runs())
        for kinds, runs in ((tiny_plan.kinds, len(entries)),
                            (tiny_plan.kinds[::-1], len(entries)),
                            (tiny_plan.kinds, 0)):
            before = runner.runs
            _measure_entries(entries, spec, kinds, None, NoiseSpec(), 7, runner, 1)
            assert runner.runs - before == runs

    def test_trials_reuse_trial_zero_of_a_plain_campaign(self, tiny_plan):
        spec, runner = kishimoto_cluster(), Counting()
        runs = tiny_plan.construction_count
        single = run_campaign(spec, tiny_plan, noise=NoiseSpec(), seed=7, batch_runner=runner)
        run_campaign_with_trials(spec, tiny_plan, trials=3, noise=NoiseSpec(), seed=7,
                                 batch_runner=runner)
        assert runner.runs == runs + 2 * runs
        cold = run_campaign_with_trials(kishimoto_cluster(), tiny_plan, trials=3,
                                        noise=NoiseSpec(), seed=7)
        warm = run_campaign_with_trials(spec, tiny_plan, trials=3, noise=NoiseSpec(), seed=7,
                                        batch_runner=runner)
        assert runner.runs == 3 * runs
        assert warm.dataset.to_json() == cold.dataset.to_json()
        assert warm.cost_by_kind_and_n == cold.cost_by_kind_and_n
        assert len(single.dataset) == len(warm.dataset)


class TestBound:
    def test_least_recently_used_runs_are_evicted(self, tiny_plan, monkeypatch):
        monkeypatch.setattr(campaign_module, "_RUNS_PER_SPEC", 4)
        spec, runner = kishimoto_cluster(), Counting()
        a, b, c, d, e = list(tiny_plan.construction_runs())[:5]

        def measure(*entries):
            before = runner.runs
            _measure_entries(list(entries), spec, tiny_plan.kinds, None, None, 0, runner, 1)
            return runner.runs - before

        assert measure(a, b, c, d) == 4
        assert measure(a) == 0  # a is now the most recently used
        assert measure(e) == 1  # evicts b, the least recently used
        assert len(spec._runs) == 4
        assert measure(a, c, d, e) == 0
        assert measure(b) == 1


class TestLifetime:
    def test_a_failing_grid_call_stores_nothing(self, tiny_plan):
        spec = kishimoto_cluster()
        failing = Counting(fail=True)
        for _ in range(2):  # the error comes back on every call
            with pytest.raises(SimulationError, match="injected"):
                run_campaign(spec, tiny_plan, batch_runner=failing)
        assert len(spec._runs) == 0
        assert failing.runs == 2 * tiny_plan.construction_count

    def test_pickled_copied_and_replaced_specs_start_empty(self, tiny_plan):
        spec, runner = kishimoto_cluster(), Counting()
        runs = simulated(runner, spec, tiny_plan)
        assert len(spec._runs) == runs
        for other in (pickle.loads(pickle.dumps(spec)), copy.copy(spec),
                      replace(spec, name="twin"), kishimoto_cluster()):
            assert len(other._runs) == 0
            assert simulated(runner, other, tiny_plan) == runs
        assert simulated(runner, spec, tiny_plan) == 0

    def test_concurrent_campaigns_on_one_spec(self, tiny_plan):
        cold = run_campaign(kishimoto_cluster(), tiny_plan, noise=NoiseSpec(), seed=4)
        spec = kishimoto_cluster()
        results = [None] * 6

        def measure(slot):
            results[slot] = run_campaign(spec, tiny_plan, noise=NoiseSpec(), seed=4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=measure, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result in results:
            assert result.dataset.to_json() == cold.dataset.to_json()
        assert len(spec._runs) == tiny_plan.construction_count
