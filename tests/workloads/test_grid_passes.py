"""Work counts of the paper's measurement grids (counted, not timed).

Every family's grid runner walks a grid once per process count (each
grid measured on a fresh spec, so none of its runs comes from a spec's
run memo), and a process places each configuration of a spec once,
however many pipelines it builds on that spec.
"""

import pytest

import repro.cluster.placement as placement_module
from repro.cluster.presets import kishimoto_cluster
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.hpl.driver import NoiseSpec
from repro.measure.campaign import run_campaign, run_evaluation
from repro.workloads import create_workload
from repro.workloads import montecarlo, sorting

PROTOCOLS = ("basic", "nl", "ns")
WALKERS = {"sorting": (sorting, "_walk_sorting"), "montecarlo": (montecarlo, "_walk_montecarlo")}


@pytest.mark.parametrize("family", sorted(WALKERS))
def test_six_paper_grids_take_one_pass_per_grid_and_process_count(family, monkeypatch):
    module, name = WALKERS[family]
    walk = getattr(module, name)
    passes = []

    def counting(spec, columns, sizes, f_comp, f_comm):
        passes.append(len(sizes))
        return walk(spec, columns, sizes, f_comp, f_comm)

    monkeypatch.setattr(module, name, counting)
    workload = create_workload(family)
    expected_passes = expected_runs = 0
    for protocol in PROTOCOLS:
        plan = workload.plan(protocol)
        for configs, sizes in ((plan.construction_configs, plan.construction_sizes),
                               (plan.evaluation_configs, plan.evaluation_sizes)):
            expected_passes += len({config.total_processes for config in configs})
            expected_runs += len(configs) * len(sizes)
        run_campaign(kishimoto_cluster(), plan, noise=NoiseSpec(), seed=7,
                     batch_runner=workload.batch_runner())
        run_evaluation(kishimoto_cluster(), plan, noise=NoiseSpec(), seed=7,
                       batch_runner=workload.batch_runner())
    assert expected_passes == 99  # against 300 configuration walks
    assert len(passes) == expected_passes
    assert sum(passes) == expected_runs


def test_nine_paper_pipelines_place_each_configuration_once(monkeypatch):
    placed = []
    uncached = placement_module._place

    def counting(spec, config):
        placed.append(config.key())
        return uncached(spec, config)

    monkeypatch.setattr(placement_module, "_place", counting)
    spec = kishimoto_cluster()
    for seed in (5, 6):
        for family in ("hpl", "sorting", "montecarlo"):
            for protocol in PROTOCOLS:
                pipeline = EstimationPipeline(
                    spec, PipelineConfig(protocol=protocol, seed=seed, workload=family)
                )
                len(pipeline.campaign.dataset)
                len(pipeline.evaluation)
                pipeline.adjustment
    assert len(placed) == len(set(placed)) == 102
    assert len(spec._placements) == 102
