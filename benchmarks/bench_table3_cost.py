"""Table 3: HPL execution time for the Basic model's 486 construction
measurements, per kind and problem size.

Paper: Athlon 2180 s + Pentium-II 20689 s = 22869 s (~6 hours).  Our
simulated Athlon column matches within a few percent; the Pentium-II
multiprocess construction runs are slower than the paper's (see
EXPERIMENTS.md).  The benchmark times a full Basic construction campaign.
"""

from repro.analysis.report import cost_table
from repro.cluster.presets import kishimoto_cluster
from repro.hpl.driver import NoiseSpec
from repro.measure.campaign import run_campaign
from repro.measure.grids import basic_plan


def test_table3_basic_measurement_cost(benchmark, basic_pipeline, write_result):
    write_result("table3_basic_cost", cost_table(basic_pipeline))

    campaign = basic_pipeline.campaign
    athlon = campaign.cost_for_kind("athlon")
    pentium2 = campaign.cost_for_kind("pentium2")

    # paper anchors: Athlon 2180.2 s; P-II dominates the total
    assert abs(athlon - 2180.2) / 2180.2 < 0.10
    assert pentium2 > 5 * athlon
    # ~hours of cluster time overall (paper: 22869 s)
    assert 15_000 < campaign.total_cost_s < 60_000

    plan = basic_plan()

    def construction_campaign():
        # a fresh spec, so no run is read back from a spec's run memo
        return run_campaign(kishimoto_cluster(), plan, noise=NoiseSpec(), seed=1)

    benchmark.pedantic(construction_campaign, rounds=1, iterations=1)
