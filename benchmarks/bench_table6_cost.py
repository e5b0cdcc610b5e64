"""Table 6 (and Table 2/5/8 accounting): measurement cost of the reduced
NL and NS construction grids.

Paper: NL needs 12235 s (~3 h), NS only 571.7 s (~10 min) — against the
Basic model's 22869 s (~6 h).  The benchmark times an NS construction
campaign (the cheapest full campaign, the paper's speed argument).
"""

from repro.analysis.report import cost_table
from repro.cluster.presets import kishimoto_cluster
from repro.hpl.driver import NoiseSpec
from repro.measure.campaign import run_campaign
from repro.measure.grids import ns_plan


def test_table6_nl_ns_cost(
    benchmark, basic_pipeline, nl_pipeline, ns_pipeline, write_result
):
    text = (
        cost_table(nl_pipeline)
        + "\n\n"
        + cost_table(ns_pipeline)
        + "\n\nTotals: basic "
        + f"{basic_pipeline.campaign.total_cost_s:.0f} s, "
        + f"nl {nl_pipeline.campaign.total_cost_s:.0f} s, "
        + f"ns {ns_pipeline.campaign.total_cost_s:.0f} s "
        + "(paper: 22869 / 12235 / 572)"
    )
    write_result("table6_nl_ns_cost", text)

    basic = basic_pipeline.campaign.total_cost_s
    nl = nl_pipeline.campaign.total_cost_s
    ns = ns_pipeline.campaign.total_cost_s
    assert basic > nl > ns
    assert ns < basic / 20  # paper: 572 / 22869 = 1/40
    assert 0.3 < nl / basic < 0.75  # paper: 0.53

    plan = ns_plan()
    # a fresh spec per round, so no run is read back from a spec's run memo
    benchmark.pedantic(
        lambda: run_campaign(kishimoto_cluster(), plan, noise=NoiseSpec(), seed=1),
        rounds=3,
        iterations=1,
    )
