"""Robustness bench: outlier injection vs repeated-trial aggregation.

The paper times every construction configuration once.  On a machine with
occasional interference (a cron job, an NFS stall) a single outlier run
lands inside the least-squares fits.  This bench injects whole-run
outliers (8% of runs are 3x slower) and compares:

* single-shot campaigns (the paper's procedure) — decisions degrade;
* 3-trial median campaigns — decisions recover, at 3x measurement cost.
"""

from repro.analysis.tables import render_table
from repro.cluster.presets import kishimoto_cluster
from repro.core.composition import CompositionPolicy
from repro.core.model_store import ModelStore
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.search import ExhaustiveOptimizer, pointwise
from repro.hpl.driver import NoiseSpec
from repro.measure.grids import nl_plan
from repro.measure.trials import run_campaign_with_trials

SEED = 77
DIRTY = NoiseSpec(outlier_probability=0.08, outlier_factor=3.0)


def _estimator_from(dataset, spec):
    store = ModelStore.fit_dataset(dataset)
    CompositionPolicy(mode="auto").compose_missing(store, "athlon", "pentium2")
    from repro.core.binning import ModelSelector

    selector = ModelSelector(store)

    def estimate(config, n):
        p = config.total_processes
        estimates = [
            selector.estimate_kind(a.kind_name, n, p, a.procs_per_pe)
            for a in config.active
        ]
        if not all(e.valid for e in estimates):
            return float("inf")  # model out of domain: never pick this
        return max(e.total for e in estimates)

    return estimate


def test_trials_beat_outliers(benchmark, spec, write_result):
    plan = nl_plan()
    # ground truth for regret: a clean pipeline's evaluation measurements
    truth = EstimationPipeline(spec, PipelineConfig(protocol="nl", seed=SEED))

    def worst_regret(dataset):
        estimator = _estimator_from(dataset, spec)
        optimizer = ExhaustiveOptimizer(
            pointwise(estimator), list(plan.evaluation_configs)
        )
        worst = 0.0
        for n in (4800, 6400, 9600):
            best = optimizer.optimize(n).best
            chosen = truth.measured_time(best.config, n)
            _, t_hat = truth.actual_best(n)
            worst = max(worst, (chosen - t_hat) / t_hat)
        return worst

    from repro.measure.campaign import run_campaign

    single_dirty = run_campaign(spec, plan, noise=DIRTY, seed=SEED)
    median3_dirty = run_campaign_with_trials(
        spec, plan, trials=3, how="median", noise=DIRTY, seed=SEED
    )
    min3_dirty = run_campaign_with_trials(
        spec, plan, trials=3, how="min", noise=DIRTY, seed=SEED
    )
    single_clean = run_campaign(spec, plan, noise=NoiseSpec(), seed=SEED)

    results = {
        "clean, 1 trial": (worst_regret(single_clean.dataset), single_clean.total_cost_s),
        "8% outliers, 1 trial": (
            worst_regret(single_dirty.dataset),
            single_dirty.total_cost_s,
        ),
        "8% outliers, 3-trial median": (
            worst_regret(median3_dirty.dataset),
            median3_dirty.total_cost_s,
        ),
        "8% outliers, 3-trial min": (
            worst_regret(min3_dirty.dataset),
            min3_dirty.total_cost_s,
        ),
    }
    write_result(
        "trials_vs_outliers",
        render_table(
            ["campaign", "worst regret (N>=4800)", "measurement cost [s]"],
            [
                [label, f"{regret:+.3f}", f"{cost:.0f}"]
                for label, (regret, cost) in results.items()
            ],
            title="Outlier injection vs repeated-trial aggregation (NL protocol)",
        ),
    )

    clean_regret = results["clean, 1 trial"][0]
    dirty_regret = results["8% outliers, 1 trial"][0]
    median_regret = results["8% outliers, 3-trial median"][0]
    min_regret = results["8% outliers, 3-trial min"][0]
    # repeated trials improve on single-shot; min (the classic for a
    # deterministic computation: all 3 trials must be outliers to pollute
    # it) restores clean-grade decisions
    assert median_regret < dirty_regret
    assert min_regret <= clean_regret + 0.03
    # ...and the robustness is honestly paid for
    assert results["8% outliers, 3-trial min"][1] > 2.5 * results["clean, 1 trial"][1]

    # a fresh spec, so no run is read back from a spec's run memo
    benchmark.pedantic(
        lambda: run_campaign_with_trials(
            kishimoto_cluster(), plan, trials=3, noise=DIRTY, seed=SEED
        ),
        rounds=1,
        iterations=1,
    )
