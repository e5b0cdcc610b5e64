"""Extension bench: the unified two-variable model vs the N-T/P-T stack.

Paper future-work item (1): "make the estimation model more elegant and
unified".  The unified model fits one direct (N, P) regression per
(kind, Mi) — no two-stage integration, no reference shapes, no binning.
This bench quantifies the trade on the Basic and NS datasets:

* on well-sampled data (Basic) it matches the stacked models' decisions;
* on the NS grid it fails just as catastrophically — the failure is in
  the data's N coverage, not in the model plumbing.
"""

from repro.analysis.tables import render_table
from repro.core.search import ExhaustiveOptimizer
from repro.core.unified_model import UnifiedEstimator


def _regret(pipeline, estimator, n):
    optimizer = ExhaustiveOptimizer(
        estimator, list(pipeline.plan.evaluation_configs)
    )
    best = optimizer.optimize(n).best
    chosen = pipeline.measured_time(best.config, n)
    _, t_hat = pipeline.actual_best(n)
    return (chosen - t_hat) / t_hat, best


def test_unified_vs_stacked(benchmark, basic_pipeline, ns_pipeline, write_result):
    unified_basic = UnifiedEstimator.fit_dataset(basic_pipeline.campaign.dataset)
    unified_ns = UnifiedEstimator.fit_dataset(ns_pipeline.campaign.dataset)

    rows = []
    worst = {"stacked": 0.0, "unified": 0.0}
    for n in (4800, 6400, 8000, 9600):
        stacked_regret, _ = _regret(basic_pipeline, basic_pipeline.estimate_grid, n)
        unified_regret, _ = _regret(basic_pipeline, unified_basic.estimator(), n)
        worst["stacked"] = max(worst["stacked"], stacked_regret)
        worst["unified"] = max(worst["unified"], unified_regret)
        rows.append([n, f"{stacked_regret:+.3f}", f"{unified_regret:+.3f}"])

    # NS data: both model families must fail (underestimate badly)
    probe_config = next(
        c for c in ns_pipeline.plan.evaluation_configs if c.label() == "1,1,8,1"
    )
    ns_unified_est = unified_ns.estimate(probe_config, 9600)
    ns_meas = ns_pipeline.measured_time(probe_config, 9600)

    write_result(
        "unified_vs_stacked",
        render_table(
            ["N", "stacked N-T/P-T regret", "unified regret"],
            rows,
            title="Unified two-variable model vs the paper's stacked models (Basic data)",
        )
        + f"\n\nNS data, (1,1,8,1) at N=9600: unified estimate "
        f"{ns_unified_est:.1f} s vs measured {ns_meas:.1f} s "
        f"({(ns_unified_est - ns_meas) / ns_meas:+.0%}) — the NS failure is "
        "in the data, not the plumbing.",
    )

    assert worst["unified"] <= max(worst["stacked"] + 0.03, 0.06)
    assert ns_unified_est < 0.5 * ns_meas  # unified extrapolation fails too

    benchmark(lambda: UnifiedEstimator.fit_dataset(basic_pipeline.campaign.dataset))
