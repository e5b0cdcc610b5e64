"""Tests for the end-to-end estimation pipeline."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.presets import synthetic_cluster
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.binning import MemoryBin
from repro.core.search import registered_search_backends
from repro.errors import ModelError
from repro.measure.grids import custom_plan

KINDS = ("athlon", "pentium2")


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))


class TestStages:
    def test_campaign_cached(self, basic_pipeline):
        assert basic_pipeline.campaign is basic_pipeline.campaign

    def test_store_has_composed_athlon_pt(self, basic_pipeline):
        store = basic_pipeline.store
        for mi in range(1, 7):
            assert store.pt_model("athlon", mi).is_composed
        assert basic_pipeline.composed_models == {"athlon": [1, 2, 3, 4, 5, 6]}

    def test_composition_factors_reflect_speed_ratio(self, basic_pipeline):
        """Auto composition should land near the paper's 0.27 Ta factor
        (their Athlon/P-II ratio; ours is calibrated to the same ratio)."""
        athlon_pt = basic_pipeline.store.pt_model("athlon", 1)
        p2_pt = basic_pipeline.store.pt_model("pentium2", 1)
        ratio = athlon_pt.predict_ta(6400, 9) / p2_pt.predict_ta(6400, 9)
        assert 0.15 <= ratio <= 0.35

    def test_adjustment_calibrated_on_four_configs(self, basic_pipeline):
        assert basic_pipeline.calibration_size() == 6400
        configs = basic_pipeline.calibration_configs()
        assert sorted(c.label(KINDS) for c in configs) == [
            "1,3,8,1",
            "1,4,8,1",
            "1,5,8,1",
            "1,6,8,1",
        ]
        assert basic_pipeline.adjustment.calibration_points == 4

    def test_adjustment_disabled(self, spec):
        pipeline = EstimationPipeline(
            spec, PipelineConfig(protocol="ns", seed=11, adjust=False)
        )
        assert pipeline.adjustment.is_identity


class TestEstimation:
    def test_estimate_structure(self, basic_pipeline):
        estimate = basic_pipeline.estimate(cfg(1, 2, 8, 1), 4800)
        assert estimate.max_mi == 2
        assert not estimate.adjusted  # M1=2 < threshold
        assert estimate.raw_total == estimate.adjusted_total
        kinds = {k.kind_name for k in estimate.per_kind}
        assert kinds == {"athlon", "pentium2"}
        assert estimate.kind("athlon").composed
        assert not estimate.kind("pentium2").composed
        with pytest.raises(ModelError):
            estimate.kind("xeon")

    def test_estimate_uses_max_over_kinds(self, basic_pipeline):
        estimate = basic_pipeline.estimate(cfg(1, 1, 8, 1), 4800)
        assert estimate.raw_total == pytest.approx(
            max(k.total for k in estimate.per_kind)
        )

    def test_adjusted_above_threshold(self, basic_pipeline):
        estimate = basic_pipeline.estimate(cfg(1, 4, 8, 1), 4800)
        assert estimate.adjusted
        scale = basic_pipeline.adjustment.scale_for(4)
        assert estimate.adjusted_total == pytest.approx(scale * estimate.raw_total)

    def test_single_pe_config_uses_nt(self, basic_pipeline):
        estimate = basic_pipeline.estimate(cfg(1, 2, 0, 0), 3200)
        assert estimate.kind("athlon").model_kind == "nt"

    def test_heterogeneous_config_uses_pt(self, basic_pipeline):
        estimate = basic_pipeline.estimate(cfg(1, 2, 8, 1), 3200)
        assert estimate.kind("athlon").model_kind == "pt"
        assert estimate.kind("pentium2").model_kind == "pt"

    def test_estimates_track_measurements(self, basic_pipeline):
        """Model quality: adjusted estimates within ~20% on the eval grid
        for interpolation sizes (the paper's Fig. 7 tightness)."""
        for config in (cfg(1, 1, 8, 1), cfg(1, 2, 8, 1), cfg(0, 0, 8, 1)):
            est = basic_pipeline.estimate(config, 4800).total
            meas = basic_pipeline.measured_time(config, 4800)
            assert est == pytest.approx(meas, rel=0.20)


class TestOptimization:
    def test_optimize_searches_62_candidates(self, basic_pipeline):
        outcome = basic_pipeline.optimize(4800)
        assert len(outcome.ranking) == 62

    def test_estimated_best_close_to_actual_best(self, basic_pipeline):
        """The paper's Table 4 bound: execution-time regret <= ~4%."""
        for n in (3200, 4800, 6400):
            outcome = basic_pipeline.optimize(n)
            tau_hat = basic_pipeline.measured_time(outcome.best.config, n)
            _, t_hat = basic_pipeline.actual_best(n)
            assert (tau_hat - t_hat) / t_hat <= 0.05

    def test_actual_best_at_3200_is_athlon_alone(self, basic_pipeline):
        config, _ = basic_pipeline.actual_best(3200)
        assert config.label(KINDS) == "1,1,0,0"

    def test_memory_bins_plumbing(self, spec):
        pipeline = EstimationPipeline(
            spec,
            PipelineConfig(
                protocol="ns",
                seed=11,
                memory_bins=(MemoryBin(1.0), MemoryBin(10.0, ta_scale=2.0)),
            ),
        )
        ratio_fn = pipeline.models.memory_ratio_fn
        ratio = ratio_fn(cfg(1, 1, 0, 0), 9600, "athlon")
        assert ratio > 0.9
        assert ratio_fn(cfg(1, 1, 0, 0), 9600, "pentium2") == 0.0

    def test_memory_bins_scale_estimates(self, spec):
        """A paging-regime bin inflates the estimate of a configuration the
        ratio classifies as paging (Section 3.4's piecewise selection)."""
        plain = EstimationPipeline(
            spec, PipelineConfig(protocol="ns", seed=11, adjust=False)
        )
        binned = EstimationPipeline(
            spec,
            PipelineConfig(
                protocol="ns",
                seed=11,
                adjust=False,
                memory_bins=(MemoryBin(1.0), MemoryBin(10.0, ta_scale=3.0)),
            ),
        )
        config = cfg(1, 1, 0, 0)  # Athlon alone: pages near N=10000
        n = 10000
        assert binned.estimate(config, n).total > 1.5 * plain.estimate(config, n).total
        # a comfortably in-memory configuration is untouched
        wide = cfg(1, 1, 8, 1)
        assert binned.estimate(wide, 4800).total == pytest.approx(
            plain.estimate(wide, 4800).total
        )


def _small_pipeline(seed=3):
    """A two-kind synthetic pipeline that builds in a fraction of a second."""
    spec = synthetic_cluster([0.5, 1.0], nodes_per_kind=3)
    plan = custom_plan(
        spec, (400, 800, 1600, 3200), (1600,), max_procs=2,
        multiproc_kinds=spec.kind_names,
    )
    return EstimationPipeline(spec, PipelineConfig(seed=seed, adjust=False), plan=plan)


def _signature(outcomes):
    return [
        (
            o.n,
            o.complete,
            [(e.config.key(), e.estimate_s) for e in o.ranking],
            o.stats.to_dict(include_trace=True),
        )
        for o in outcomes
    ]


class TestSharedProblem:
    """The search engine derives its default pool's search data once."""

    @pytest.mark.parametrize("tag", registered_search_backends())
    def test_backends_share_one_problem(self, ns_pipeline, tag):
        engine = ns_pipeline.graph.get("search")
        first = ns_pipeline.optimizer(backend=tag)
        problem = engine.problem
        second = ns_pipeline.optimizer(backend=tag)
        assert engine.problem is problem
        assert first is not second
        if tag == "exhaustive":
            assert first._key_ranks is second._key_ranks is problem.key_ranks()
        else:
            assert first.space is second.space is problem.resolved_space()
        if hasattr(first, "bounds"):
            # Oracles memoize per-size profiles: one per backend.
            assert first.bounds is not second.bounds
        sizes = ns_pipeline.plan.evaluation_sizes
        assert _signature(first.optimize_many(sizes)) == _signature(
            second.optimize_many(sizes)
        )

    def test_explicit_pool_leaves_cached_problem_alone(self):
        pipeline = _small_pipeline()
        engine = pipeline.graph.get("search")
        pool = [
            c for c in pipeline.plan.evaluation_configs
            if all(a.pe_count <= 2 for a in c.active)
        ]
        explicit = pipeline.optimizer(pool, backend="branch-bound")
        assert engine._problem is None  # neither built nor read
        problem = engine.problem
        again = pipeline.optimizer(pool, backend="branch-bound")
        assert engine.problem is problem
        assert again.space is not problem.resolved_space()
        assert explicit.space == again.space
        outcome = explicit.optimize(3200)
        assert {e.config.key() for e in outcome.ranking} <= {c.key() for c in pool}

    def test_refit_gets_fresh_problem(self):
        pipeline = _small_pipeline()
        before = pipeline.optimizer(backend="branch-bound")
        problem = pipeline.graph.get("search").problem
        pipeline.graph.set("adjust", pipeline.adjustment)
        engine = pipeline.graph.get("search")
        after = pipeline.optimizer(backend="branch-bound")
        assert engine.problem is not problem
        assert after.space is not before.space
        assert _signature([after.optimize(3200)]) == _signature([before.optimize(3200)])


class TestProblemOrders:
    """Every estimate and search entry point rejects a problem order that
    is not an integer >= 1 (the grid path used to truncate 3200.5 while
    the scalar path evaluated it, and N <= 0 was answered)."""

    ENTRY_POINTS = {
        "estimate": lambda p, n: p.estimate(cfg(1, 2, 8, 1), n),
        "estimate_totals": lambda p, n: p.estimate_totals(cfg(1, 2, 8, 1), [3200, n]),
        "estimate_grid": lambda p, n: p.estimate_grid([cfg(1, 2, 8, 1)], [n]),
        "optimize": lambda p, n: p.optimize(n),
        "optimize_many": lambda p, n: p.optimize_many([3200, n]),
        "pareto": lambda p, n: p.pareto(n),
        "pareto_many": lambda p, n: p.pareto_many([n]),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "bad", [0, -5, 3200.5, True, np.float64(3200.0), "3200", None]
    )
    def test_rejected(self, basic_pipeline, entry, bad):
        with pytest.raises(ModelError, match="problem order") as raised:
            self.ENTRY_POINTS[entry](basic_pipeline, bad)
        assert repr(bad) in str(raised.value)

    @pytest.mark.parametrize("tag", registered_search_backends())
    @pytest.mark.parametrize("bad", [0, -5, 3200.5, True, np.float64(3200.0)])
    def test_rejected_by_handed_out_backends(self, basic_pipeline, tag, bad):
        backend = basic_pipeline.optimizer(backend=tag)
        calls = [backend.optimize, lambda n: backend.optimize_many([3200, n])]
        if tag == "budget-frontier":
            calls += [backend.frontier, lambda n: backend.frontier_many([3200, n])]
        for call in calls:
            with pytest.raises(ModelError, match="problem order") as raised:
                call(bad)
            assert repr(bad) in str(raised.value)

    def test_numpy_integers_accepted(self, basic_pipeline):
        config = cfg(1, 2, 8, 1)
        n = np.int64(3200)
        assert basic_pipeline.estimate(config, n).total == (
            basic_pipeline.estimate(config, 3200).total
        )
        assert basic_pipeline.estimate_grid([config], [n])[0, 0] == (
            basic_pipeline.estimate_totals(config, [3200])[0]
        )
        assert basic_pipeline.optimize(n).best == basic_pipeline.optimize(3200).best
