"""Tests for the end-to-end estimation pipeline."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.binning import MemoryBin
from repro.errors import ModelError

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
