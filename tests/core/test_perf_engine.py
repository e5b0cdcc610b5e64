"""Batched/cached estimation engine: ``optimize_many``, the estimate
cache, the ``estimate_for`` index and the pipeline perf report, plus a
24-size sweep's batched-vs-looped time gate."""

import time

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.core.binning import MemoryBin
from repro.core.grid_kernel import GridKernel
from repro.core.search import ExhaustiveOptimizer, pointwise
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.errors import SearchError
from repro.measure.grids import PAPER_KINDS
from repro.perf.cache import EstimateCache
from repro.perf.report import GridKernelStats


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(PAPER_KINDS, (p1, m1, p2, m2))


SIZES = (1600, 3200, 4800, 6400, 8000, 9600)


class TestOptimizeMany:
    def test_matches_looped_optimize_bitwise(self, ns_pipeline):
        looped = [ns_pipeline.optimizer().optimize(n) for n in SIZES]
        batched = ns_pipeline.optimize_many(SIZES)
        assert len(batched) == len(SIZES)
        for a, b in zip(looped, batched):
            assert b.n == a.n
            assert [e.config.key() for e in b.ranking] == [
                e.config.key() for e in a.ranking
            ]
            # bitwise, not approximately: the batched path must evaluate
            # the very same arithmetic per element
            assert [e.estimate_s for e in b.ranking] == [
                e.estimate_s for e in a.ranking
            ]

    def test_single_size_matches(self, nl_pipeline):
        (batched,) = nl_pipeline.optimize_many([6400])
        scalar = nl_pipeline.optimizer().optimize(6400)
        assert batched.best.config.key() == scalar.best.config.key()
        assert batched.best.estimate_s == scalar.best.estimate_s

    def test_without_batch_estimator_falls_back(self):
        """A plain per-cell function, lifted with ``pointwise``."""
        opt = ExhaustiveOptimizer(
            pointwise(lambda config, n: float(n) / config.total_processes),
            [cfg(1, 1, 0, 0), cfg(1, 2, 0, 0)],
        )
        outcomes = opt.optimize_many([100, 200])
        assert [o.n for o in outcomes] == [100, 200]
        assert outcomes[0].best.config.key() == cfg(1, 2, 0, 0).key()

    def test_empty_sizes_rejected(self, ns_pipeline):
        with pytest.raises(SearchError):
            ns_pipeline.optimize_many([])

    def test_bad_batch_shape_rejected(self):
        opt = ExhaustiveOptimizer(
            lambda configs, ns: np.ones((len(configs), len(ns) + 1)),
            [cfg(1, 1, 0, 0)],
        )
        with pytest.raises(SearchError, match="shape"):
            opt.optimize_many([100, 200])

    def test_invalid_value_message_matches_scalar_path(self):
        candidates = [cfg(1, 1, 0, 0), cfg(1, 2, 0, 0)]
        scalar = ExhaustiveOptimizer(pointwise(lambda config, n: -1.0), candidates)
        batched = ExhaustiveOptimizer(
            lambda configs, ns: np.full((len(configs), len(ns)), -1.0),
            candidates,
        )
        with pytest.raises(SearchError) as scalar_err:
            scalar.optimize(400)
        with pytest.raises(SearchError) as batched_err:
            batched.optimize_many([400])
        assert str(scalar_err.value) == str(batched_err.value)


class TestEstimateTotals:
    def test_matches_scalar_estimates(self, nl_pipeline):
        for config in (cfg(1, 3, 8, 1), cfg(0, 0, 4, 1), cfg(1, 1, 0, 0)):
            totals = nl_pipeline.estimate_totals(config, SIZES)
            expected = [nl_pipeline.estimate(config, n).total for n in SIZES]
            assert totals.tolist() == expected

    def test_memory_bins_batched_matches_scalar(self, spec):
        pipeline = EstimationPipeline(
            spec,
            PipelineConfig(
                protocol="nl",
                seed=11,
                memory_bins=(
                    MemoryBin(max_ratio=0.5, label="fits"),
                    MemoryBin(max_ratio=2.0, ta_scale=1.4, tc_scale=1.1, label="pages"),
                ),
            ),
        )
        config = cfg(1, 2, 8, 1)
        totals = pipeline.estimate_totals(config, SIZES)
        expected = [pipeline.estimate(config, n).total for n in SIZES]
        assert totals.tolist() == expected


class TestSweepGate:
    """A 24-size sweep on the NS pipeline at seed 42, looped cold through
    one backend, then batched."""

    SIZES = tuple(1600 + 100 * i for i in range(24))

    def test_batched_sweep_is_looped_bitwise_faster_and_then_cached(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=42))
        _ = pipeline.store, pipeline.adjustment
        optimizer = pipeline.optimizer()
        started = time.perf_counter()
        looped = [optimizer.optimize(n) for n in self.SIZES]
        looped_s = time.perf_counter() - started
        started = time.perf_counter()
        batched = pipeline.optimize_many(self.SIZES)
        batched_s = time.perf_counter() - started
        for a, b in zip(looped, batched):
            assert [e.config.key() for e in a.ranking] == [e.config.key() for e in b.ranking]
            assert [e.estimate_s for e in a.ranking] == [e.estimate_s for e in b.ranking]
        # A deliberately loose gate, so it holds on slow or noisy runners:
        # the batched sweep beats half the looped time.
        assert batched_s <= looped_s / 2, (
            f"batched sweep ({batched_s:.3f}s) failed to beat half the looped "
            f"time ({looped_s:.3f}s)"
        )
        stats = pipeline.estimate_cache.stats
        hits_before = stats.hits
        pipeline.optimize_many(self.SIZES)
        assert stats.hits - hits_before == len(pipeline.plan.evaluation_configs) * len(
            self.SIZES
        )


class TestEstimateCache:
    def test_cold_then_warm_sweep(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=11))
        sizes = list(SIZES)
        first = pipeline.optimize_many(sizes)
        stats = pipeline.estimate_cache.stats
        assert stats.hits == 0
        assert stats.misses == len(pipeline.plan.evaluation_configs) * len(sizes)
        second = pipeline.optimize_many(sizes)
        assert stats.hits == len(pipeline.plan.evaluation_configs) * len(sizes)
        for a, b in zip(first, second):
            assert [e.estimate_s for e in a.ranking] == [
                e.estimate_s for e in b.ranking
            ]

    def test_fingerprint_tracks_models(self, spec):
        same_a = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=11))
        same_b = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=11))
        other = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=12))
        assert same_a.estimate_cache.fingerprint == same_b.estimate_cache.fingerprint
        assert same_a.estimate_cache.fingerprint != other.estimate_cache.fingerprint


class TestEngineCacheReplay:
    def test_counters_match_a_per_cell_dict(self, spec):
        """The engine's row-addressed cache and kernel counters equal what
        a per-cell dict cache in front of a fresh kernel gives on the same
        calls: the pool itself, pool subsets, equal configurations built
        anew, configurations outside the pool, duplicate sizes and
        configurations, partly filled columns, and a clear."""
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=11))
        engine = pipeline.graph.get("search")
        pool = engine.problem.resolved_candidates()
        outside = [cfg(1, 2, 8, 2), cfg(0, 0, 4, 2)]
        rebuilt = [ClusterConfig.from_tuple(PAPER_KINDS, c.as_flat_tuple(PAPER_KINDS))
                   for c in pool[5:9]]
        calls = [
            (pool, [1600, 3200]),
            (pool[:10], [3200, 4800, 3200]),
            (rebuilt + [pool[6]], [4800, 6400]),
            (outside + list(pool[:2]) + outside[:1], [1600, 1600]),
            "clear",
            (pool, [4800]),
            (list(pool[::7]) + outside, [4800, 8000]),
            (pool, [4800, 8000, 9600]),
        ]
        stats = GridKernelStats()
        kernel = GridKernel(
            pipeline.models, pipeline.adjustment,
            validate=lambda c: c.validate_against(spec), stats=stats,
        )
        reference = EstimateCache(engine.estimate_cache.fingerprint)
        cache = engine.estimate_cache
        assert cache.stats.as_tuple() == (0, 0, 0) and engine.grid_kernel.stats.blocks == 0
        for call in calls:
            if call == "clear":
                cache.clear()
                reference.clear()
                continue
            configs, sizes = call
            got = engine.estimate_grid(configs, sizes)
            expected = reference.get_block(configs, sizes, kernel.evaluate)
            assert got.tobytes() == expected.tobytes()
            assert cache.stats.as_tuple() == reference.stats.as_tuple()
            assert len(cache) == len(reference)
            assert pipeline.perf.grid.to_dict() == stats.to_dict()


class TestEstimateForIndex:
    def test_lookup_and_missing(self, ns_pipeline):
        outcome = ns_pipeline.optimize(4800)
        for entry in outcome.ranking[:5]:
            assert outcome.estimate_for(entry.config) == entry.estimate_s
        # M2=2 is outside the evaluation grid (it sweeps M2=1 only)
        with pytest.raises(SearchError, match="not a candidate"):
            outcome.estimate_for(cfg(1, 1, 8, 2))

    def test_equivalent_config_forms_resolve(self, ns_pipeline):
        outcome = ns_pipeline.optimize(4800)
        entry = outcome.ranking[0]
        flat = ClusterConfig.from_tuple(
            PAPER_KINDS, entry.config.as_flat_tuple(PAPER_KINDS)
        )
        assert outcome.estimate_for(flat) == entry.estimate_s


class TestPerfReport:
    def test_pipeline_records_stages(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=11))
        pipeline.optimize_many(SIZES)
        report = pipeline.perf
        for stage in ("campaign", "evaluation", "fit", "compose", "adjust", "search"):
            assert report.stage_calls(stage) >= 1, stage
            assert report.stage_seconds(stage) >= 0.0
        assert report.cache is pipeline.estimate_cache
        text = report.render()
        assert "campaign" in text and "cache:" in text
