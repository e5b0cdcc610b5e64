"""Candidate-axis grid kernel: the scalar-vs-grid oracle.

The contract under test (DESIGN.md §15): ``estimate_grid`` cell
``[i, j]`` is **bitwise** ``estimate(configs[i], ns[j]).total``, and
every backend run on the grid kernel produces the identical outcome —
ranking, winner, stats, budget exhaustion point — as the same backend
fed the scalar path cell by cell
(``pointwise(lambda c, n: pipeline.estimate(c, n).total)``).  Equality
below is ``==`` on floats, never ``approx``.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.core.binning import MemoryBin
from repro.core.estimator import Estimator
from repro.core.grid_kernel import GridKernel
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.search import (
    create_search,
    pointwise,
    registered_search_backends,
    synthetic_estimator,
    synthetic_problem,
)
from repro.errors import ConfigurationError, ModelError, SearchError
from repro.measure.grids import PAPER_KINDS
from repro.perf.report import GridKernelStats
from repro.workloads import create_workload

SIZES = (1600, 3200, 4800, 6400, 8000, 9600)


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(PAPER_KINDS, (p1, m1, p2, m2))


def scalar_reference(pipeline, backend=None, budget=None):
    """The same backend fed the scalar estimate, lifted cell by cell."""
    search = pipeline.optimizer(backend=backend, budget=budget)
    search.grid_estimator = pointwise(lambda c, n: pipeline.estimate(c, n).total)
    return search


def outcome_sig(outcome):
    """Everything observable about an outcome, floats bit-for-bit."""
    return (
        outcome.n,
        [(e.config.key(), e.estimate_s) for e in outcome.ranking],
        outcome.stats.evaluations,
        outcome.stats.dedup_hits,
        outcome.stats.exhausted,
        outcome.complete,
        outcome.best.config.key(),
        outcome.best.estimate_s,
    )


class TestEstimateGrid:
    def test_bitwise_equal_to_scalar_estimates(self, ns_pipeline):
        configs = ns_pipeline.plan.evaluation_configs
        grid = ns_pipeline.estimate_grid(configs, SIZES)
        assert grid.shape == (len(configs), len(SIZES))
        for i, config in enumerate(configs):
            for j, n in enumerate(SIZES):
                assert grid[i, j] == ns_pipeline.estimate(config, n).total

    def test_cold_then_warm_grid_sweep(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=11))
        configs = pipeline.plan.evaluation_configs
        cells = len(configs) * len(SIZES)
        first = pipeline.estimate_grid(configs, SIZES)
        stats = pipeline.estimate_cache.stats
        assert stats.misses == cells
        assert stats.hits == 0
        second = pipeline.estimate_grid(configs, SIZES)
        assert stats.hits == cells
        assert first.tolist() == second.tolist()
        # Warm sweep never re-enters the kernel.
        assert pipeline.perf.grid.blocks == 1

    def test_partial_cache_hits_fill_only_missing_cells(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=12))
        configs = pipeline.plan.evaluation_configs[:4]
        warm = pipeline.estimate_grid(configs[:2], SIZES[:2])
        full = pipeline.estimate_grid(configs, SIZES)
        assert full[:2, :2].tolist() == warm.tolist()
        for i, config in enumerate(configs):
            for j, n in enumerate(SIZES):
                assert full[i, j] == pipeline.estimate(config, n).total

    def test_memory_bins_across_boundaries_stay_bitwise(self, spec):
        """The kernel applies memory bins itself: a sweep whose ratios
        cross two bin boundaries, with one cell exactly at each boundary,
        on the N-T route (one PE, P == Mi) and the P-T route."""
        nt_config, pt_config = cfg(1, 2, 0, 0), cfg(0, 0, 4, 1)
        hpl = create_workload("hpl")
        # Each boundary is a ratio one of the sweep's cells hits exactly.
        low = hpl.memory_ratio(spec, pt_config, 6400, "pentium2")
        high = hpl.memory_ratio(spec, nt_config, 6400, "athlon")
        pipeline = EstimationPipeline(
            spec,
            PipelineConfig(
                protocol="nl",
                seed=11,
                memory_bins=(
                    MemoryBin(max_ratio=low, label="fits"),
                    MemoryBin(
                        max_ratio=high, ta_scale=1.4, tc_scale=1.1, label="tight"
                    ),
                    MemoryBin(
                        max_ratio=4.0, ta_scale=2.0, tc_scale=1.5, label="pages"
                    ),
                ),
            ),
        )
        configs = [nt_config, pt_config]
        grid = pipeline.estimate_grid(configs, SIZES)
        labels = set()
        for i, config in enumerate(configs):
            for j, n in enumerate(SIZES):
                scalar = pipeline.estimate(config, n)
                assert grid[i, j] == scalar.total
                labels.add(scalar.per_kind[0].bin_label)
        assert labels == {"fits", "tight", "pages"}
        # A ratio exactly at a boundary belongs to the bin it closes.
        (nt_kind,) = pipeline.estimate(nt_config, 6400).per_kind
        (pt_kind,) = pipeline.estimate(pt_config, 6400).per_kind
        assert (nt_kind.model_kind, nt_kind.bin_label) == ("nt", "tight")
        assert (pt_kind.model_kind, pt_kind.bin_label) == ("pt", "fits")
        grid_stats = pipeline.perf.to_dict()["grid"]
        assert grid_stats["scalar_fallback"] == 0
        assert grid_stats["blocks"] == 1

    def test_unified_backend_is_rejected(self):
        facade = Estimator.for_unified({("athlon", 1): object()})
        with pytest.raises(ModelError, match="'unified' backend"):
            GridKernel(facade, adjustment=None)

    def test_kernel_stats_recorded(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=13))
        configs = pipeline.plan.evaluation_configs
        pipeline.estimate_grid(configs, SIZES)
        stats = pipeline.perf.grid
        assert isinstance(stats, GridKernelStats)
        assert stats.blocks == 1
        assert stats.block_candidates == len(configs)
        assert stats.cells == len(configs) * len(SIZES)
        assert "grid" in pipeline.perf.to_dict()
        assert pipeline.perf.to_dict()["grid"]["blocks"] == 1

    def test_invalid_configuration_raises_like_scalar(self, ns_pipeline):
        bad = cfg(9, 1, 0, 0)  # more athlon PEs than the cluster has
        with pytest.raises(ConfigurationError) as scalar_err:
            ns_pipeline.estimate(bad, 4800)
        with pytest.raises(ConfigurationError) as grid_err:
            ns_pipeline.estimate_grid([cfg(1, 1, 8, 1), bad], [4800])
        assert str(grid_err.value) == str(scalar_err.value)


class TestBackendGoldenSweep:
    """Every registered backend, grid vs pointwise scalar, bitwise-equal
    outcomes."""

    @pytest.mark.parametrize("tag", registered_search_backends())
    def test_paper_grid(self, ns_pipeline, tag):
        for n in SIZES:
            grid = ns_pipeline.optimizer(backend=tag).optimize(n)
            scalar = scalar_reference(ns_pipeline, tag).optimize(n)
            assert outcome_sig(grid) == outcome_sig(scalar)

    @pytest.mark.parametrize(
        "tag", ["greedy", "hill-climb", "anneal", "beam", "branch-bound"]
    )
    def test_synthetic_4kind(self, tag):
        problem = synthetic_problem(n_kinds=4, pes_per_kind=4, max_procs=3)
        scalar_problem = dataclasses.replace(
            problem, grid_estimator=pointwise(synthetic_estimator(n_kinds=4))
        )
        grid = create_search(tag, problem).optimize(4000)
        scalar = create_search(tag, scalar_problem).optimize(4000)
        assert outcome_sig(grid) == outcome_sig(scalar)

    def test_optimize_many_bitwise(self, ns_pipeline):
        grid = ns_pipeline.optimizer().optimize_many(SIZES)
        scalar = scalar_reference(ns_pipeline).optimize_many(SIZES)
        for a, b in zip(grid, scalar):
            assert [(e.config.key(), e.estimate_s) for e in a.ranking] == [
                (e.config.key(), e.estimate_s) for e in b.ranking
            ]

    def test_frontier_bitwise(self, ns_pipeline):
        for budget in (None, 20):
            grid = ns_pipeline.optimizer(
                backend="budget-frontier", budget=budget
            ).frontier(6400)
            scalar = scalar_reference(
                ns_pipeline, "budget-frontier", budget
            ).frontier(6400)
            assert [
                (p.config.key(), p.time_s, p.dollars) for p in grid.points
            ] == [(p.config.key(), p.time_s, p.dollars) for p in scalar.points]
            assert grid.complete == scalar.complete

    def test_bad_grid_shape_rejected(self, ns_pipeline):
        backend = ns_pipeline.optimizer()
        backend.grid_estimator = lambda configs, ns: np.ones(
            (len(configs), len(ns) + 1)
        )
        with pytest.raises(SearchError, match="shape"):
            backend.optimize(4800)


class TestBudgetExhaustion:
    """A budget that runs out mid-frontier must cut the block short at
    the identical evaluation and report the identical best-seen state."""

    @pytest.mark.parametrize("tag", ["beam", "anneal"])
    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13, 21, 34])
    def test_mid_frontier_budget_matches_scalar(self, ns_pipeline, tag, budget):
        grid = ns_pipeline.optimizer(backend=tag, budget=budget).optimize(4800)
        scalar = scalar_reference(ns_pipeline, tag, budget).optimize(4800)
        assert outcome_sig(grid) == outcome_sig(scalar)
        # The budget caps evaluations actually performed, not prefetches.
        assert grid.stats.evaluations <= budget

    @pytest.mark.parametrize("tag", ["branch-bound", "budget-frontier"])
    @pytest.mark.parametrize("budget", [3, 10, 40])
    def test_leaf_block_budget_matches_scalar(self, ns_pipeline, tag, budget):
        grid = ns_pipeline.optimizer(backend=tag, budget=budget).optimize(4800)
        scalar = scalar_reference(ns_pipeline, tag, budget).optimize(4800)
        assert outcome_sig(grid) == outcome_sig(scalar)
        assert grid.stats.evaluations <= budget


class TestFrontierDedup:
    """Local searchers deduplicate frontiers before evaluation and count
    the skips — identically on the kernel and on the pointwise scalar."""

    @pytest.mark.parametrize("tag", ["greedy", "hill-climb", "anneal", "beam"])
    def test_dedup_hits_counted_and_mode_independent(self, ns_pipeline, tag):
        grid = ns_pipeline.optimizer(backend=tag).optimize(6400)
        scalar = scalar_reference(ns_pipeline, tag).optimize(6400)
        assert grid.stats.dedup_hits == scalar.stats.dedup_hits
        # Revisited states exist in any real run of these searchers.
        assert grid.stats.dedup_hits > 0
        assert grid.stats.to_dict()["dedup_hits"] == grid.stats.dedup_hits

    def test_dedup_hits_reported_by_perf(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=14))
        pipeline.optimize(4800, backend="beam")
        entry = pipeline.perf.to_dict()["search_backends"]["beam"]
        assert entry["dedup_hits"] > 0
