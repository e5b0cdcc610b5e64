"""Tests for heuristic configuration search."""

import pytest

from repro.cluster.presets import kishimoto_cluster, synthetic_cluster
from repro.core.search import (
    ExhaustiveOptimizer,
    GreedyGrowth,
    HillClimber,
    SimulatedAnnealing,
    full_candidate_space,
    pointwise,
)
from repro.errors import SearchError


def model_estimator(spec, n_ref=8000.0):
    """A cheap analytic objective with the real problem's structure:
    per-kind time = max over kinds of (work share / kind rate + comm),
    lifted to the grid form the search backends take."""

    rates = {kind.name: kind.peak_gflops * 1e9 for kind in spec.kinds}

    def estimator(config, n):
        p = config.total_processes
        work = (2.0 / 3.0) * float(n) ** 3
        per_kind = []
        for alloc in config.active:
            rate = rates[alloc.kind_name]
            share = work * alloc.processes / p
            compute = share / (rate * alloc.pe_count) * (
                1 + 0.05 * (alloc.procs_per_pe - 1)
            )
            per_kind.append(compute)
        comm = 2e-7 * float(n) ** 2 * (1 + 0.1 * p)
        return max(per_kind) + comm

    return pointwise(estimator)


@pytest.fixture(scope="module")
def paper_spec():
    return kishimoto_cluster()


class TestCandidateSpace:
    def test_space_size_for_paper_cluster(self, paper_spec):
        # athlon: 1 + 1*6 choices; pentium2: 1 + 8*6 -> 7*49 - 1 empty = 342
        space = full_candidate_space(paper_spec, max_procs=6)
        assert len(space) == 342

    def test_max_procs_respected(self, paper_spec):
        for config in full_candidate_space(paper_spec, max_procs=2):
            for alloc in config.active:
                assert alloc.procs_per_pe <= 2


class TestGreedy:
    def test_finds_exhaustive_optimum_on_smooth_objective(self, paper_spec):
        estimator = model_estimator(paper_spec)
        greedy = GreedyGrowth(paper_spec, estimator)
        stats = greedy.search(8000)
        exhaustive = ExhaustiveOptimizer(
            estimator, full_candidate_space(paper_spec)
        ).optimize(8000)
        assert stats.best_estimate == pytest.approx(
            exhaustive.best.estimate_s, rel=0.02
        )

    def test_uses_fewer_evaluations_than_exhaustive(self, paper_spec):
        estimator = model_estimator(paper_spec)
        stats = GreedyGrowth(paper_spec, estimator).search(8000)
        assert stats.evaluations < 342 / 2

    def test_trace_is_monotone(self, paper_spec):
        stats = GreedyGrowth(paper_spec, model_estimator(paper_spec)).search(4800)
        assert all(b <= a for a, b in zip(stats.trace, stats.trace[1:]))

    def test_invalid_max_procs(self, paper_spec):
        with pytest.raises(SearchError):
            GreedyGrowth(paper_spec, pointwise(lambda c, n: 1.0), max_procs=0)


class TestHillClimberAndAnnealing:
    def test_hill_climber_reaches_good_solution(self, paper_spec):
        estimator = model_estimator(paper_spec)
        stats = HillClimber(paper_spec, estimator).search(8000, restarts=3, seed=1)
        exhaustive = ExhaustiveOptimizer(
            estimator, full_candidate_space(paper_spec)
        ).optimize(8000)
        assert stats.best_estimate <= exhaustive.best.estimate_s * 1.10

    def test_annealing_matches_exhaustive(self, paper_spec):
        estimator = model_estimator(paper_spec)
        stats = SimulatedAnnealing(paper_spec, estimator).search(8000, steps=300, seed=2)
        exhaustive = ExhaustiveOptimizer(
            estimator, full_candidate_space(paper_spec)
        ).optimize(8000)
        assert stats.best_estimate <= exhaustive.best.estimate_s * 1.05

    def test_annealing_reproducible(self, paper_spec):
        estimator = model_estimator(paper_spec)
        a = SimulatedAnnealing(paper_spec, estimator).search(4800, steps=100, seed=7)
        b = SimulatedAnnealing(paper_spec, estimator).search(4800, steps=100, seed=7)
        assert a.best_estimate == b.best_estimate
        assert a.evaluations == b.evaluations

    def test_annealing_parameter_validation(self, paper_spec):
        sa = SimulatedAnnealing(paper_spec, pointwise(lambda c, n: 1.0))
        with pytest.raises(SearchError):
            sa.search(100, steps=0)
        with pytest.raises(SearchError):
            sa.search(100, cooling=0.0)


class TestLargeCluster:
    def test_heuristics_scale_to_many_kinds(self):
        spec = synthetic_cluster([0.2, 0.4, 0.8, 1.6, 3.2], nodes_per_kind=2)
        estimator = model_estimator(spec)
        greedy = GreedyGrowth(spec, estimator, max_procs=4).search(12000)
        annealing = SimulatedAnnealing(spec, estimator, max_procs=4).search(
            12000, steps=500, seed=3
        )
        # sanity: both find something and agree within 15%
        assert greedy.best_config is not None
        assert annealing.best_estimate <= greedy.best_estimate * 1.15
        # fast kinds participate in the chosen configuration
        best = annealing.best_config
        assert best.pe_count("kind4") > 0
