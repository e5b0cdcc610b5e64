"""Every registered search backend on fitted pipelines.

* ``TestPaperGrid`` — the paper's NS pipeline (seed 7), full 62-candidate
  evaluation grid, every evaluation size: exact backends agree bitwise,
  branch-and-bound prunes with exact accounting, heuristics return a
  finite answer within an evaluation budget, and a second call repeats
  the first bitwise, ``SearchStats`` and trace included; a one-candidate
  pool gives each local searcher that candidate.
* ``TestWideRatios`` — the benchmark's 28,560-candidate ``search-wide``
  instance: branch-and-bound's winner is exhaustive's bitwise, and each
  heuristic's winner is within the benchmark's ratio limit of the
  optimum.
"""

import math

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.search import registered_search_backends
from repro.errors import SearchError

EXACT = ("exhaustive", "branch-bound")
BUDGET = 40
#: ``HEURISTIC_RATIO`` of ``benchmarks/perf/workloads.py``: the worst
#: accepted ratio of a heuristic's winner to the exhaustive winner.  Over
#: a 1,440-size survey beam and greedy always found the optimum, anneal's
#: worst was 1.33x and hill-climb's 2.30x.
HEURISTIC_RATIO = {"beam": 1.5, "greedy": 1.5, "anneal": 2.0, "hill-climb": 3.0}


def signature(outcome):
    """Everything observable about an outcome, floats bit-for-bit."""
    return (
        outcome.n,
        outcome.complete,
        [(e.config.key(), e.estimate_s) for e in outcome.ranking],
        outcome.stats.to_dict(include_trace=True),
    )


@pytest.fixture(scope="module")
def paper_ns(spec):
    return EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=7))


@pytest.fixture(scope="module")
def paper_runs(paper_ns):
    """Two calls of every backend at every evaluation size, plus the
    exhaustive reference."""
    runs = {}
    for n in paper_ns.plan.evaluation_sizes:
        reference = paper_ns.optimize(n, backend="exhaustive")
        for tag in registered_search_backends():
            first = paper_ns.optimize(n, backend=tag)
            second = paper_ns.optimize(n, backend=tag)
            runs[tag, n] = (reference, first, second)
    return runs


class TestPaperGrid:
    def test_second_call_repeats_the_first(self, paper_runs):
        for (tag, n), (_, first, second) in paper_runs.items():
            assert signature(second) == signature(first), (tag, n)

    def test_every_backend_returns_a_finite_best(self, paper_runs):
        for (tag, n), (_, first, _) in paper_runs.items():
            assert math.isfinite(first.best.estimate_s), (tag, n)

    @pytest.mark.parametrize("tag", EXACT)
    def test_exact_backends_agree_bitwise(self, paper_runs, paper_ns, tag):
        for n in paper_ns.plan.evaluation_sizes:
            reference, first, _ = paper_runs[tag, n]
            assert first.best.config.key() == reference.best.config.key()
            assert first.best.estimate_s == reference.best.estimate_s

    def test_branch_bound_prunes_with_exact_accounting(self, paper_runs, paper_ns):
        grid = len(paper_ns.plan.evaluation_configs)
        for n in paper_ns.plan.evaluation_sizes:
            reference, first, _ = paper_runs["branch-bound", n]
            stats = first.stats
            assert len(reference.ranking) == grid
            assert stats.evaluations + stats.pruned_candidates == len(reference.ranking)
            assert stats.evaluations < len(reference.ranking)

    @pytest.mark.parametrize("tag", sorted(HEURISTIC_RATIO))
    def test_one_candidate_pool(self, paper_ns, tag):
        """A lone candidate has no moves; every local searcher returns it
        (anneal used to draw a move from the empty list)."""
        lone = ClusterConfig.from_tuple(paper_ns.plan.kinds, (1, 2, 0, 0))
        outcome = paper_ns.optimizer(candidates=[lone], backend=tag).optimize(3200)
        assert [entry.config for entry in outcome.ranking] == [lone]
        assert outcome.stats.evaluations == 1

    @pytest.mark.parametrize("tag", registered_search_backends())
    def test_budget_is_honored(self, paper_ns, tag):
        n = paper_ns.plan.evaluation_sizes[0]
        if tag == "exhaustive":
            with pytest.raises(SearchError, match="budget"):
                paper_ns.optimize(n, backend=tag, budget=BUDGET)
            return
        outcome = paper_ns.optimize(n, backend=tag, budget=BUDGET)
        assert outcome.stats.evaluations <= BUDGET


class TestWideRatios:
    SIZES = tuple(int(n) for n in np.linspace(1000, 12000, 8))

    @pytest.fixture(scope="class")
    def wide_runs(self, wide_pipeline):
        return {
            tag: wide_pipeline.optimize_many(self.SIZES, backend=tag)
            for tag in ("exhaustive", "branch-bound") + tuple(HEURISTIC_RATIO)
        }

    def test_branch_bound_winner_is_exhaustives(self, wide_runs):
        for exact, found in zip(wide_runs["exhaustive"], wide_runs["branch-bound"]):
            assert (found.best.config.key(), found.best.estimate_s) == (
                exact.best.config.key(), exact.best.estimate_s
            ), exact.n

    @pytest.mark.parametrize("tag", sorted(HEURISTIC_RATIO))
    def test_heuristic_within_ratio_of_optimum(self, wide_runs, tag):
        for exact, found in zip(wide_runs["exhaustive"], wide_runs[tag]):
            assert found.n == exact.n
            assert found.best.estimate_s <= HEURISTIC_RATIO[tag] * exact.best.estimate_s, (
                exact.n
            )
