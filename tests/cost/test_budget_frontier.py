"""The ``budget-frontier`` backend: exact pruned frontiers with budgets.

Exactness is the whole contract: on spaces small enough to brute-force,
the pruned frontier must be *bitwise* the enumerated one — same
configurations, same floats — and the minimum-time endpoint must agree
with the exhaustive optimizer's winner.  Pruning only changes how much
work that answer costs.
"""

import pytest

from repro.core.search import (
    create_search,
    registered_search_backends,
    synthetic_estimator,
    synthetic_problem,
)
from repro.cost.pareto import dominates, enumerate_frontier
from repro.cost.presets import synthetic_rate_card
from repro.errors import SearchError

N = 1500


@pytest.fixture(scope="module")
def problem():
    prob = synthetic_problem(n_kinds=3, pes_per_kind=3, max_procs=2)
    prob.cost = synthetic_rate_card(n_kinds=3)
    return prob


@pytest.fixture(scope="module")
def reference(problem):
    return enumerate_frontier(
        synthetic_estimator(n_kinds=3),
        problem.resolved_candidates(),
        N,
        problem.cost,
    )


class TestRegistry:
    def test_backend_is_registered_lazily(self):
        assert "budget-frontier" in registered_search_backends()

    def test_create_search_resolves_it(self, problem):
        backend = create_search("budget-frontier", problem)
        assert backend.backend_type == "budget-frontier"


class TestExactness:
    def test_frontier_bitwise_equals_enumeration(self, problem, reference):
        outcome = create_search("budget-frontier", problem).frontier(N)
        assert outcome.complete
        got = [(p.config.key(), p.time_s, p.dollars, p.energy_wh)
               for p in outcome.points]
        want = [(p.config.key(), p.time_s, p.dollars, p.energy_wh)
                for p in reference.points]
        assert got == want

    def test_search_actually_prunes(self, problem):
        backend = create_search("budget-frontier", problem)
        outcome = backend.frontier(N)
        stats = outcome.stats
        assert stats.pruned_candidates > 0
        assert (
            stats.evaluations + stats.pruned_candidates
            == problem.space.size
        )

    def test_min_time_endpoint_matches_exhaustive_winner(self, problem):
        exhaustive = create_search("exhaustive", problem).optimize(N)
        frontier = create_search("budget-frontier", problem).frontier(N)
        assert frontier.min_time.config.key() == exhaustive.best.config.key()
        assert frontier.min_time.time_s == exhaustive.best.estimate_s

    def test_frontier_is_mutually_non_dominated(self, problem):
        outcome = create_search("budget-frontier", problem).frontier(N)
        for p in outcome.points:
            for q in outcome.points:
                assert not dominates(p.objectives(), q.objectives())


class TestConstraints:
    def test_max_cost_caps_the_frontier(self, problem, reference):
        cap = reference.points[-1].dollars * 1.5
        outcome = create_search(
            "budget-frontier", problem, max_cost=cap
        ).frontier(N)
        assert outcome.max_cost == cap
        assert all(p.dollars <= cap for p in outcome.points)
        capped_reference = [p for p in reference.points if p.dollars <= cap]
        assert [p.config.key() for p in outcome.points] == [
            p.config.key() for p in capped_reference
        ]

    def test_unsatisfiable_max_cost_raises(self, problem):
        with pytest.raises(SearchError, match="max_cost"):
            create_search("budget-frontier", problem, max_cost=0.0).frontier(N)

    def test_optimize_with_max_cost_picks_fastest_feasible_winner(
        self, problem, reference
    ):
        cap = reference.min_cost.dollars * 1.01
        capped = enumerate_frontier(
            synthetic_estimator(n_kinds=3), problem.resolved_candidates(), N,
            problem.cost, max_cost=cap,
        )
        outcome = create_search(
            "budget-frontier", problem, max_cost=cap
        ).optimize(N)
        assert outcome.best.config.key() == capped.min_time.config.key()
        assert outcome.best.estimate_s == capped.min_time.time_s
        assert all(e.estimate_s >= outcome.best.estimate_s
                   for e in outcome.ranking)

    def test_alpha_endpoints_reduce_to_frontier_endpoints(self, problem, reference):
        fastest = create_search(
            "budget-frontier", problem, alpha=0.0
        ).optimize(N)
        cheapest = create_search(
            "budget-frontier", problem, alpha=1.0
        ).optimize(N)
        assert fastest.best.config.key() == reference.min_time.config.key()
        assert cheapest.best.config.key() == reference.min_cost.config.key()

    def test_invalid_options_rejected(self, problem):
        with pytest.raises(SearchError):
            create_search("budget-frontier", problem, max_cost=-1.0)
        with pytest.raises(SearchError):
            create_search("budget-frontier", problem, alpha=1.5)


class TestBudget:
    def test_exhausted_budget_marks_frontier_incomplete(self, problem):
        outcome = create_search(
            "budget-frontier", problem, budget=3
        ).frontier(N)
        assert not outcome.complete
        assert outcome.stats.exhausted
        assert outcome.points  # still a frontier over visited candidates
