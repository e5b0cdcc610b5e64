"""Unit tests for the exhaustive optimizer."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.search import ExhaustiveOptimizer, actual_best, pointwise
from repro.errors import SearchError

KINDS = ("athlon", "pentium2")


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))


CANDIDATES = [cfg(1, 1, 0, 0), cfg(1, 2, 0, 0), cfg(1, 1, 8, 1), cfg(0, 0, 8, 1)]


def table_estimator(table):
    def estimator(config, n):
        return table[(config.label(KINDS), n)]

    return pointwise(estimator)


class TestOptimize:
    def test_returns_argmin(self):
        table = {
            ("1,1,0,0", 100): 5.0,
            ("1,2,0,0", 100): 4.0,
            ("1,1,8,1", 100): 6.0,
            ("0,0,8,1", 100): 7.0,
        }
        outcome = ExhaustiveOptimizer(table_estimator(table), CANDIDATES).optimize(100)
        assert outcome.best.config.label(KINDS) == "1,2,0,0"
        assert outcome.best.estimate_s == 4.0

    def test_ranking_is_sorted(self):
        table = {
            ("1,1,0,0", 1): 3.0,
            ("1,2,0,0", 1): 1.0,
            ("1,1,8,1", 1): 2.0,
            ("0,0,8,1", 1): 4.0,
        }
        outcome = ExhaustiveOptimizer(table_estimator(table), CANDIDATES).optimize(1)
        values = [e.estimate_s for e in outcome.ranking]
        assert values == sorted(values)
        assert len(outcome.top(2)) == 2
        assert outcome.top(0) == []

    def test_ties_broken_deterministically(self):
        table = {(c.label(KINDS), 1): 1.0 for c in CANDIDATES}
        a = ExhaustiveOptimizer(table_estimator(table), CANDIDATES).optimize(1)
        b = ExhaustiveOptimizer(table_estimator(table), list(reversed(CANDIDATES))).optimize(1)
        assert a.best.config.key() == b.best.config.key()

    def test_estimate_for_lookup(self):
        table = {(c.label(KINDS), 1): float(i) for i, c in enumerate(CANDIDATES, 1)}
        outcome = ExhaustiveOptimizer(table_estimator(table), CANDIDATES).optimize(1)
        assert outcome.estimate_for(cfg(1, 1, 8, 1)) == 3.0
        with pytest.raises(SearchError):
            outcome.estimate_for(cfg(1, 6, 8, 1))

    def test_search_time_recorded(self):
        table = {(c.label(KINDS), 1): 1.0 for c in CANDIDATES}
        outcome = ExhaustiveOptimizer(table_estimator(table), CANDIDATES).optimize(1)
        assert outcome.search_seconds >= 0

    def test_empty_candidates_rejected(self):
        with pytest.raises(SearchError):
            ExhaustiveOptimizer(pointwise(lambda c, n: 1.0), [])

    def test_invalid_estimate_rejected(self):
        for bad in (float("nan"), -1.0):
            optimizer = ExhaustiveOptimizer(pointwise(lambda c, n: bad), CANDIDATES)
            with pytest.raises(SearchError):
                optimizer.optimize(1)

    def test_inf_means_unestimable_and_ranks_last(self):
        """An estimator returns +inf for configurations its models cannot
        cover; those candidates must never win."""

        def estimator(config, n):
            return float("inf") if config.label(KINDS) == "1,1,0,0" else 5.0

        outcome = ExhaustiveOptimizer(pointwise(estimator), CANDIDATES).optimize(1)
        assert outcome.best.estimate_s == 5.0
        assert outcome.ranking[-1].config.label(KINDS) == "1,1,0,0"

    def test_all_unestimable_raises(self):
        optimizer = ExhaustiveOptimizer(pointwise(lambda c, n: float("inf")), CANDIDATES)
        with pytest.raises(SearchError, match="no candidate"):
            optimizer.optimize(1)

    def test_strict_mode_rejects_inf(self):
        """With ``allow_unestimable=False`` a +inf estimate is an error,
        not a silently last-ranked candidate."""

        def estimator(config, n):
            return float("inf") if config.label(KINDS) == "1,1,0,0" else 5.0

        optimizer = ExhaustiveOptimizer(
            pointwise(estimator), CANDIDATES, allow_unestimable=False
        )
        with pytest.raises(SearchError, match="invalid time"):
            optimizer.optimize(1)

    def test_strict_mode_rejects_inf_in_batch_path(self):
        def grid(configs, ns):
            return [
                [float("inf") if c.label(KINDS) == "1,1,0,0" else 5.0] * len(ns)
                for c in configs
            ]

        optimizer = ExhaustiveOptimizer(grid, CANDIDATES, allow_unestimable=False)
        with pytest.raises(SearchError, match="invalid time"):
            optimizer.optimize_many([1, 2])

    def test_strict_mode_still_accepts_finite(self):
        table = {(c.label(KINDS), 1): float(i) for i, c in enumerate(CANDIDATES, 1)}
        optimizer = ExhaustiveOptimizer(
            table_estimator(table), CANDIDATES, allow_unestimable=False
        )
        assert optimizer.optimize(1).best.estimate_s == 1.0

    def test_negative_inf_always_rejected(self):
        optimizer = ExhaustiveOptimizer(pointwise(lambda c, n: float("-inf")), CANDIDATES)
        with pytest.raises(SearchError, match="invalid time"):
            optimizer.optimize(1)


class TestActualBest:
    def test_picks_minimum(self):
        measured = [(cfg(1, 1, 0, 0), 5.0), (cfg(1, 1, 8, 1), 3.0)]
        config, t = actual_best(measured)
        assert config.label(KINDS) == "1,1,8,1" and t == 3.0

    def test_empty_rejected(self):
        with pytest.raises(SearchError):
            actual_best([])
