"""The one ranking type every backend returns.

A :class:`~repro.core.search.base.Ranking` builds a ``RankedEstimate``
only when an entry is read.  It must behave as the eagerly built list of
entries did, hold values no later cache write can change, and answer
``estimate_for`` without building entries.
"""

import pickle

import numpy as np
import pytest

import repro.core.search.base as search_base
from repro.cluster.config import ClusterConfig
from repro.cluster.presets import synthetic_cluster
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.search import ExhaustiveOptimizer, pointwise
from repro.core.search.base import RankedEstimate, Ranking
from repro.cost.model import CostModel
from repro.errors import SearchError
from repro.measure.grids import custom_plan

N = 4800
#: (backend, options): both exact backends, one heuristic, and the
#: frontier backend plain and with the scalarization weight, whose
#: ranking puts the weighted winner first.
CASES = [
    ("exhaustive", {}),
    ("branch-bound", {}),
    ("beam", {}),
    ("budget-frontier", {}),
    ("budget-frontier", {"alpha": 0.5}),
]


@pytest.fixture(scope="module")
def priced():
    """A small priced pipeline, so the frontier has several points."""
    spec = synthetic_cluster([0.5, 1.0, 2.0], nodes_per_kind=3, cpus_per_node=2)
    plan = custom_plan(spec, (400, 800, 1600, 3200), (1600,), max_procs=2,
                       multiproc_kinds=spec.kind_names)
    cost = CostModel.of(kind0=0.02, kind1=0.05, kind2=0.3)
    return EstimationPipeline(
        spec, PipelineConfig(seed=4, adjust=False, cost=cost), plan=plan
    )


def optimize(pipeline, tag, options):
    return pipeline.optimize(N, backend=tag, **options)


@pytest.mark.parametrize("tag, options", CASES)
class TestListBehaviour:
    def test_equals_the_eager_list_both_ways(self, priced, tag, options):
        ranking = optimize(priced, tag, options).ranking
        assert isinstance(ranking, Ranking)
        eager = [ranking[i] for i in range(len(ranking))]
        assert all(type(entry) is RankedEstimate for entry in eager)
        assert ranking == eager
        assert eager == ranking
        assert not ranking != eager
        assert ranking != eager[:-1] and eager[:-1] != ranking
        changed = eager[:-1] + [
            RankedEstimate(eager[-1].config, N, eager[-1].estimate_s + 1.0)
        ]
        assert ranking != changed and changed != ranking
        assert ranking == optimize(priced, tag, options).ranking

    def test_sequence_protocol(self, priced, tag, options):
        ranking = optimize(priced, tag, options).ranking
        eager = list(ranking)
        size = len(eager)
        assert len(ranking) == size >= 1
        assert ranking[0] == eager[0] and ranking[-1] == eager[-1]
        assert ranking[-size] == eager[0]
        for part in (slice(1, 3), slice(None, None, -1), slice(-2, None),
                     slice(5, 1)):
            assert ranking[part] == eager[part]
            assert type(ranking[part]) is list
        with pytest.raises(IndexError):
            ranking[size]
        with pytest.raises(IndexError):
            ranking[-size - 1]
        assert [entry.config.key() for entry in ranking] == [
            entry.config.key() for entry in eager
        ]

    def test_pickle_round_trip(self, priced, tag, options):
        outcome = optimize(priced, tag, options)
        ranking = pickle.loads(pickle.dumps(outcome.ranking))
        assert ranking == outcome.ranking == list(outcome.ranking)
        assert not ranking._values.flags.writeable
        assert pickle.loads(pickle.dumps(outcome)).ranking == outcome.ranking


def test_exhaustive_ranking_is_the_sorted_grid(priced):
    """Independent of the ranking's own order: the pool sorted on
    ``(estimate, key)`` in Python."""
    pool = priced.graph.get("search").problem.resolved_candidates()
    values = priced.estimate_grid(pool, [N])[:, 0].tolist()
    expected = [
        RankedEstimate(config, N, value)
        for config, value in sorted(
            zip(pool, values), key=lambda cv: (cv[1], cv[0].key())
        )
    ]
    assert priced.optimize(N).ranking == expected


def test_alpha_ranking_puts_the_weighted_winner_first(priced):
    weighted = priced.optimize(N, backend="budget-frontier", alpha=0.5)
    fastest = priced.optimize(N, backend="budget-frontier")
    chosen = weighted.best
    assert chosen != fastest.best
    rest = list(weighted.ranking)[1:]
    assert chosen.config.key() not in {entry.config.key() for entry in rest}
    assert [e.estimate_s for e in rest] == sorted(e.estimate_s for e in rest)


class TestReadOnly:
    def test_values_survive_cache_clear_and_refill(self, ns_pipeline):
        outcome = ns_pipeline.optimize(N)
        before = [(e.config.key(), e.estimate_s) for e in outcome.ranking]
        cache = ns_pipeline.estimate_cache
        cache.clear()
        refilled = ns_pipeline.optimize(N)
        # Overwrite every stored value: an outcome must not alias them.
        for values, _ in cache._columns.values():
            values[:] = -1.0
        assert [(e.config.key(), e.estimate_s) for e in outcome.ranking] == before
        assert refilled.ranking == outcome.ranking
        cache.clear()

    def test_value_buffer_not_writable(self, ns_pipeline):
        ranking = ns_pipeline.optimize(N).ranking
        assert not ranking._values.flags.writeable
        assert not ranking.order.flags.writeable
        with pytest.raises(ValueError):
            ranking._values[0] = 0.0


class TestEstimateFor:
    def test_builds_no_entries_on_the_wide_pool(self, wide_pipeline, monkeypatch):
        outcome = wide_pipeline.optimize(N)
        assert len(outcome.ranking) == 28_560
        probes = [outcome.ranking[i] for i in (0, 1, 9_999, -1)]
        built = []

        def counted(*args, **kwargs):
            built.append(1)
            return RankedEstimate(*args, **kwargs)

        monkeypatch.setattr(search_base, "RankedEstimate", counted)
        for entry in probes:
            assert outcome.estimate_for(entry.config) == entry.estimate_s
        outsider = ClusterConfig.of(kind0=(1, 4))
        with pytest.raises(SearchError, match="not a candidate"):
            outcome.estimate_for(outsider)
        assert built == []

    def test_duplicate_candidate_raises(self):
        config = ClusterConfig.of(athlon=(1, 1))
        other = ClusterConfig.of(athlon=(1, 2))
        outcome = ExhaustiveOptimizer(
            pointwise(lambda c, n: float(c.total_processes)),
            [config, other, config],
        ).optimize(N)
        with pytest.raises(SearchError, match="duplicate candidate 1,1"):
            outcome.estimate_for(other)

    def test_ranking_of_a_list(self):
        config = ClusterConfig.of(athlon=(1, 1))
        ranking = Ranking.of(3, [RankedEstimate(config, 3, 2.5)])
        assert ranking == [RankedEstimate(config, 3, 2.5)]
        assert ranking.estimate_for(config) == 2.5
        assert np.array_equal(ranking.order, [0])
