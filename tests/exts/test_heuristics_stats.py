"""Additional coverage for heuristic-search bookkeeping."""

import math

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.presets import kishimoto_cluster
from repro.core.search import GreedyGrowth, SearchStats, pointwise


class TestSearchStats:
    def test_record_tracks_best(self):
        stats = SearchStats()
        stats.record("config-a", 5.0)
        stats.record("config-b", 3.0)
        stats.record("config-c", 4.0)
        assert stats.best_estimate == 3.0
        assert stats.best_config == "config-b"
        assert stats.evaluations == 3
        assert stats.trace == [5.0, 3.0, 3.0]

    def test_initial_state(self):
        stats = SearchStats()
        assert stats.best_config is None
        assert stats.best_estimate == math.inf


class TestGreedyInternals:
    """The state machinery, on lattice indices (see ``Lattice``)."""

    KINDS = ("athlon", "pentium2")

    @pytest.fixture(scope="class")
    def searcher(self):
        return GreedyGrowth(kishimoto_cluster(), pointwise(lambda c, n: 1.0))

    def state(self, searcher, flat):
        return searcher.lattice.index(ClusterConfig.from_tuple(self.KINDS, flat))

    def test_state_config_roundtrip(self, searcher):
        config = ClusterConfig.from_tuple(self.KINDS, (1, 2, 4, 1))
        state = searcher.lattice.index(config)
        assert searcher.lattice.config(state) == config
        assert searcher.lattice.index(searcher.lattice.config(state)) == state

    def test_index_order_is_choice_order(self, searcher):
        """Ties break on the state, so index order must be the order of
        the per-kind ``(pe, m)`` choices."""
        flats = [
            searcher.lattice.config(state).as_flat_tuple(self.KINDS)
            for state in range(1, searcher.lattice.size)
        ]
        assert flats == sorted(flats)
        assert len(set(flats)) == len(flats)

    def test_neighbors_respect_bounds(self, searcher):
        state = self.state(searcher, (1, 6, 8, 1))
        for neighbor in searcher.lattice.moves(state):
            for alloc in searcher.lattice.config(neighbor).allocations:
                kind, pe, procs = alloc.kind_name, alloc.pe_count, alloc.procs_per_pe
                available = searcher.spec.pe_count(kind)
                assert 0 <= pe <= available
                assert procs <= searcher.max_procs
                if pe == 0:
                    assert procs == 0

    def test_neighbors_never_empty_config(self, searcher):
        state = self.state(searcher, (1, 1, 0, 0))
        moves = searcher.lattice.moves(state)
        assert moves
        for neighbor in moves:
            assert neighbor != 0
            assert searcher.lattice.config(neighbor).total_processes >= 1

    def test_starts_include_both_sides_of_the_valley(self, searcher):
        starts = searcher._single_pe_starts()
        labels = {searcher.lattice.config(s).label(self.KINDS) for s in starts}
        assert "1,1,0,0" in labels  # single fast PE
        assert "0,0,8,1" in labels  # the whole slow pool

    def test_evaluation_cache(self, searcher):
        stats = SearchStats()
        state = self.state(searcher, (1, 1, 0, 0))
        a = searcher._evaluate(state, 100, stats)
        b = searcher._evaluate(state, 100, stats)
        assert a == b
        assert stats.evaluations == 1  # second hit came from the cache
