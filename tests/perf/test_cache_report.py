"""Unit tests for the estimate cache (keys, counters, fingerprint
invalidation) and the per-stage performance report."""


import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import ReproError
from repro.measure.grids import PAPER_KINDS
from repro.perf.cache import CacheStats, EstimateCache, RowCache, model_fingerprint
from repro.perf.report import PerfReport


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(PAPER_KINDS, (p1, m1, p2, m2))


class TestEstimateCache:
    def test_miss_then_hit(self):
        cache = EstimateCache("fp")
        key = cache.key_of(cfg(1, 2, 0, 0))
        assert cache.get(key, 3200) is None
        cache.put(key, 3200, 12.5)
        assert cache.get(key, 3200) == 12.5
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert len(cache) == 1

    def test_key_includes_size_and_config(self):
        cache = EstimateCache("fp")
        cache.put(cache.key_of(cfg(1, 2, 0, 0)), 3200, 1.0)
        assert cache.get(cache.key_of(cfg(1, 2, 0, 0)), 4800) is None
        assert cache.get(cache.key_of(cfg(1, 3, 0, 0)), 3200) is None

    def test_fingerprint_partitions_entries(self):
        """Entries written under one model generation never answer for
        another: the fingerprint is part of every key."""
        key = EstimateCache.key_of(cfg(1, 1, 8, 1))
        old = EstimateCache("model-v1")
        old.put(key, 3200, 99.0)
        fresh = EstimateCache("model-v2")
        fresh._data.update(old._data)  # simulate stale entries surviving
        assert fresh.get(key, 3200) is None

    def test_equivalent_configs_share_entries(self):
        """Zero allocations are dropped from config keys, so the paper's
        ``(0,0,8,1)`` and a bare pentium2 config hit the same entry."""
        cache = EstimateCache("fp")
        cache.put(cache.key_of(cfg(0, 0, 8, 1)), 3200, 5.0)
        bare = ClusterConfig.of(pentium2=(8, 1))
        assert cache.get(cache.key_of(bare), 3200) == 5.0

    def test_clear_keeps_counters(self):
        cache = EstimateCache("fp")
        key = cache.key_of(cfg(1, 1, 0, 0))
        cache.put(key, 400, 1.0)
        cache.get(key, 400)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_describe_mentions_stats(self):
        cache = EstimateCache("abcd")
        assert "abcd" in cache.describe()
        assert "0 hits" in cache.describe()


class TestLRUBound:
    def test_capacity_evicts_oldest_insertion(self):
        cache = EstimateCache("fp", capacity=2)
        key = cache.key_of(cfg(1, 1, 0, 0))
        cache.put(key, 100, 1.0)
        cache.put(key, 200, 2.0)
        cache.put(key, 300, 3.0)  # evicts (key, 100)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(key, 100) is None
        assert cache.get(key, 300) == 3.0

    def test_hit_refreshes_recency(self):
        cache = EstimateCache("fp", capacity=2)
        key = cache.key_of(cfg(1, 1, 0, 0))
        cache.put(key, 100, 1.0)
        cache.put(key, 200, 2.0)
        assert cache.get(key, 100) == 1.0  # 100 is now most-recent
        cache.put(key, 300, 3.0)  # evicts 200, not 100
        assert cache.get(key, 100) == 1.0
        assert cache.get(key, 200) is None

    def test_update_refreshes_recency_without_eviction(self):
        cache = EstimateCache("fp", capacity=2)
        key = cache.key_of(cfg(1, 1, 0, 0))
        cache.put(key, 100, 1.0)
        cache.put(key, 200, 2.0)
        cache.put(key, 100, 1.5)  # update, no growth, 100 refreshed
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        cache.put(key, 300, 3.0)  # evicts 200
        assert cache.get(key, 100) == 1.5
        assert cache.get(key, 200) is None

    def test_describe_surfaces_capacity_and_evictions(self):
        cache = EstimateCache("fp", capacity=1)
        key = cache.key_of(cfg(1, 1, 0, 0))
        cache.put(key, 100, 1.0)
        cache.put(key, 200, 2.0)
        text = cache.describe()
        assert "1/1 entries" in text
        assert "1 evictions" in text

    def test_unbounded_default_never_evicts(self):
        cache = EstimateCache("fp")
        key = cache.key_of(cfg(1, 1, 0, 0))
        for n in range(100, 200):
            cache.put(key, n, float(n))
        assert len(cache) == 100
        assert cache.stats.evictions == 0
        assert "entries" in cache.describe() and "/" not in cache.describe().split(",")[0]

    def test_get_block_matches_per_cell_sequence(self):
        # A capacity smaller than the block, a mixed hit/miss block and a
        # configuration listed twice: get_block must leave exactly what
        # a get per cell in block order, then a put per missing cell,
        # leaves behind.
        configs = [
            cfg(1, 1, 0, 0), cfg(0, 0, 2, 1), cfg(1, 2, 8, 1),
            cfg(1, 1, 0, 0), cfg(1, 3, 4, 1),
        ]
        sizes = [100, 200]

        def evaluate(block_configs, ns):
            return np.array(
                [[float(c.total_processes * n) for n in ns] for c in block_configs]
            )

        def per_cell(cache):
            keys = [cache.key_of(c) for c in configs]
            out = np.empty((len(configs), len(sizes)))
            missing = []
            for i, key in enumerate(keys):
                for j, n in enumerate(sizes):
                    value = cache.get(key, n)
                    if value is None:
                        missing.append((i, j))
                    else:
                        out[i, j] = value
            rows = sorted({i for i, _ in missing})
            block = evaluate([configs[i] for i in rows], sizes)
            for i, j in missing:
                out[i, j] = block[rows.index(i), j]
                cache.put(keys[i], sizes[j], float(out[i, j]))
            return out

        def warm(cache):
            cache.put(cache.key_of(cfg(1, 2, 8, 1)), 200, 20.0)
            cache.put(cache.key_of(cfg(1, 1, 0, 0)), 100, 1.5)
            cache.put(cache.key_of(cfg(0, 0, 2, 1)), 999, 0.5)

        for capacity in (3, 4, 7, None):
            reference, blocked = (EstimateCache("fp", capacity) for _ in range(2))
            warm(reference)
            warm(blocked)
            expected = per_cell(reference)
            got = blocked.get_block(configs, sizes, evaluate)
            assert got.tolist() == expected.tolist()
            assert blocked.stats.as_tuple() == reference.stats.as_tuple()
            assert list(blocked._data.items()) == list(reference._data.items())
        assert reference.stats.hits == 3 and reference.stats.misses == 7

    def test_get_block_rejects_misshaped_evaluation(self):
        cache = EstimateCache("fp")
        with pytest.raises(ReproError, match="shape"):
            cache.get_block(
                [cfg(1, 1, 0, 0)], [100, 200], lambda configs, ns: np.ones((1, 1))
            )

    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError, match="capacity"):
            EstimateCache("fp", capacity=0)

    def test_stats_merge(self):
        a = CacheStats(hits=2, misses=3, evictions=1)
        a.merge(CacheStats(hits=1, misses=1, evictions=0))
        assert (a.hits, a.misses, a.evictions) == (3, 4, 1)


class TestRowCache:
    #: (configs, sizes) calls, with clear() between groups: duplicate
    #: sizes, a configuration listed twice, equal configurations written
    #: differently, and columns filled for some rows only.
    CALLS = [
        [([cfg(1, 1, 0, 0), cfg(0, 0, 2, 1)], [100, 200])],
        [([cfg(1, 1, 0, 0), cfg(1, 2, 8, 1)], [200, 300, 200])],
        [([cfg(1, 2, 8, 1), cfg(1, 1, 0, 0), cfg(1, 2, 8, 1)], [300])],
        [([ClusterConfig.of(athlon=(1, 1)), cfg(1, 3, 4, 1)], [100, 300])],
        "clear",
        [([cfg(1, 3, 4, 1), cfg(0, 0, 2, 1)], [300, 100, 100])],
        [([cfg(0, 0, 2, 1)], [100])],
        [([], [100])],
    ]

    @staticmethod
    def evaluate(configs, ns):
        return np.array(
            [[float(c.total_processes * n + len(c.active)) for n in ns] for c in configs]
        )

    def test_replay_matches_per_cell_dict(self):
        """Hits, misses, entries, returned values and every evaluated
        block equal an unbounded dict cache's on the same calls."""
        reference, rows = EstimateCache("fp"), RowCache("fp")
        ref_blocks, row_blocks = [], []
        for step in self.CALLS:
            if step == "clear":
                reference.clear()
                rows.clear()
                continue
            for configs, sizes in step:
                def ref_eval(block, ns):
                    ref_blocks.append(([c.key() for c in block], list(ns)))
                    return self.evaluate(block, ns)

                def row_eval(positions, configs=configs, sizes=sizes):
                    block = [configs[i] for i in positions]
                    row_blocks.append(([c.key() for c in block], list(sizes)))
                    return self.evaluate(block, sizes)

                expected = reference.get_block(configs, sizes, ref_eval)
                got = rows.get_rows(rows.rows_of(configs), sizes, row_eval)
                assert got.tolist() == expected.tolist()
                assert rows.stats.as_tuple() == reference.stats.as_tuple()
                assert len(rows) == len(reference)
        assert row_blocks == ref_blocks
        assert rows.stats.hits > 0 and rows.stats.misses > 0

    def test_rows_survive_clear(self):
        cache = RowCache("fp")
        first = cache.rows_of([cfg(1, 1, 0, 0), cfg(0, 0, 2, 1), cfg(1, 1, 0, 0)])
        assert first.tolist() == [0, 1, 0]
        cache.clear()
        assert cache.rows_of([cfg(0, 0, 2, 1), cfg(1, 3, 4, 1)]).tolist() == [1, 2]
        assert len(cache) == 0 and "0 entries" in cache.describe()


class TestModelFingerprint:
    def test_deterministic(self):
        assert model_fingerprint({"a": 1}, (2, 3)) == model_fingerprint({"a": 1}, (2, 3))

    def test_sensitive_to_content_and_structure(self):
        assert model_fingerprint({"a": 1}) != model_fingerprint({"a": 2})
        assert model_fingerprint("ab", "c") != model_fingerprint("a", "bc")


class TestCacheStats:
    def test_empty_rate(self):
        assert CacheStats().hit_rate == 0.0


class TestPerfReport:
    def test_stage_accumulates(self):
        report = PerfReport()
        with report.stage("fit"):
            pass
        with report.stage("fit"):
            pass
        assert report.stage_calls("fit") == 2
        assert report.stage_seconds("fit") >= 0.0
        assert report.total_seconds >= report.stage_seconds("fit")

    def test_stage_records_on_exception(self):
        report = PerfReport()
        try:
            with report.stage("search"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert report.stage_calls("search") == 1

    def test_canonical_stage_order(self):
        report = PerfReport()
        report.add("search", 0.1)
        report.add("campaign", 0.2)
        report.add("custom", 0.3)
        assert report.stages() == ["campaign", "search", "custom"]

    def test_render_and_dict_include_cache(self):
        report = PerfReport()
        report.add("campaign", 1.25)
        cache = EstimateCache("fp")
        cache.put(cache.key_of(cfg(1, 1, 0, 0)), 400, 1.0)
        report.cache = cache
        text = report.render()
        assert "campaign" in text and "total" in text and "fp" in text
        payload = report.to_dict()
        assert payload["campaign"]["calls"] == 1
        assert payload["cache"]["entries"] == 1

    def test_unknown_stage_is_zero(self):
        report = PerfReport()
        assert report.stage_seconds("nope") == 0.0
        assert report.stage_calls("nope") == 0

    def test_record_walker_merges_and_renders(self):
        from repro.hpl.schedule import WalkerStats

        report = PerfReport()
        assert report.walker is None
        report.record_walker(
            WalkerStats(batch_calls=2, batch_sizes=10, batch_max=5, table_hits=3)
        )
        report.record_walker(
            WalkerStats(batch_calls=1, batch_sizes=4, batch_max=4, scalar_calls=2)
        )
        assert report.walker.batch_calls == 3
        assert report.walker.batch_sizes == 14
        assert report.walker.batch_max == 5  # merge keeps the maximum
        assert report.walker.scalar_calls == 2
        assert report.walker.table_hits == 3
        assert report.to_dict()["walker"]["batch_calls"] == 3
        assert "walker:" in report.render()

    def test_record_walker_does_not_alias_argument(self):
        from repro.hpl.schedule import WalkerStats

        report = PerfReport()
        stats = WalkerStats(batch_calls=1)
        report.record_walker(stats)
        stats.batch_calls = 99
        assert report.walker.batch_calls == 1
