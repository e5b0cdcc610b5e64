"""Serving the search backends: request fields, grouping, counters."""

import asyncio
from pathlib import Path

import pytest

from repro.core.persistence import load_pipeline
from repro.serve.batcher import MicroBatcher
from repro.serve.metrics import FLEET_COUNTER_FIELDS, ServeMetrics
from repro.serve.protocol import ProtocolError, Request, parse_request
from repro.serve.registry import ModelRegistry

FIXTURE = Path(__file__).parent.parent / "golden" / "format1_pipeline"


def run(coro):
    return asyncio.run(coro)


def make_batcher(**kwargs):
    registry = ModelRegistry()
    registry.add("golden", FIXTURE)
    return MicroBatcher(registry, **kwargs)


def optimize_request(i, backend=None, budget=None, ns=(3200,), top=3):
    return Request(
        id=i, op="optimize", pipeline="golden", ns=tuple(ns), top=top,
        backend=backend, budget=budget,
    )


class TestRequestFields:
    def test_optimize_carries_backend_and_budget(self):
        request = parse_request(
            '{"id": 1, "op": "optimize", "pipeline": "p", "n": 3200,'
            ' "backend": "branch-bound", "budget": 500}'
        )
        assert request.backend == "branch-bound"
        assert request.budget == 500

    def test_fields_default_to_none(self):
        request = parse_request(
            '{"id": 1, "op": "optimize", "pipeline": "p", "n": 3200}'
        )
        assert request.backend is None
        assert request.budget is None

    def test_unknown_backend_rejected_with_known_tags(self):
        with pytest.raises(ProtocolError, match="branch-bound"):
            parse_request(
                '{"id": 1, "op": "optimize", "pipeline": "p", "n": 3200,'
                ' "backend": "no-such"}'
            )

    @pytest.mark.parametrize("budget", ["0", "-3", "true", "2.5", '"40"'])
    def test_invalid_budget_rejected(self, budget):
        with pytest.raises(ProtocolError, match="budget"):
            parse_request(
                '{"id": 1, "op": "optimize", "pipeline": "p", "n": 3200,'
                f' "budget": {budget}}}'
            )

    def test_whatif_accepts_the_fields_too(self):
        request = parse_request(
            '{"id": 1, "op": "whatif", "config": [1,2,8,1], "n": 3200,'
            ' "backend": "beam", "budget": 40}'
        )
        assert request.backend == "beam"
        assert request.budget == 40


class TestBackendGrouping:
    def test_same_backend_requests_share_one_search(self):
        async def scenario():
            batcher = make_batcher()
            batcher.start()
            futures = [
                batcher.submit(
                    optimize_request(i, backend="branch-bound", ns=(3200 + 80 * i,))
                )
                for i in range(4)
            ]
            results = await asyncio.gather(*futures)
            await batcher.drain_and_stop()
            return batcher, results

        batcher, results = run(scenario())
        assert batcher.metrics.batch_groups.max == 1
        for result in results:
            search = result["sizes"][0]["search"]
            assert search["backend"] == "branch-bound"
            assert search["evaluations"] >= 1

    def test_distinct_backends_never_share_a_search(self):
        async def scenario():
            batcher = make_batcher()
            batcher.start()
            futures = [
                batcher.submit(optimize_request(0, backend=None)),
                batcher.submit(optimize_request(1, backend="branch-bound")),
                batcher.submit(optimize_request(2, backend="beam", budget=40)),
                batcher.submit(optimize_request(3, backend="beam", budget=20)),
            ]
            results = await asyncio.gather(*futures)
            await batcher.drain_and_stop()
            return batcher, results

        batcher, results = run(scenario())
        # None / branch-bound / (beam, 40) / (beam, 20): four groups.
        assert batcher.metrics.batch_groups.max == 4
        assert results[1]["sizes"][0]["search"]["backend"] == "branch-bound"
        assert results[2]["sizes"][0]["search"]["backend"] == "beam"

    def test_backend_winner_matches_default_exhaustive(self):
        async def scenario():
            batcher = make_batcher()
            batcher.start()
            default = await batcher.submit(optimize_request(0))
            bb = await batcher.submit(optimize_request(1, backend="branch-bound"))
            await batcher.drain_and_stop()
            return default, bb

        default, bb = run(scenario())
        a = default["sizes"][0]["ranking"][0]
        b = bb["sizes"][0]["ranking"][0]
        assert a["config"] == b["config"]
        assert a["estimate_s"] == b["estimate_s"]


class TestSearchCounters:
    def test_fleet_counter_fields_include_search(self):
        assert "search_evaluations" in FLEET_COUNTER_FIELDS
        assert "search_pruned" in FLEET_COUNTER_FIELDS

    def test_fleet_counter_values_stay_aligned(self):
        metrics = ServeMetrics()
        values = metrics.fleet_counter_values()
        assert len(values) == len(FLEET_COUNTER_FIELDS)
        assert all(v == 0 for v in values)

    def test_optimize_feeds_search_counters(self):
        async def scenario():
            batcher = make_batcher()
            batcher.start()
            await batcher.submit(optimize_request(0, backend="branch-bound"))
            await batcher.drain_and_stop()
            return batcher.metrics

        metrics = run(scenario())
        assert metrics.search_evaluations >= 1
        assert metrics.search_pruned >= 1
        entry = metrics.search_backends["branch-bound"]
        assert entry["runs"] == 1
        by_field = dict(zip(FLEET_COUNTER_FIELDS, metrics.fleet_counter_values()))
        assert by_field["search_evaluations"] == metrics.search_evaluations
        assert by_field["search_pruned"] == metrics.search_pruned
        assert "search" in metrics.to_dict()
        assert "search[branch-bound]" in metrics.describe()


class TestEngineCacheBound:
    """Served optimize batches hold the search engine's cache to the
    registry's capacity; the rankings do not change."""

    SIZES = [1600 + 40 * i for i in range(50)]

    def serve(self, capacity):
        """Forty lone requests (one batch each), then ten concurrent ones;
        the cache's size after each."""
        registry = ModelRegistry(cache_capacity=capacity)
        registry.add("golden", FIXTURE)
        engine_cache = registry.get("golden").pipeline.estimate_cache
        held = []

        async def scenario():
            batcher = MicroBatcher(registry)
            batcher.start()
            results = []
            for i, n in enumerate(self.SIZES[:40]):
                results.append(await batcher.submit(optimize_request(i, ns=(n,), top=100)))
                held.append(len(engine_cache))
            results += await asyncio.gather(*(
                batcher.submit(optimize_request(i, ns=(n,), top=100))
                for i, n in enumerate(self.SIZES[40:], 40)
            ))
            held.append(len(engine_cache))
            await batcher.drain_and_stop()
            return results

        return run(scenario()), held, engine_cache

    def test_capacity_bounds_the_engine_cache(self):
        results, held, engine_cache = self.serve(capacity=200)
        fresh = load_pipeline(FIXTURE)
        pool = len(fresh.optimize(1600).ranking)
        assert max(held) == pool * (200 // pool)  # kept up to the bound, never past it
        assert engine_cache.stats.evictions > 0
        kinds = fresh.plan.kinds
        for result, outcome in zip(results, fresh.optimize_many(self.SIZES)):
            want = [
                {"config": list(e.config.as_flat_tuple(kinds)), "estimate_s": e.estimate_s}
                for e in outcome.top(100)
            ]
            assert result["sizes"][0]["ranking"] == want  # bitwise

    def test_no_capacity_keeps_every_value(self):
        _, held, engine_cache = self.serve(capacity=None)
        pool = len(load_pipeline(FIXTURE).optimize(1600).ranking)
        assert held[-1] == len(self.SIZES) * pool
        assert engine_cache.stats.evictions == 0
