"""Micro-batcher: coalescing, bitwise identity, shedding, metrics."""

import asyncio
from pathlib import Path

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.persistence import load_pipeline
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import Overloaded, ProtocolError, Request
from repro.serve.registry import ModelRegistry

FIXTURE = Path(__file__).parent.parent / "golden" / "format1_pipeline"


def estimate_request(i, config=(1, 2, 8, 1), ns=(3200,)):
    return Request(id=i, op="estimate", pipeline="golden", config=tuple(config), ns=tuple(ns))


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def direct_pipeline():
    return load_pipeline(FIXTURE)


def make_batcher(**kwargs):
    registry = ModelRegistry()
    registry.add("golden", FIXTURE)
    return MicroBatcher(registry, **kwargs)


class TestCoalescing:
    def test_concurrent_estimates_share_one_batch(self, direct_pipeline):
        async def scenario():
            batcher = make_batcher()
            batcher.start()
            futures = [
                batcher.submit(estimate_request(i, ns=(1600 + 80 * i,)))
                for i in range(10)
            ]
            results = await asyncio.gather(*futures)
            await batcher.drain_and_stop()
            return batcher, results

        batcher, results = run(scenario())
        # all ten coalesced into one drain cycle...
        assert batcher.metrics.batches == 1
        assert batcher.metrics.batch_sizes.max == 10
        # ...and into ONE vectorized model evaluation (one group)
        assert batcher.metrics.batch_groups.max == 1
        config = ClusterConfig.from_tuple(
            direct_pipeline.plan.kinds, (1, 2, 8, 1)
        )
        for i, result in enumerate(results):
            n = 1600 + 80 * i
            want = float(direct_pipeline.estimate_totals(config, [n])[0])
            assert result["totals"] == [want]  # bitwise, not approx

    def test_distinct_configs_make_distinct_groups(self):
        async def scenario():
            batcher = make_batcher()
            batcher.start()
            futures = [
                batcher.submit(estimate_request(0, config=(1, 2, 8, 1))),
                batcher.submit(estimate_request(1, config=(1, 1, 8, 1))),
            ]
            await asyncio.gather(*futures)
            await batcher.drain_and_stop()
            return batcher

        batcher = run(scenario())
        assert batcher.metrics.batch_groups.max == 2

    def test_optimize_requests_merge_sizes(self, direct_pipeline):
        async def scenario():
            batcher = make_batcher()
            batcher.start()
            futures = [
                batcher.submit(
                    Request(id=i, op="optimize", pipeline="golden", ns=(n,), top=3)
                )
                for i, n in enumerate([1600, 3200, 1600])
            ]
            results = await asyncio.gather(*futures)
            await batcher.drain_and_stop()
            return batcher, results

        batcher, results = run(scenario())
        assert batcher.metrics.batch_groups.max == 1  # one optimize_many call
        outcome = direct_pipeline.optimize(1600)
        kinds = direct_pipeline.plan.kinds
        want_top = [
            {
                "config": list(e.config.as_flat_tuple(kinds)),
                "estimate_s": e.estimate_s,
            }
            for e in outcome.top(3)
        ]
        assert results[0]["sizes"][0]["ranking"] == want_top
        assert results[2]["sizes"][0]["ranking"] == want_top

    def test_max_batch_bounds_drain(self):
        async def scenario():
            batcher = make_batcher(max_batch=4)
            batcher.start()
            futures = [
                batcher.submit(estimate_request(i, ns=(1600 + 80 * i,)))
                for i in range(10)
            ]
            await asyncio.gather(*futures)
            await batcher.drain_and_stop()
            return batcher

        batcher = run(scenario())
        assert batcher.metrics.batch_sizes.max <= 4
        assert batcher.metrics.batches >= 3


class TestLoneRequest:
    def test_idle_batcher_dispatches_a_lone_request_at_once(self):
        """No batching timer: a request that finds the worker idle is
        executed on the worker's next loop pass, not after a wait."""

        async def scenario():
            batcher = make_batcher()
            batcher.start()
            await asyncio.sleep(0)  # the worker starts and waits, idle
            future = batcher.submit(estimate_request(0))
            passes = 0
            while not future.done() and passes < 10:
                await asyncio.sleep(0)
                passes += 1
            done = future.done()
            await batcher.drain_and_stop()
            return done, passes, future.result()

        done, passes, result = run(scenario())
        assert done, "a lone request was still pending after 10 loop passes"
        assert passes <= 2
        assert result["totals"]


class TestErrors:
    def test_group_failure_is_typed_and_isolated(self):
        async def scenario():
            batcher = make_batcher()
            batcher.start()
            bad = batcher.submit(estimate_request(0, config=(9, 9, 9, 9)))
            good = batcher.submit(estimate_request(1))
            results = await asyncio.gather(bad, good, return_exceptions=True)
            await batcher.drain_and_stop()
            return results

        bad_result, good_result = run(scenario())
        assert isinstance(bad_result, Exception)  # ConfigurationError
        assert isinstance(good_result, dict)
        assert good_result["totals"]

    def test_unknown_pipeline_rejected_per_request(self):
        async def scenario():
            batcher = make_batcher()
            batcher.start()
            future = batcher.submit(
                Request(id=0, op="estimate", pipeline="nope", config=(1, 1), ns=(400,))
            )
            result = await asyncio.gather(future, return_exceptions=True)
            await batcher.drain_and_stop()
            return result[0]

        assert isinstance(run(scenario()), ProtocolError)


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self):
        async def scenario():
            batcher = make_batcher(max_pending=2)
            batcher.start()
            # Every submit below runs synchronously before the worker
            # task first gets the loop (no await since start), so the
            # queue (bound 2) observably fills and sheds: exactly
            # max_pending submissions are admitted...
            admitted = [batcher.submit(estimate_request(i)) for i in range(2)]
            shed = []
            for i in range(2, 7):
                try:
                    admitted.append(batcher.submit(estimate_request(i)))
                except Overloaded as exc:
                    shed.append(exc)
            results = await asyncio.gather(*admitted)
            await batcher.drain_and_stop()
            return shed, results

        shed, results = run(scenario())
        assert len(shed) == 5, "queue bound never triggered"
        assert all(exc.capacity == 2 for exc in shed)
        assert all(exc.retry_after_ms > 0 for exc in shed)
        # every admitted request still got a real answer
        assert all(result["totals"] for result in results)

    def test_submit_after_drain_is_shutting_down(self):
        async def scenario():
            batcher = make_batcher()
            batcher.start()
            await batcher.drain_and_stop()
            with pytest.raises(ProtocolError, match="shutting down"):
                batcher.submit(estimate_request(0))

        run(scenario())

    def test_drain_answers_everything_admitted(self):
        async def scenario():
            batcher = make_batcher()
            batcher.start()
            futures = [
                batcher.submit(estimate_request(i, ns=(1600 + 80 * i,)))
                for i in range(20)
            ]
            # Drain immediately: nothing admitted may be dropped.
            await batcher.drain_and_stop()
            return await asyncio.gather(*futures)

        results = run(scenario())
        assert len(results) == 20
        assert all(result["totals"] for result in results)


class TestWhatif:
    def test_whatif_answers_across_pipelines(self):
        async def scenario():
            registry = ModelRegistry()
            registry.add("a", FIXTURE)
            registry.add("b", FIXTURE)
            batcher = MicroBatcher(registry)
            batcher.start()
            future = batcher.submit(
                Request(id=0, op="whatif", config=(1, 2, 8, 1), ns=(3200,))
            )
            result = await future
            await batcher.drain_and_stop()
            return result

        result = run(scenario())
        assert set(result["pipelines"]) == {"a", "b"}
        assert result["pipelines"]["a"]["totals"] == result["pipelines"]["b"]["totals"]
        assert result["best"] == ["a"]  # tie broken by name order
