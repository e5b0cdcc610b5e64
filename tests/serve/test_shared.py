"""The fleet stats block: row layout, attach, aggregation, restarts."""

import pytest

from repro.errors import ModelError
from repro.serve.metrics import FLEET_COUNTER_FIELDS, LATENCY_BUCKETS_MS
from repro.serve.shared import FleetStatsBlock

N_LATENCY = len(LATENCY_BUCKETS_MS) + 1


class TestFleetStatsBlock:
    def _publish(self, block, index, requests, epoch=1):
        counters = [0] * len(FLEET_COUNTER_FIELDS)
        counters[FLEET_COUNTER_FIELDS.index("requests")] = requests
        counters[FLEET_COUNTER_FIELDS.index("errors")] = 1
        latency = [0] * N_LATENCY
        latency[0] = requests
        block.publish(
            index,
            pid=1000 + index,
            port=9000 + index,
            epoch=epoch,
            heartbeat_us=123456,
            counters=counters,
            latency_counts=latency,
            latency_sum_us=requests * 500,
            latency_max_us=900,
            cache=(10, 5, 1),
        )

    def test_publish_and_read_back(self):
        block = FleetStatsBlock.create(2)
        try:
            self._publish(block, 0, requests=7)
            row = block.row(0)
            assert row.pid == 1000 and row.port == 9000 and row.attached
            assert row.counters["requests"] == 7
            assert row.cache.as_tuple() == (10, 5, 1)
            # untouched rows read as empty, not garbage
            assert block.row(1).pid == 0
        finally:
            block.close()
            block.unlink()

    def test_attach_sees_live_rows(self):
        block = FleetStatsBlock.create(1)
        try:
            self._publish(block, 0, requests=3)
            other = FleetStatsBlock.attach(block.name)
            try:
                assert other.workers == 1
                assert other.row(0).counters["requests"] == 3
            finally:
                other.close()
        finally:
            block.close()
            block.unlink()

    def test_aggregate_sums_live_rows_only(self):
        block = FleetStatsBlock.create(3)
        try:
            self._publish(block, 0, requests=4)
            self._publish(block, 2, requests=6)
            status = block.aggregate()
            assert status["totals"]["requests"] == 10
            assert status["totals"]["errors"] == 2
            assert status["latency"]["count"] == 10
            assert status["cache"]["hits"] == 20
            assert len(status["workers"]) == 3
            assert status["workers"][1]["pid"] == 0
        finally:
            block.close()
            block.unlink()

    def test_restarts_and_detach(self):
        block = FleetStatsBlock.create(2)
        try:
            assert block.restarts() == [0, 0]
            assert block.bump_restart(1) == 1
            assert block.bump_restart(1) == 2
            assert block.restarts() == [0, 2]
            self._publish(block, 0, requests=1)
            block.mark_detached(0)
            assert not block.row(0).attached
            assert block.row(0).counters["requests"] == 1  # counters frozen
        finally:
            block.close()
            block.unlink()

    def test_publish_validates_shapes(self):
        block = FleetStatsBlock.create(1)
        try:
            with pytest.raises(ModelError, match="counters"):
                block.publish(
                    0,
                    pid=1,
                    port=1,
                    epoch=1,
                    heartbeat_us=0,
                    counters=[1, 2],
                    latency_counts=[0] * N_LATENCY,
                    latency_sum_us=0,
                    latency_max_us=0,
                    cache=(0, 0, 0),
                )
        finally:
            block.close()
            block.unlink()

    def test_create_rejects_zero_workers(self):
        with pytest.raises(ModelError, match=">= 1 worker"):
            FleetStatsBlock.create(0)
