"""Shared-memory artifacts: segment layout, zero-copy pipeline loading,
torn-artifact detection, and the fleet stats block."""

from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.core.persistence import load_pipeline, read_pipeline_blobs
from repro.errors import ModelError
from repro.hpl.schedule import _build_panel_table, clear_panel_tables
from repro.serve.metrics import FLEET_COUNTER_FIELDS, LATENCY_BUCKETS_MS
from repro.serve.shared import (
    ArtifactSegment,
    FleetStatsBlock,
    load_pipeline_from_segment,
    model_coefficients,
    pack_pipeline_segment,
    seed_from_segment,
    shared_panel_tables,
)

FIXTURE = Path(__file__).parent.parent / "golden" / "format1_pipeline"

N_LATENCY = len(LATENCY_BUCKETS_MS) + 1


@pytest.fixture
def segment():
    """A packed golden-pipeline segment, unlinked on teardown."""
    seg = pack_pipeline_segment(FIXTURE)
    try:
        yield seg
    finally:
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:
            pass


class TestArtifactSegment:
    def test_blob_round_trip(self):
        blobs = {"a.json": b'{"x": 1}', "b.bin": bytes(range(256))}
        arrays = {"v": np.arange(7, dtype=np.float64)}
        with ArtifactSegment.pack({"kind": "test"}, blobs, arrays) as seg:
            assert seg.meta == {"kind": "test"}
            assert seg.blob_names() == ["a.json", "b.bin"]
            for name, blob in blobs.items():
                assert seg.blob(name) == blob

    def test_array_is_read_only_view(self):
        arrays = {"v": np.arange(5, dtype=np.int64)}
        with ArtifactSegment.pack({}, {}, arrays) as seg:
            view = seg.array("v")
            assert view.dtype == np.int64
            np.testing.assert_array_equal(view, arrays["v"])
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view[0] = 99

    def test_attach_sees_the_packed_payload(self):
        arrays = {"v": np.linspace(0.0, 1.0, 9)}
        with ArtifactSegment.pack({"n": 3}, {"t": b"text"}, arrays) as seg:
            other = ArtifactSegment.attach(seg.name)
            try:
                assert other.meta == {"n": 3}
                assert other.blob("t") == b"text"
                np.testing.assert_array_equal(other.array("v"), arrays["v"])
            finally:
                other.close()

    def test_bad_magic_is_typed(self):
        shm = shared_memory.SharedMemory(create=True, size=64)
        try:
            shm.buf[:8] = b"GARBAGE!"
            with pytest.raises(ModelError, match="bad magic"):
                ArtifactSegment(shm, owner=False)
        finally:
            shm.close()
            shm.unlink()


class TestPipelineSegment:
    def test_segment_pipeline_is_bitwise_identical(self, segment):
        disk = load_pipeline(FIXTURE)
        shared = load_pipeline_from_segment(segment)
        assert shared.estimate_cache.fingerprint == disk.estimate_cache.fingerprint
        values = (1, 2, 8, 1)
        for n in (1600, 3200):
            ours = shared.estimate(
                ClusterConfig.from_tuple(shared.plan.kinds, values), n
            )
            theirs = disk.estimate(
                ClusterConfig.from_tuple(disk.plan.kinds, values), n
            )
            assert ours.total == theirs.total

    def test_blobs_match_the_directory(self, segment):
        blobs, _ = read_pipeline_blobs(FIXTURE)
        assert set(segment.blob_names()) == set(blobs)
        for name, blob in blobs.items():
            assert segment.blob(name) == blob

    def test_coefficients_are_deterministic(self):
        pipeline = load_pipeline(FIXTURE)
        first = model_coefficients(pipeline)
        second = model_coefficients(load_pipeline(FIXTURE))
        assert first.dtype == np.float64
        assert first.size > 0
        np.testing.assert_array_equal(first, second)

    def test_torn_coefficients_are_detected(self, segment):
        # Corrupt one packed coefficient in place (the read-only flag
        # protects the *view*, not the underlying shared buffer).
        dtype, shape, off = segment._arrays["coefficients"]
        raw = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=segment._shm.buf, offset=off
        )
        raw[0] += 1.0
        with pytest.raises(ModelError, match="torn shared artifact"):
            load_pipeline_from_segment(segment)

    def test_fingerprint_skew_is_detected(self):
        blobs, _ = read_pipeline_blobs(FIXTURE)
        coefficients = model_coefficients(load_pipeline(FIXTURE))
        with ArtifactSegment.pack(
            {"kind": "pipeline", "fingerprint": "bogus"},
            blobs,
            {"coefficients": coefficients},
        ) as seg:
            with pytest.raises(ModelError, match="fingerprint"):
                load_pipeline_from_segment(seg)

    def test_panel_tables_round_trip(self, segment):
        tables = shared_panel_tables(segment)
        assert tables, "golden campaign should yield panel tables"
        sample = tables[0]
        rebuilt = _build_panel_table(sample.n, sample.nb, sample.p)
        np.testing.assert_array_equal(sample.update_flops, rebuilt.update_flops)
        np.testing.assert_array_equal(sample.owner, rebuilt.owner)
        assert not sample.update_flops.flags.writeable

    def test_seed_from_segment_counts_tables(self, segment):
        try:
            count = seed_from_segment(segment)
            assert count == len(segment.meta["panel_tables"])
            assert count > 0
        finally:
            # The seeded tables are views into the segment, which the
            # fixture unmaps; a later walk must not read them.
            clear_panel_tables()


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
