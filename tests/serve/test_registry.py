"""Model registry: loading, fingerprint keys, hot reload, cache swap."""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.persistence import load_pipeline, read_pipeline_blobs
from repro.errors import ModelError, ReproError
from repro.serve.registry import ModelRegistry, UnknownPipeline

FIXTURE = Path(__file__).parent.parent / "golden" / "format1_pipeline"


@pytest.fixture
def served_dir(tmp_path):
    """A private copy of the golden pipeline directory (safe to mutate)."""
    target = tmp_path / "pipeline"
    shutil.copytree(FIXTURE, target)
    return target


def _rewrite_adjustment(directory: Path, factor: float) -> None:
    """Simulate a re-save that changed the calibration: scale the
    adjustment in the manifest (an estimate-determining artifact)."""
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["adjustment"]["scales"] = [
        [mi, scale * factor] for mi, scale in manifest["adjustment"]["scales"]
    ]
    manifest_path.write_text(json.dumps(manifest, indent=1))


class TestLoading:
    def test_add_and_get(self):
        registry = ModelRegistry()
        entry = registry.add("golden", FIXTURE)
        assert registry.get("golden") is entry
        assert registry.names() == ["golden"]
        assert entry.generation == 1
        assert entry.key == ("golden", entry.fingerprint)

    def test_fingerprint_matches_pipeline_cache_fingerprint(self):
        """The registry key's fingerprint is *the* estimate-cache
        fingerprint, so serve-level invalidation can never drift from
        the in-pipeline rule."""
        registry = ModelRegistry()
        entry = registry.add("golden", FIXTURE)
        assert entry.fingerprint == load_pipeline(FIXTURE).estimate_cache.fingerprint

    def test_duplicate_name_rejected(self):
        registry = ModelRegistry()
        registry.add("golden", FIXTURE)
        with pytest.raises(ReproError, match="already registered"):
            registry.add("golden", FIXTURE)

    def test_unknown_pipeline_is_typed(self):
        registry = ModelRegistry()
        registry.add("golden", FIXTURE)
        with pytest.raises(UnknownPipeline, match="no pipeline named 'nope'"):
            registry.get("nope")

    def test_corrupt_directory_raises_model_error_with_path(self, served_dir):
        (served_dir / "models.json").write_text('{"truncated": ')
        registry = ModelRegistry()
        with pytest.raises(ModelError, match="models.json"):
            registry.add("bad", served_dir)


class TestCachedTotals:
    def test_bitwise_equal_to_direct_path_and_cached(self, served_dir):
        registry = ModelRegistry()
        entry = registry.add("golden", served_dir)
        config = entry.parse_config([1, 2, 8, 1])
        ns = [1600, 3200, 4800]
        direct = load_pipeline(served_dir).estimate_totals(config, ns)
        first = entry.cached_totals(config, ns)
        again = entry.cached_totals(config, ns)
        assert list(first) == list(direct)
        assert list(again) == list(direct)
        assert entry.cache.stats.misses == 3
        assert entry.cache.stats.hits == 3

    def test_cache_respects_capacity(self, served_dir):
        registry = ModelRegistry(cache_capacity=2)
        entry = registry.add("golden", served_dir)
        config = entry.parse_config([1, 2, 8, 1])
        entry.cached_totals(config, [1600, 3200, 4800])
        assert len(entry.cache) == 2
        assert entry.cache.stats.evictions == 1


class TestHotReload:
    def test_unchanged_directory_is_not_swapped(self, served_dir):
        registry = ModelRegistry()
        registry.add("golden", served_dir)
        assert registry.refresh() == []
        assert registry.get("golden").generation == 1

    def test_content_change_swaps_entry_and_retires_cache(self, served_dir):
        registry = ModelRegistry()
        entry = registry.add("golden", served_dir)
        config = entry.parse_config([1, 3, 8, 1])
        before = float(entry.cached_totals(config, [3200])[0])
        old_fingerprint = entry.fingerprint
        old_cache = entry.cache

        _rewrite_adjustment(served_dir, factor=2.0)
        assert registry.refresh() == ["golden"]

        fresh = registry.get("golden")
        assert fresh.generation == 2
        assert fresh.fingerprint != old_fingerprint
        assert fresh.cache is not old_cache  # fingerprint-scoped entries dropped
        after = float(fresh.cached_totals(config, [3200])[0])
        assert after == pytest.approx(2.0 * before)
        # the retired generation's counters fold into session totals
        assert registry.retired_cache_stats.misses == old_cache.stats.misses

    def test_byte_identical_resave_keeps_warm_cache(self, served_dir):
        registry = ModelRegistry()
        entry = registry.add("golden", served_dir)
        config = entry.parse_config([1, 3, 8, 1])
        entry.cached_totals(config, [3200])
        old_cache = entry.cache

        # Touch the manifest (same content, new mtime): files changed,
        # models did not — the entry swaps but the cache stays warm.
        manifest = served_dir / "manifest.json"
        manifest.write_text(manifest.read_text())
        assert registry.refresh() == ["golden"]
        fresh = registry.get("golden")
        assert fresh.generation == 2
        assert fresh.cache is old_cache
        fresh.cached_totals(config, [3200])
        assert fresh.cache.stats.hits == 1

    def test_half_written_directory_keeps_serving_old_entry(self, served_dir):
        registry = ModelRegistry()
        entry = registry.add("golden", served_dir)
        config = entry.parse_config([1, 2, 8, 1])
        before = float(entry.cached_totals(config, [3200])[0])

        (served_dir / "models.json").write_text('{"mid-write')
        assert registry.refresh() == []
        assert registry.last_reload_errors[0][0] == "golden"
        assert "models.json" in registry.last_reload_errors[0][1]

        survivor = registry.get("golden")
        assert survivor.generation == 1
        assert float(survivor.cached_totals(config, [3200])[0]) == before

    def test_force_refresh_reloads_unchanged(self, served_dir):
        registry = ModelRegistry()
        registry.add("golden", served_dir)
        assert registry.refresh(force=True) == ["golden"]
        assert registry.get("golden").generation == 2

    def test_snapshot_structure(self, served_dir):
        registry = ModelRegistry()
        entry = registry.add("golden", served_dir)
        entry.cached_totals(entry.parse_config([1, 2, 8, 1]), [3200])
        snapshot = registry.snapshot()
        pipeline = snapshot["pipelines"]["golden"]
        assert pipeline["generation"] == 1
        assert pipeline["cache"]["misses"] == 1
        assert pipeline["cache"]["fingerprint"] == entry.fingerprint
        assert snapshot["session_cache"]["misses"] == 1


class TestPromote:
    """The calibration loop's hot-swap hook: serve a different directory."""

    def test_promote_swaps_to_new_directory(self, served_dir, tmp_path):
        registry = ModelRegistry()
        entry = registry.add("golden", served_dir)
        config = entry.parse_config([1, 3, 8, 1])
        before = float(entry.cached_totals(config, [3200])[0])
        old_fingerprint = entry.fingerprint
        old_cache = entry.cache

        candidate_dir = tmp_path / "candidate"
        shutil.copytree(served_dir, candidate_dir)
        _rewrite_adjustment(candidate_dir, factor=2.0)

        fresh = registry.promote("golden", candidate_dir)
        assert registry.get("golden") is fresh
        assert fresh.directory == candidate_dir
        assert fresh.generation == 2
        assert fresh.fingerprint != old_fingerprint
        # New fingerprint: the old cache retires into session totals.
        assert fresh.cache is not old_cache
        assert registry.retired_cache_stats.misses == old_cache.stats.misses
        after = float(fresh.cached_totals(config, [3200])[0])
        assert after == pytest.approx(2.0 * before)

    def test_promote_same_fingerprint_keeps_warm_cache(self, served_dir, tmp_path):
        registry = ModelRegistry()
        entry = registry.add("golden", served_dir)
        entry.cached_totals(entry.parse_config([1, 3, 8, 1]), [3200])
        old_cache = entry.cache

        # A byte-identical copy (a rollback target re-serving the same
        # generation) keeps the warm cache: same fingerprint, same answers.
        twin_dir = tmp_path / "twin"
        shutil.copytree(served_dir, twin_dir)
        fresh = registry.promote("golden", twin_dir)
        assert fresh.directory == twin_dir
        assert fresh.cache is old_cache

    def test_promotion_retires_eviction_counters(self, served_dir, tmp_path):
        """LRU eviction counts survive the invalidation-on-promotion path:
        the retired generation's evictions fold into the session totals and
        the new generation's cache starts from zero."""
        registry = ModelRegistry(cache_capacity=2)
        entry = registry.add("golden", served_dir)
        config = entry.parse_config([1, 2, 8, 1])
        entry.cached_totals(config, [1600, 3200, 4800, 6400])  # 2 evictions
        assert entry.cache.stats.evictions == 2

        candidate_dir = tmp_path / "candidate"
        shutil.copytree(served_dir, candidate_dir)
        _rewrite_adjustment(candidate_dir, factor=2.0)
        fresh = registry.promote("golden", candidate_dir)

        assert registry.retired_cache_stats.evictions == 2
        assert fresh.cache.stats.evictions == 0
        assert len(fresh.cache) == 0
        # ...and the session aggregate in the stats snapshot keeps them.
        fresh.cached_totals(config, [1600, 3200, 4800])  # 1 more eviction
        snapshot = registry.snapshot()
        assert snapshot["session_cache"]["evictions"] == 3
        assert snapshot["pipelines"]["golden"]["cache"]["evictions"] == 1

    def test_promote_unknown_name_rejected(self, served_dir):
        registry = ModelRegistry()
        with pytest.raises(UnknownPipeline):
            registry.promote("nope", served_dir)

    def test_failed_promote_keeps_old_entry(self, served_dir, tmp_path):
        registry = ModelRegistry()
        entry = registry.add("golden", served_dir)
        broken = tmp_path / "broken"
        broken.mkdir()
        with pytest.raises(ReproError):
            registry.promote("golden", broken)
        assert registry.get("golden") is entry  # still serving


class TestFleetEntry:
    """A fleet replica's entry: built from the bytes its supervisor
    validated, checked against the fingerprint the supervisor saw."""

    def test_entry_is_bitwise_the_disk_pipeline(self):
        disk = load_pipeline(FIXTURE)
        registry = ModelRegistry()
        entry = registry.fleet_entry(
            "golden", FIXTURE, *read_pipeline_blobs(FIXTURE),
            disk.estimate_cache.fingerprint,
        )
        assert entry.fingerprint == disk.estimate_cache.fingerprint
        assert entry.source == "fleet" and entry.directory == FIXTURE
        config = entry.parse_config([1, 2, 8, 1])
        for n in (1600, 3200):
            assert entry.pipeline.estimate(config, n).total == disk.estimate(
                config, n
            ).total

    def test_fingerprint_skew_is_detected(self, served_dir):
        """Bytes that build another pipeline than the supervisor validated
        (the directory was rewritten in between) are refused, naming both
        fingerprints."""
        validated = load_pipeline(served_dir).estimate_cache.fingerprint
        _rewrite_adjustment(served_dir, factor=2.0)
        rewritten = load_pipeline(served_dir).estimate_cache.fingerprint
        assert rewritten != validated
        with pytest.raises(ModelError) as caught:
            ModelRegistry().fleet_entry(
                "golden", served_dir, *read_pipeline_blobs(served_dir), validated
            )
        assert validated in str(caught.value) and rewritten in str(caught.value)

    def test_fleet_entries_never_watch_disk(self, served_dir):
        registry = ModelRegistry()
        fingerprint = load_pipeline(served_dir).estimate_cache.fingerprint
        entry = registry.install_entry(registry.fleet_entry(
            "golden", served_dir, *read_pipeline_blobs(served_dir), fingerprint
        ))
        _rewrite_adjustment(served_dir, factor=2.0)
        assert registry.refresh(force=True) == []
        assert registry.get("golden") is entry
        assert registry.snapshot()["pipelines"]["golden"]["source"] == "fleet"


class TestReloadFailureCounters:
    """Failed reload attempts are counted, not silently skipped."""

    def test_failures_accumulate_over_refreshes(self, served_dir):
        registry = ModelRegistry()
        registry.add("golden", served_dir)
        (served_dir / "models.json").write_text('{"mid-write')
        assert registry.refresh() == []
        assert registry.reload_failures == 1
        # The live entry's signature never advanced (the swap failed), so
        # the next pass retries — and fails — again.
        assert registry.refresh() == []
        # last_reload_errors shows only the latest pass; the lifetime
        # counter keeps growing.
        assert len(registry.last_reload_errors) == 1
        assert registry.reload_failures == 2
        assert registry.snapshot()["reload_failures"] == 2

    def test_failures_mirror_into_attached_metrics(self, served_dir):
        from repro.serve.metrics import ServeMetrics

        registry = ModelRegistry()
        registry.metrics = ServeMetrics()
        registry.add("golden", served_dir)
        (served_dir / "models.json").write_text('{"mid-write')
        registry.refresh()
        assert registry.metrics.reload_failures == 1
        assert registry.metrics.to_dict()["reload_failures"] == 1

    def test_successful_refresh_counts_no_failures(self, served_dir):
        registry = ModelRegistry()
        registry.add("golden", served_dir)
        _rewrite_adjustment(served_dir, factor=2.0)
        assert registry.refresh() == ["golden"]
        assert registry.reload_failures == 0


class TestModelInventory:
    def test_inventory_lists_every_model(self):
        registry = ModelRegistry()
        entry = registry.add("golden", FIXTURE)
        inventory = entry.model_inventory()
        assert inventory["backend"] == "binned"
        assert inventory["count"] == len(inventory["models"]) == 42
        kinds = {m["type"] for m in inventory["models"]}
        assert kinds == {"nt", "pt"}
        assert any(m["composed"] for m in inventory["models"])
