"""Tests for deterministic RNG streams and unit helpers."""

import hashlib

import numpy as np
import pytest

from repro import rng as rng_mod
from repro import units


class TestStreams:
    def test_same_keys_same_stream(self):
        a = rng_mod.stream(42, "campaign", ("cfg", 1), 800)
        b = rng_mod.stream(42, "campaign", ("cfg", 1), 800)
        assert np.array_equal(a.random(16), b.random(16))

    def test_different_keys_different_streams(self):
        a = rng_mod.stream(42, "campaign", 800).random(8)
        b = rng_mod.stream(42, "campaign", 801).random(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_different_streams(self):
        a = rng_mod.stream(1, "x").random(8)
        b = rng_mod.stream(2, "x").random(8)
        assert not np.array_equal(a, b)

    def test_key_separator_prevents_concatenation_collisions(self):
        a = rng_mod.stream(0, "ab", "c").random(4)
        b = rng_mod.stream(0, "a", "bc").random(4)
        assert not np.array_equal(a, b)

    def test_stable_across_processes(self):
        """The stream derivation must not depend on Python's salted hash():
        the first draw for a fixed key is a constant."""
        value = rng_mod.stream(123, "golden").random()
        again = rng_mod.stream(123, "golden").random()
        assert value == again

    def test_prefix_folded_seed_equals_full_fold(self):
        """Folding a shared prefix once and continuing a copy of its hash
        state gives the full tuple's fold, for every suffix."""
        prefix = ("hpl-run", ((1, 2), (8, 1)))
        state = rng_mod._fold(hashlib.sha256(), prefix)
        for suffix in [(1600, 0), (1600, 3), (6400, 0), ()]:
            assert rng_mod._fold_keys(suffix, state) == rng_mod._fold_keys(
                prefix + suffix
            )
        # the prefix state is copied, never advanced
        assert rng_mod._fold_keys((), state) == rng_mod._fold_keys(prefix)

    def test_seeded_streams_equal_stream(self):
        prefix = ("sorting-run", ("athlon", 1, 5))
        suffixes = [(2000, 0), (2000, 1), (12000, 4)]
        keys = rng_mod.folded_keys(prefix, suffixes)
        got = [g.random(8) for g in rng_mod.seeded(7, keys)]
        want = [rng_mod.stream(7, *prefix, *suffix).random(8) for suffix in suffixes]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_stream_is_numpys_seed_sequence_stream(self):
        keys = ("hpl-run", ((1, 2), (8, 1)), 1600, 2)
        for seed in (0, 7, 2**32 + 5):
            numpy_stream = np.random.default_rng(
                np.random.SeedSequence([seed & 0xFFFFFFFF, rng_mod._fold_keys(keys)])
            )
            assert np.array_equal(
                rng_mod.stream(seed, *keys).standard_normal(16),
                numpy_stream.standard_normal(16),
            )

    def test_spawn_seed_deterministic(self):
        assert rng_mod.spawn_seed(5, "a") == rng_mod.spawn_seed(5, "a")
        assert rng_mod.spawn_seed(5, "a") != rng_mod.spawn_seed(5, "b")


class TestUnits:
    def test_gflops(self):
        assert units.gflops(2e9, 2.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            units.gflops(1.0, -1.0)

    def test_to_gbps(self):
        assert units.to_gbps(125_000_000) == pytest.approx(1.0)

    def test_matrix_bytes(self):
        assert units.matrix_bytes(1000) == 8_000_000
        with pytest.raises(ValueError):
            units.matrix_bytes(-1)

    def test_pretty_bytes(self):
        assert units.pretty_bytes(512) == "512.0 B"
        assert units.pretty_bytes(768 * units.MB) == "768.0 MB"
        assert units.pretty_bytes(3 * units.GB) == "3.0 GB"

    def test_pretty_seconds_bands(self):
        assert "us" in units.pretty_seconds(5e-6)
        assert "ms" in units.pretty_seconds(0.005)
        assert units.pretty_seconds(3.21) == "3.2 s"
        assert units.pretty_seconds(125) == "2m 05.0s"
        assert units.pretty_seconds(3 * units.HOUR + 120) == "3h 02m"
        assert units.pretty_seconds(-3.0).startswith("-")

    def test_network_constants(self):
        # vendors quote bits; we store bytes
        assert 100 * units.MBPS_IN_BYTES == pytest.approx(12.5e6)
        assert units.GBPS_IN_BYTES == pytest.approx(125e6)
