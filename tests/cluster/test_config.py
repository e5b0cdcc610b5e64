"""Unit tests for run configurations."""

import pickle

import pytest

from repro.cluster.config import ClusterConfig, KindAllocation, enumerate_configs
from repro.cluster.presets import kishimoto_cluster
from repro.errors import ConfigurationError

KINDS = ("athlon", "pentium2")


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))


class TestKindAllocation:
    def test_processes(self):
        assert KindAllocation("a", 4, 3).processes == 12

    def test_zero_pe_forces_zero_procs(self):
        with pytest.raises(ConfigurationError):
            KindAllocation("a", 0, 1)

    def test_used_kind_needs_processes(self):
        with pytest.raises(ConfigurationError):
            KindAllocation("a", 2, 0)

    def test_negative_pe_rejected(self):
        with pytest.raises(ConfigurationError):
            KindAllocation("a", -1, 1)


class TestClusterConfig:
    def test_total_processes_matches_paper_notation(self):
        # (P1=1, M1=3, P2=8, M2=1) -> P = 1*3 + 8*1 = 11
        assert cfg(1, 3, 8, 1).total_processes == 11

    def test_label_roundtrip(self):
        config = cfg(1, 4, 8, 1)
        assert config.label(KINDS) == "1,4,8,1"
        assert config.as_flat_tuple(KINDS) == (1, 4, 8, 1)

    def test_empty_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            cfg(0, 0, 0, 0)

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(
                (KindAllocation("a", 1, 1), KindAllocation("a", 2, 1))
            )

    def test_single_kind_and_single_pe_flags(self):
        assert cfg(1, 2, 0, 0).is_single_kind
        assert cfg(1, 2, 0, 0).is_single_pe
        assert not cfg(1, 1, 8, 1).is_single_kind
        assert cfg(0, 0, 1, 6).is_single_pe
        assert not cfg(0, 0, 2, 3).is_single_pe

    def test_canonical_drops_unused_kinds(self):
        assert cfg(1, 2, 0, 0).canonical().key() == (("athlon", 1, 2),)

    def test_key_identity_ignores_zero_allocations(self):
        explicit = cfg(1, 2, 0, 0)
        implicit = ClusterConfig.of(athlon=(1, 2))
        assert explicit.key() == implicit.key()

    def test_key_memo_keeps_value_semantics(self):
        fresh, memoized = cfg(1, 3, 8, 1), cfg(1, 3, 8, 1)
        key = memoized.key()
        assert memoized.key() is key
        assert memoized == fresh and hash(memoized) == hash(fresh)
        assert memoized.as_flat_tuple(KINDS) == fresh.as_flat_tuple(KINDS)
        assert memoized.label(KINDS) == fresh.label(KINDS) == "1,3,8,1"
        assert repr(memoized) == repr(fresh)
        restored = pickle.loads(pickle.dumps(memoized))
        assert restored == fresh and hash(restored) == hash(fresh)
        assert restored.key() == key
        assert restored.label(KINDS) == "1,3,8,1"

    def test_allocation_lookup_defaults_to_zero(self):
        config = ClusterConfig.of(athlon=(1, 2))
        assert config.pe_count("pentium2") == 0
        assert config.procs_per_pe("pentium2") == 0

    def test_from_tuple_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig.from_tuple(KINDS, (1, 2, 3))


class TestValidateAgainst:
    def test_fits(self):
        cfg(1, 6, 8, 1).validate_against(kishimoto_cluster())

    def test_too_many_pes(self):
        with pytest.raises(ConfigurationError):
            cfg(2, 1, 0, 0).validate_against(kishimoto_cluster())
        with pytest.raises(ConfigurationError):
            cfg(0, 0, 9, 1).validate_against(kishimoto_cluster())

    def test_unknown_kind(self):
        config = ClusterConfig.of(xeon=(1, 1))
        with pytest.raises(ConfigurationError):
            config.validate_against(kishimoto_cluster())


class TestEnumeration:
    def test_paper_evaluation_count_is_62(self):
        configs = list(
            enumerate_configs(
                KINDS,
                pe_ranges={"athlon": (0, 1), "pentium2": range(0, 9)},
                proc_ranges={"athlon": range(1, 7), "pentium2": (1,)},
            )
        )
        # P1 in {0,1} x M1 in 1..6 x P2 in 0..8, M2=1, minus the empty one:
        # 6*9 (P1=1) + 8 (P1=0, P2>=1) = 62
        assert len(configs) == 62

    def test_enumeration_has_no_duplicates(self):
        configs = list(
            enumerate_configs(
                KINDS,
                pe_ranges={"athlon": (0, 1), "pentium2": range(0, 3)},
                proc_ranges={"athlon": (1, 2), "pentium2": (1, 2)},
            )
        )
        keys = [c.key() for c in configs]
        assert len(keys) == len(set(keys))

    def test_every_enumerated_config_is_nonempty(self):
        for config in enumerate_configs(
            KINDS,
            pe_ranges={"athlon": (0, 1), "pentium2": (0, 1)},
            proc_ranges={"athlon": (1,), "pentium2": (1,)},
        ):
            assert config.total_processes >= 1
