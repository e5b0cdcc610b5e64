"""Unit tests for ClusterSpec."""

import dataclasses

import pytest

from repro.cluster.network import fast_ethernet, gigabit_sx
from repro.cluster.node import Node
from repro.cluster.presets import athlon_1333, kishimoto_cluster, single_node_cluster, synthetic_cluster
from repro.cluster.spec import ClusterSpec
from repro.errors import ClusterError
from repro.simnet.mpich import mpich_1_2_1, mpich_1_2_2


def two_kind_spec() -> ClusterSpec:
    return kishimoto_cluster()


class TestInventory:
    def test_paper_cluster_matches_table1(self):
        spec = two_kind_spec()
        assert len(spec.nodes) == 5
        assert spec.pe_count("athlon") == 1
        assert spec.pe_count("pentium2") == 8  # 4 dual-CPU nodes
        assert spec.total_pes == 9
        assert spec.kind_names == ("athlon", "pentium2")

    def test_kind_lookup(self):
        spec = two_kind_spec()
        assert spec.kind("athlon").peak_gflops > spec.kind("pentium2").peak_gflops
        with pytest.raises(ClusterError):
            spec.kind("itanium")

    def test_nodes_of_kind(self):
        spec = two_kind_spec()
        assert len(spec.nodes_of_kind("pentium2")) == 4
        assert len(spec.nodes_of_kind("athlon")) == 1

    def test_pe_counts_mapping(self):
        assert two_kind_spec().pe_counts() == {"athlon": 1, "pentium2": 8}

    def test_pe_counts_read_only(self):
        counts = two_kind_spec().pe_counts()
        with pytest.raises(TypeError):
            counts["athlon"] = 99
        assert two_kind_spec().pe_count("athlon") == 1

    def test_replaced_spec_counts_its_own_nodes(self):
        spec = two_kind_spec()
        assert spec.pe_counts() == {"athlon": 1, "pentium2": 8}
        smaller = dataclasses.replace(spec, nodes=spec.nodes[:2])
        assert smaller.pe_counts() == {"athlon": 1, "pentium2": 2}
        assert smaller.pe_count("pentium2") == 2
        assert spec.pe_count("pentium2") == 8
        assert spec.pe_count("itanium") == 0

    def test_describe_mentions_everything(self):
        text = two_kind_spec().describe()
        for token in ("athlon", "pentium2", "100base-tx", "mpich", "768 MB"):
            assert token in text


class TestValidation:
    def test_duplicate_node_names_rejected(self):
        node = Node("same", athlon_1333())
        with pytest.raises(ClusterError):
            ClusterSpec("bad", (node, node), fast_ethernet(), mpich_1_2_2())

    def test_empty_cluster_rejected(self):
        with pytest.raises(ClusterError):
            ClusterSpec("bad", (), fast_ethernet(), mpich_1_2_2())

    def test_conflicting_kind_definitions_rejected(self):
        a = Node("n1", athlon_1333())
        conflicting = Node("n2", athlon_1333().scaled("athlon", 2.0))
        with pytest.raises(ClusterError):
            ClusterSpec("bad", (a, conflicting), fast_ethernet(), mpich_1_2_2())


class TestDerivation:
    def test_with_network_replaces_only_network(self):
        spec = two_kind_spec()
        fast = spec.with_network(gigabit_sx())
        assert fast.network.name == "1000base-sx"
        assert fast.nodes == spec.nodes

    def test_with_intranode(self):
        spec = two_kind_spec().with_intranode(mpich_1_2_1())
        assert spec.intranode.name == "mpich-1.2.1"


class TestPresets:
    def test_single_node_cluster(self):
        spec = single_node_cluster(cpus=2)
        assert spec.total_pes == 2
        assert len(spec.kinds) == 1

    def test_kishimoto_rejects_unknown_options(self):
        with pytest.raises(ClusterError):
            kishimoto_cluster(mpich="9.9")
        with pytest.raises(ClusterError):
            kishimoto_cluster(network="infiniband")

    def test_synthetic_cluster_kind_rates(self):
        spec = synthetic_cluster([0.2, 0.5, 1.0], nodes_per_kind=2)
        assert len(spec.kinds) == 3
        rates = [k.peak_gflops for k in spec.kinds]
        assert rates == pytest.approx([0.2, 0.5, 1.0])
        assert spec.total_pes == 6

    def test_synthetic_cluster_requires_kinds(self):
        with pytest.raises(ClusterError):
            synthetic_cluster([])
