"""Unit tests for process placement."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.placement import place_processes, rank_rates, ring_neighbors
from repro.cluster.presets import kishimoto_cluster
from repro.errors import ConfigurationError

KINDS = ("athlon", "pentium2")


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))


@pytest.fixture(scope="module")
def spec():
    return kishimoto_cluster()


class TestPlacement:
    def test_rank_count_matches_config(self, spec):
        slots = place_processes(spec, cfg(1, 3, 8, 1))
        assert len(slots) == 11
        assert [s.rank for s in slots] == list(range(11))

    def test_athlon_ranks_come_first(self, spec):
        slots = place_processes(spec, cfg(1, 2, 8, 1))
        assert [s.kind.name for s in slots[:2]] == ["athlon", "athlon"]
        assert all(s.kind.name == "pentium2" for s in slots[2:])

    def test_co_residency_matches_allocation(self, spec):
        slots = place_processes(spec, cfg(1, 4, 8, 1))
        assert all(s.co_resident == 4 for s in slots if s.kind.name == "athlon")
        assert all(s.co_resident == 1 for s in slots if s.kind.name == "pentium2")

    def test_multiprocess_ranks_share_cpu(self, spec):
        slots = place_processes(spec, cfg(1, 3, 0, 0))
        assert all(slots[0].same_cpu(s) for s in slots)

    def test_pentium2_fills_nodes_in_order(self, spec):
        slots = place_processes(spec, cfg(0, 0, 8, 1))
        names = [s.node_name for s in slots]
        assert names == ["node2", "node2", "node3", "node3", "node4", "node4", "node5", "node5"]

    def test_partial_pentium2_uses_first_nodes(self, spec):
        slots = place_processes(spec, cfg(0, 0, 3, 2))
        # 3 CPUs -> node2 both CPUs + node3 first CPU, 2 procs each
        assert len(slots) == 6
        assert {s.node_name for s in slots} == {"node2", "node3"}

    def test_placement_is_deterministic(self, spec):
        a = place_processes(spec, cfg(1, 2, 4, 2))
        b = place_processes(spec, cfg(1, 2, 4, 2))
        assert a == b

    def test_oversized_config_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            place_processes(spec, cfg(0, 0, 9, 1))


class TestRingNeighbors:
    def test_ring_wraps_around(self, spec):
        slots = place_processes(spec, cfg(1, 1, 2, 1))
        edges = ring_neighbors(slots)
        assert len(edges) == 3
        assert edges[-1][0].rank == 2 and edges[-1][1].rank == 0

    def test_edge_classification_helpers(self, spec):
        slots = place_processes(spec, cfg(1, 2, 2, 1))
        # ranks 0,1 on the Athlon CPU; 2,3 on node2's two CPUs
        assert slots[0].same_cpu(slots[1])
        assert not slots[1].same_cpu(slots[2])
        assert slots[2].same_node(slots[3])
        assert not slots[2].same_cpu(slots[3])

    def test_empty_ring(self):
        assert ring_neighbors([]) == []


class TestRankRates:
    @pytest.mark.parametrize("values", [(1, 1, 0, 0), (1, 5, 8, 1), (0, 0, 8, 3)])
    def test_rates_equal_process_rate_bitwise(self, spec, values):
        """The production walkers' vectorized rate model is
        ``PEKind.process_rate`` entry for entry, across the ramp's knee."""
        slots = place_processes(spec, cfg(*values))
        sizes = [1, 400, 999, 1400, 6400, 12000]
        rates, overhead = rank_rates(slots, sizes)
        assert rates.shape == (len(sizes), len(slots))
        for n, row in zip(sizes, rates.tolist()):
            assert row == [s.kind.process_rate(n, s.co_resident) for s in slots]
        assert overhead.tolist() == [s.kind.step_overhead(s.co_resident) for s in slots]
