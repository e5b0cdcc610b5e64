"""Unit tests for process placement."""

import pickle
import sys
import threading

import numpy as np
import pytest

import repro.cluster.placement as placement_module
from repro.cluster.config import ClusterConfig
from repro.cluster.network import gigabit_sx
from repro.cluster.placement import place_processes, rank_rates, ring_neighbors
from repro.cluster.presets import kishimoto_cluster
from repro.errors import ConfigurationError
from repro.simnet.transport import LinkKind, Transport

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


@pytest.fixture
def counted_placements(monkeypatch):
    """Counts the uncached placements made while the test runs."""
    calls = []
    uncached = placement_module._place

    def counting(spec, config):
        calls.append(config.key())
        return uncached(spec, config)

    monkeypatch.setattr(placement_module, "_place", counting)
    return calls


class TestPlacementMemo:
    def test_each_configuration_is_placed_once_per_spec(self, counted_placements):
        spec = kishimoto_cluster()
        first = place_processes(spec, cfg(1, 2, 4, 2))
        assert place_processes(spec, cfg(1, 2, 4, 2)) is first
        # the same configuration written with its unused kind left out
        assert place_processes(spec, ClusterConfig.of(athlon=(1, 2), pentium2=(4, 2))) is first
        assert counted_placements == [cfg(1, 2, 4, 2).key()]

    def test_an_equal_configuration_on_another_spec_is_placed_again(
        self, counted_placements
    ):
        spec = kishimoto_cluster()
        twin = kishimoto_cluster()
        other = spec.with_network(gigabit_sx())
        config = cfg(1, 3, 2, 1)
        placements = [place_processes(s, config) for s in (spec, twin, other)]
        assert len(counted_placements) == 3
        assert placements[0] is not placements[1] and placements[0] is not placements[2]
        assert placements[0] == placements[1] == placements[2]

    def test_a_configuration_that_does_not_fit_raises_every_time(
        self, counted_placements
    ):
        spec = kishimoto_cluster()
        for bad in (cfg(0, 0, 9, 1), cfg(2, 1, 0, 0), ClusterConfig.of(sparc=(1, 1))):
            for _ in range(3):
                with pytest.raises(ConfigurationError):
                    place_processes(spec, bad)
        assert len(counted_placements) == 9
        assert len(spec._placements) == 0

    def test_the_memo_never_holds_more_than_its_bound(self, monkeypatch):
        monkeypatch.setattr(placement_module, "_PLACEMENTS_PER_SPEC", 4)
        spec = kishimoto_cluster()
        configs = [cfg(0, 0, pes, 1) for pes in range(1, 9)]
        for config in configs:
            place_processes(spec, config)
            assert len(spec._placements) <= 4
        assert list(spec._placements) == [c.key() for c in configs[-4:]]
        # a hit is the most recently used entry, so it survives the next miss
        kept = place_processes(spec, configs[4])
        place_processes(spec, cfg(1, 1, 0, 0))
        assert place_processes(spec, configs[4]) is kept
        assert configs[5].key() not in spec._placements

    def test_concurrent_callers_share_one_consistent_memo(self, monkeypatch):
        """Threads hitting one entry while others evict it: with a bound of
        one, each miss evicts the entry a hit is about to refresh."""
        monkeypatch.setattr(placement_module, "_PLACEMENTS_PER_SPEC", 1)
        spec = kishimoto_cluster()
        configs = [cfg(0, 0, 1, 1), cfg(0, 0, 2, 1)]
        expected = [placement_module._place(spec, c) for c in configs]
        errors = []

        def work(which):
            try:
                for _ in range(20000):
                    if place_processes(spec, configs[which]) != expected[which]:
                        errors.append(which)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k % 2,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(spec._placements) == 1

    def test_the_default_bound_holds_every_paper_configuration(self):
        assert placement_module._PLACEMENTS_PER_SPEC >= 102

    def test_a_placement_cannot_be_changed(self, spec):
        placement = place_processes(spec, cfg(1, 2, 2, 1))
        with pytest.raises(TypeError):
            placement[0] = placement[1]
        with pytest.raises(ValueError):
            placement.table[0, 0] = 0.0
        with pytest.raises(ValueError):
            placement.overhead[:] = 0.0
        with pytest.raises(AttributeError):
            placement.slots = ()
        assert place_processes(spec, cfg(1, 2, 2, 1)).table.flags.writeable is False

    def test_pickles_carry_no_memo(self, spec):
        placement = place_processes(spec, cfg(1, 2, 2, 1))
        assert pickle.loads(pickle.dumps(placement)) == placement
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and len(copy._placements) == 0


class TestRankColumns:
    @pytest.mark.parametrize("values", [(1, 1, 0, 0), (1, 5, 8, 1), (0, 0, 3, 2), (1, 2, 8, 3)])
    def test_columns_equal_the_per_slot_model(self, spec, values):
        """Each column is the scalar model's value for its rank, bitwise."""
        slots = place_processes(spec, cfg(*values))
        per_node = [sum(s.node_index == slot.node_index for s in slots) for slot in slots]
        kinds = Transport(spec, slots).ring_link_kinds()
        assert slots.node.tolist() == [s.node_index for s in slots]
        assert slots.node_procs.tolist() == per_node
        assert slots.usable_bytes.tolist() == [
            spec.nodes[s.node_index].usable_memory_bytes for s in slots
        ]
        assert slots.mem_rate.tolist() == [
            s.kind.mem_copy_rate() / s.co_resident for s in slots
        ]
        assert slots.procs.tolist() == [s.co_resident for s in slots]
        assert slots.network_edge.tolist() == [k is LinkKind.NETWORK for k in kinds]
        assert slots.same_cpu_edge.tolist() == [k is LinkKind.SAME_CPU for k in kinds]
        assert slots.rank_kinds == tuple(s.kind.name for s in slots)

    def test_gathered_rows_equal_each_placement(self, spec):
        first = place_processes(spec, cfg(1, 5, 8, 1))
        second = place_processes(spec, cfg(1, 1, 6, 2))
        table = placement_module.RankTable.gather([first, second], [1, 0, 1])
        assert np.array_equal(table.table, np.stack([second.table, first.table, second.table]))
        rates, overhead = rank_rates(table, [400, 999, 12000])
        for row, (placement, n) in enumerate([(second, 400), (first, 999), (second, 12000)]):
            alone, own = rank_rates(placement, [n])
            assert rates[row].tolist() == alone[0].tolist()
            assert overhead[row].tolist() == own.tolist()
