"""Unit tests for timing records and the memory model."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.placement import place_processes
from repro.cluster.presets import kishimoto_cluster
from repro.errors import SimulationError
from repro.hpl.memory import (
    memory_ratio,
    node_required_bytes,
    node_slowdowns,
    paging_slowdown,
    process_bytes,
)
from repro.hpl.timing import PHASE_NAMES, PhaseTimes
from repro.runs import WorkloadResult
from repro.units import DOUBLE, MB

KINDS = ("athlon", "pentium2")


def result_of(per_rank):
    """A run whose ranks carry the given ``(kind, PhaseTimes)`` records."""
    return WorkloadResult(
        spec_name="test",
        config=ClusterConfig.from_tuple(KINDS, (1, 1, 1, 1)),
        n=100,
        wall_time_s=1.0,
        phase_arrays={
            name: np.array([getattr(t, name) for _, t in per_rank])
            for name in PHASE_NAMES
        },
        rank_kinds=[kind for kind, _ in per_rank],
        phase_class=PhaseTimes,
        benchmark_flops=1.0,
    )


class TestPhaseTimes:
    def test_paper_groupings(self):
        t = PhaseTimes(pfact=1, mxswp=2, bcast=3, update=4, laswp=5, uptrsv=6)
        assert t.rfact == 3  # pfact + mxswp
        assert t.ta == 1 + 4 + 6
        assert t.tc == 2 + 5 + 3
        assert t.total == t.ta + t.tc == 21

    def test_total_identity_is_exact(self):
        t = PhaseTimes(pfact=0.1, mxswp=0.01, bcast=2.5, update=77.7, laswp=0.3, uptrsv=0.02)
        assert t.total == pytest.approx(sum(t.as_dict().values()))

    def test_addition_and_scaling(self):
        a = PhaseTimes(pfact=1, update=2)
        b = PhaseTimes(bcast=3, update=4)
        assert (a + b).update == 6
        assert (a + b).bcast == 3
        assert a.scaled(2.0).pfact == 2

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            PhaseTimes(pfact=-0.1)
        with pytest.raises(SimulationError):
            PhaseTimes(update=float("nan"))
        with pytest.raises(SimulationError):
            PhaseTimes().scaled(-1.0)

    def test_dict_roundtrip(self):
        t = PhaseTimes(pfact=1.5, bcast=2.25)
        assert PhaseTimes.from_dict(t.as_dict()) == t

    def test_from_dict_rejects_unknown_phase(self):
        with pytest.raises(SimulationError):
            PhaseTimes.from_dict({"warmup": 1.0})

    def test_from_arrays(self):
        arrays = {name: np.array([1.0, 2.0]) for name in PHASE_NAMES}
        t = PhaseTimes.from_arrays(arrays, 1)
        assert t.pfact == 2.0


class TestAggregation:
    """Per-kind aggregation of a run's per-process records."""

    def test_mean(self):
        result = result_of(
            [("athlon", PhaseTimes(update=2.0)), ("athlon", PhaseTimes(update=4.0))]
        )
        assert result.kind_phases("athlon").update == pytest.approx(3.0)

    def test_max_total_selects_bottleneck(self):
        slow = PhaseTimes(update=10.0)
        fast = PhaseTimes(update=1.0, bcast=2.0)
        result = result_of([("athlon", fast), ("pentium2", slow)])
        assert result.bottleneck_kind() == "pentium2"
        assert result.kind_phases("pentium2") == slow

    def test_empty_aggregation_rejected(self):
        result = result_of([("athlon", PhaseTimes(update=1.0))])
        with pytest.raises(SimulationError):
            result.kind_phases("pentium2")


class TestMemoryModel:
    def test_process_bytes_scales_inversely_with_p(self):
        assert process_bytes(8000, 8) < process_bytes(8000, 4)

    def test_matrix_share_dominates(self):
        n, p = 9600, 1
        assert process_bytes(n, p) == pytest.approx(n * n * DOUBLE, rel=0.05)

    def test_node_required_scales_with_procs(self):
        assert node_required_bytes(4800, 8, 2) == pytest.approx(
            2 * process_bytes(4800, 8)
        )

    def test_memory_ratio(self):
        usable = 720 * MB
        assert memory_ratio(1000, 1, 1, usable) < 0.1
        assert memory_ratio(10000, 1, 1, usable) > 1.0

    def test_paging_slowdown_piecewise(self):
        assert paging_slowdown(0.5) == 1.0
        assert paging_slowdown(1.0) == 1.0
        assert paging_slowdown(1.1, slope=10.0) == pytest.approx(2.0)

    def test_paging_validation(self):
        with pytest.raises(SimulationError):
            paging_slowdown(-0.1)
        with pytest.raises(SimulationError):
            paging_slowdown(1.0, slope=-1.0)
        with pytest.raises(SimulationError):
            memory_ratio(100, 1, 1, 0)
        with pytest.raises(SimulationError):
            process_bytes(100, 0)

    def test_athlon_pages_at_n10000_but_not_at_6400(self):
        """The cliff of the paper's Figure 3(a)."""
        spec = kishimoto_cluster()
        config = ClusterConfig.from_tuple(KINDS, (1, 1, 0, 0))
        slots = place_processes(spec, config)
        ok = node_slowdowns(spec, slots, 6400)
        paging = node_slowdowns(spec, slots, 10000)
        assert ok[0] == 1.0
        assert paging[0] > 1.3

    def test_five_pentium2_hold_n10000(self):
        """The same matrix spread over five nodes fits (Figure 3(a))."""
        spec = kishimoto_cluster()
        config = ClusterConfig.from_tuple(KINDS, (0, 0, 5, 1))
        slots = place_processes(spec, config)
        assert np.all(node_slowdowns(spec, slots, 10000) == 1.0)

    @pytest.mark.parametrize("values", [(1, 1, 0, 0), (1, 3, 8, 2), (0, 0, 2, 3)])
    def test_array_orders_equal_the_scalar_model(self, values):
        """An array of orders gives one row per order, each bitwise the
        per-node ``memory_ratio`` -> ``paging_slowdown`` chain."""
        spec = kishimoto_cluster()
        slots = place_processes(spec, ClusterConfig.from_tuple(KINDS, values))
        sizes = [400, 6400, 10000, 30000]
        rows = node_slowdowns(spec, slots, sizes, nb=64, slope=9.0)
        assert rows.shape == (len(sizes), len(slots))
        for n, row in zip(sizes, rows):
            expected = [
                paging_slowdown(memory_ratio(
                    n, len(slots), sum(s.node_index == slot.node_index for s in slots),
                    spec.nodes[slot.node_index].usable_memory_bytes, 64), 9.0)
                for slot in slots
            ]
            assert row.tolist() == expected
            assert np.array_equal(node_slowdowns(spec, slots, n, nb=64, slope=9.0), row)
        assert rows.max() > 1.0  # the paging branch is exercised
        with pytest.raises(SimulationError, match="negative paging slope"):
            node_slowdowns(spec, slots, sizes, slope=-1.0)
