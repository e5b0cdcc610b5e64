"""Process placement: map MPI ranks onto physical processors.

Mirrors how a machinefile drives MPICH: hosts are listed in cluster order
and each host is repeated once per process it should run, so ranks are
assigned *contiguously per processor*, processors are filled node by node,
and kinds appear in configuration order.  For the paper's cluster this makes
rank 0..M1-1 the Athlon processes followed by the Pentium-II processes —
which also fixes the hop structure of HPL's ring broadcast (consecutive
ranks on the same node talk over shared memory; node boundaries cross the
network).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.pe import PEKind
from repro.cluster.spec import ClusterSpec
from repro.errors import ConfigurationError
from repro.units import GFLOPS


@dataclass(frozen=True)
class ProcessSlot:
    """Where one MPI rank lives.

    Attributes
    ----------
    rank:
        MPI rank in the 1-by-P process grid.
    kind:
        Processor family of the hosting CPU.
    node_index:
        Index of the hosting node within the :class:`ClusterSpec`.
    node_name:
        Name of the hosting node (stable across spec edits).
    cpu_index:
        CPU slot within the node.
    co_resident:
        Total processes sharing this CPU (the kind's ``Mi``).
    """

    rank: int
    kind: PEKind
    node_index: int
    node_name: str
    cpu_index: int
    co_resident: int

    def same_cpu(self, other: "ProcessSlot") -> bool:
        return (
            self.node_index == other.node_index and self.cpu_index == other.cpu_index
        )

    def same_node(self, other: "ProcessSlot") -> bool:
        return self.node_index == other.node_index


def place_processes(spec: ClusterSpec, config: ClusterConfig) -> List[ProcessSlot]:
    """Assign every rank of ``config`` to a CPU of ``spec``.

    Raises :class:`ConfigurationError` if the configuration does not fit.
    Placement is deterministic: kinds in configuration order, nodes in
    cluster order, CPUs in index order, ranks contiguous per CPU.
    """
    config.validate_against(spec)

    slots: List[ProcessSlot] = []
    rank = 0
    for alloc in config.active:
        # Collect the CPUs of this kind in deterministic order.
        cpus: List[Tuple[int, str, int]] = []  # (node_index, node_name, cpu_index)
        for node_index, node in enumerate(spec.nodes):
            if node.kind.name != alloc.kind_name:
                continue
            for cpu_index in range(node.cpus):
                cpus.append((node_index, node.name, cpu_index))
        if len(cpus) < alloc.pe_count:
            raise ConfigurationError(
                f"{alloc.kind_name}: need {alloc.pe_count} CPUs, found {len(cpus)}"
            )
        kind = spec.kind(alloc.kind_name)
        for node_index, node_name, cpu_index in cpus[: alloc.pe_count]:
            for _ in range(alloc.procs_per_pe):
                slots.append(
                    ProcessSlot(
                        rank=rank,
                        kind=kind,
                        node_index=node_index,
                        node_name=node_name,
                        cpu_index=cpu_index,
                        co_resident=alloc.procs_per_pe,
                    )
                )
                rank += 1

    if rank != config.total_processes:
        raise AssertionError(
            f"placement produced {rank} ranks for P={config.total_processes}"
        )
    return slots


def rank_rates(
    slots: Sequence[ProcessSlot], sizes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-(size, rank) process rates in flops/s and per-rank step overheads.

    This is the production walkers' rate model.  The rates take
    :meth:`PEKind.process_rate`'s operations in its order (efficiency
    ramp, oversubscription factor, per-process share) over a
    ``(len(sizes), P)`` grid, so every entry equals the scalar method's.
    """
    peak, ramp, floor, procs, oversub, overhead = np.array([
        (s.kind.peak_gflops, s.kind.ramp_n, s.kind.efficiency_floor, s.co_resident,
         s.kind.oversub_factor(s.co_resident), s.kind.step_overhead(s.co_resident))
        for s in slots
    ], dtype=float).T
    eff = np.clip(np.asarray(sizes, dtype=float)[:, None] / ramp, floor, 1.0)
    return peak * GFLOPS * eff * oversub / procs, overhead


def ring_neighbors(slots: List[ProcessSlot]) -> List[Tuple[ProcessSlot, ProcessSlot]]:
    """Consecutive (sender, receiver) pairs of the rank ring, wrapping around.

    HPL's increasing-ring broadcast walks exactly these edges; the link type
    of each edge (same CPU / same node / network) determines its cost.
    """
    n = len(slots)
    if n == 0:
        return []
    return [(slots[i], slots[(i + 1) % n]) for i in range(n)]
