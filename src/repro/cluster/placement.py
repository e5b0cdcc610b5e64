"""Process placement: map MPI ranks onto physical processors.

Mirrors how a machinefile drives MPICH: hosts are listed in cluster order
and each host is repeated once per process it should run, so ranks are
assigned *contiguously per processor*, processors are filled node by node,
and kinds appear in configuration order.  For the paper's cluster this makes
rank 0..M1-1 the Athlon processes followed by the Pentium-II processes —
which also fixes the hop structure of HPL's ring broadcast (consecutive
ranks on the same node talk over shared memory; node boundaries cross the
network).

A configuration is placed once per spec: :func:`place_processes` keeps
each :class:`Placement` in a bounded memo on the spec, together with the
per-rank columns the walkers read (rates, node memory, ring link
classes), so repeated simulations of a configuration build none of them
again.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

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


def _column(index: int, doc: str) -> property:
    return property(lambda self: self.table[..., index, :], doc=doc)


class RankTable:
    """Per-rank columns of placed processes: one ``(..., F, P)`` float table.

    A :class:`Placement` is the ``(F, P)`` case; a walker pass gathers the
    tables of its rows' placements into one ``(R, F, P)`` table
    (:meth:`gather`).  Each column is a ``(..., P)`` view, computed with
    the scalar model's operations (so the walkers' arrays equal the
    per-slot values bitwise); the two edge columns hold 1.0 where the
    ring edge ``rank -> rank+1 (mod P)`` is of that class, else 0.0.
    """

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray) -> None:
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    peak_flops = _column(0, "The kind's peak rate in flops/s.")
    ramp = _column(1, "The kind's efficiency-ramp order.")
    floor = _column(2, "The kind's efficiency floor.")
    procs = _column(3, "Processes sharing the rank's CPU (its ``co_resident``).")
    oversub = _column(4, "The kind's oversubscription factor at ``procs``.")
    overhead = _column(5, "The kind's per-step overhead at ``procs``.")
    mem_rate = _column(6, "Memory-copy rate of one process (the CPU's over ``procs``).")
    node = _column(7, "Index of the hosting node.")
    node_procs = _column(8, "Processes on the hosting node.")
    usable_bytes = _column(9, "Usable memory of the hosting node.")
    network_edge = _column(10, "1.0 where the rank's ring edge crosses the network.")
    same_cpu_edge = _column(11, "1.0 where the rank's ring edge stays on one CPU.")

    @classmethod
    def gather(cls, tables: Sequence["RankTable"], rows) -> "RankTable":
        """The ``(R, F, P)`` table whose row ``i`` is ``tables[rows[i]]``'s
        (every table of one process count)."""
        return cls(np.stack([t.table for t in tables])[rows])


class Placement(RankTable, SequenceABC):
    """A configuration placed on a spec, as an immutable rank sequence.

    Its items are the :class:`ProcessSlot` of each rank, in rank order;
    it is also the placement's ``(F, P)`` :class:`RankTable`
    (read-only), and ``rank_kinds`` names each rank's kind."""

    __slots__ = ("slots", "rank_kinds")

    def __init__(self, slots: Sequence[ProcessSlot], table: np.ndarray) -> None:
        table.flags.writeable = False
        super().__init__(table)
        object.__setattr__(self, "slots", tuple(slots))
        object.__setattr__(self, "rank_kinds", tuple(s.kind.name for s in self.slots))

    def __len__(self) -> int:
        return len(self.slots)

    def __getitem__(self, index):
        return self.slots[index]

    def __iter__(self) -> Iterator[ProcessSlot]:
        return iter(self.slots)

    def __eq__(self, other) -> bool:
        return isinstance(other, Placement) and self.slots == other.slots

    def __reduce__(self):
        return Placement, (self.slots, np.array(self.table))


#: Placements memoized per spec (least recently used evicted first).  The
#: paper's Basic, NL and NS grids of every family place 102 distinct
#: configurations on its cluster.
_PLACEMENTS_PER_SPEC = 256
_memo_lock = threading.Lock()


def place_processes(spec: ClusterSpec, config: ClusterConfig) -> Placement:
    """Assign every rank of ``config`` to a CPU of ``spec``.

    Raises :class:`ConfigurationError` if the configuration does not fit.
    Placement is deterministic: kinds in configuration order, nodes in
    cluster order, CPUs in index order, ranks contiguous per CPU.

    The placement is computed once per ``(spec, config.key())`` and kept
    in the spec's own memo (so an equal configuration on another spec
    never shares it), at most ``_PLACEMENTS_PER_SPEC`` per spec; a
    configuration that does not fit raises on every call and is never
    stored.  The returned placement is immutable.
    """
    key = config.key()
    memo = spec._placements
    with _memo_lock:
        placement = memo.get(key)
        if placement is not None:
            memo.move_to_end(key)
            return placement
    placement = _place(spec, config)
    with _memo_lock:
        memo[key] = placement
        while len(memo) > _PLACEMENTS_PER_SPEC:
            memo.popitem(last=False)
    return placement


def _place(spec: ClusterSpec, config: ClusterConfig) -> Placement:
    """The uncached placement and its rank table."""
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
    per_node = Counter(slot.node_index for slot in slots)
    table = np.array([
        (s.kind.peak_gflops * GFLOPS, s.kind.ramp_n, s.kind.efficiency_floor,
         s.co_resident, s.kind.oversub_factor(s.co_resident),
         s.kind.step_overhead(s.co_resident), s.kind.mem_copy_rate() / s.co_resident,
         s.node_index, per_node[s.node_index],
         spec.nodes[s.node_index].usable_memory_bytes,
         not s.same_node(t), s.same_cpu(t))
        for s, t in zip(slots, slots[1:] + slots[:1])
    ], dtype=float)
    return Placement(slots, np.ascontiguousarray(table.T))


def rank_rates(columns: RankTable, sizes) -> Tuple[np.ndarray, np.ndarray]:
    """Per-(size, rank) process rates in flops/s and per-rank step overheads.

    This is the production walkers' rate model, over a placement's columns
    (``(S, P)`` rates for ``S`` sizes) or a pass's gathered ones (one size
    per row, ``(R, P)`` rates).  The rates take
    :meth:`PEKind.process_rate`'s operations in its order (efficiency
    ramp, oversubscription factor, per-process share), so every entry
    equals the scalar method's.
    """
    eff = np.clip(
        np.asarray(sizes, dtype=float)[..., None] / columns.ramp, columns.floor, 1.0
    )
    return columns.peak_flops * eff * columns.oversub / columns.procs, columns.overhead


def ring_neighbors(slots: List[ProcessSlot]) -> List[Tuple[ProcessSlot, ProcessSlot]]:
    """Consecutive (sender, receiver) pairs of the rank ring, wrapping around.

    HPL's increasing-ring broadcast walks exactly these edges; the link type
    of each edge (same CPU / same node / network) determines its cost.
    """
    n = len(slots)
    if n == 0:
        return []
    return [(slots[i], slots[(i + 1) % n]) for i in range(n)]
