"""Memory-footprint model and the paging penalty.

HPL stores ``N^2`` doubles spread over the ``P`` processes (plus panel
workspace); a node hosting ``k`` processes therefore needs roughly
``k/P * N^2 * 8`` bytes.  When that exceeds the node's usable RAM the OS
pages, and throughput falls off a cliff — the paper's Figure 3(a) shows the
single 768 MB Athlon collapsing at N = 10000 (an 800 MB matrix), while five
Pentium-II nodes hold the same matrix comfortably.

Section 3.4 of the paper points out that because the requirement is
predictable from ``N`` and ``P``, the *model* can bin on it.  The binning
support in :mod:`repro.core.binning` consumes :func:`memory_ratio` for
exactly that purpose.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence, Union

import numpy as np

from repro.cluster.placement import ProcessSlot
from repro.cluster.spec import ClusterSpec
from repro.errors import SimulationError
from repro.units import DOUBLE


def process_bytes(n: int, p: int, nb: int = 80) -> float:
    """Bytes one process needs: its matrix share plus panel workspace."""
    if n < 0:
        raise SimulationError(f"negative order {n}")
    if p < 1:
        raise SimulationError(f"process count must be >= 1, got {p}")
    share = float(n) * n * DOUBLE / p
    workspace = float(n) * nb * DOUBLE * 2.0  # current + incoming panel
    return share + workspace


def node_required_bytes(
    n: int, total_processes: int, procs_on_node: int, nb: int = 80
) -> float:
    """Bytes required on one node hosting ``procs_on_node`` processes."""
    return process_bytes(n, total_processes, nb) * procs_on_node


def memory_ratio(
    n: int, total_processes: int, procs_on_node: int, usable_bytes: float, nb: int = 80
) -> float:
    """Required / usable memory on a node; values above 1 mean paging."""
    if usable_bytes <= 0:
        raise SimulationError("usable_bytes must be positive")
    return node_required_bytes(n, total_processes, procs_on_node, nb) / usable_bytes


def paging_slowdown(ratio: float, slope: float = 12.0) -> float:
    """Compute-throughput slowdown factor for a memory-pressure ratio.

    1.0 while the working set fits; grows linearly with the overflow
    fraction after that.  ``slope = 12`` calibrates the Athlon's drop from
    ~1.1 to ~0.5 Gflops at N = 10000 (ratio ~1.10).
    """
    if ratio < 0:
        raise SimulationError(f"negative memory ratio {ratio}")
    if slope < 0:
        raise SimulationError(f"negative paging slope {slope}")
    if ratio <= 1.0:
        return 1.0
    return 1.0 + slope * (ratio - 1.0)


def config_memory_ratio(
    spec: "object",
    config: "object",
    n: int,
    kind_name: str,
    nb: int = 80,
    footprint: float = 1.0,
) -> float:
    """Worst-node memory pressure of one kind under a run configuration.

    ``footprint`` scales the per-process working set for applications that
    keep more data resident than HPL's single matrix (SUMMA holds three:
    ``footprint = 3``).  Returns 0.0 for kinds that do not participate.

    This is the quantity the paper's Section 3.4 calls "predetermined from
    N and P": it gates memory binning without running anything.
    """
    alloc = config.allocation(kind_name)
    nodes = spec.nodes_of_kind(kind_name)
    if alloc.pe_count == 0 or not nodes:
        return 0.0
    if footprint <= 0:
        raise SimulationError("footprint must be positive")
    effective_n = int(round(n * footprint**0.5))
    worst = 0.0
    remaining = alloc.pe_count
    for node in nodes:
        used_cpus = min(node.cpus, remaining)
        if used_cpus <= 0:
            break
        remaining -= used_cpus
        procs_on_node = used_cpus * alloc.procs_per_pe
        worst = max(
            worst,
            memory_ratio(
                effective_n,
                config.total_processes,
                procs_on_node,
                node.usable_memory_bytes,
                nb,
            ),
        )
    return worst


def node_slowdowns(
    spec: ClusterSpec,
    slots: Sequence[ProcessSlot],
    n: Union[int, Sequence[int]],
    nb: int = 80,
    slope: float = 12.0,
) -> np.ndarray:
    """Per-*process* paging slowdown factors for a placement.

    Processes on the same node share its memory pressure.  ``n`` is one
    order (the result is indexed by rank) or an array of orders (one row
    per order); every entry takes :func:`memory_ratio`'s and
    :func:`paging_slowdown`'s operations in their order.
    """
    total = len(slots)
    if total == 0:
        raise SimulationError("empty placement")
    if slope < 0:
        raise SimulationError(f"negative paging slope {slope}")
    per_node = Counter(slot.node_index for slot in slots)
    procs = np.array([per_node[slot.node_index] for slot in slots], dtype=float)
    usable = np.array(
        [spec.nodes[slot.node_index].usable_memory_bytes for slot in slots], dtype=float
    )
    if np.any(usable <= 0):
        raise SimulationError("usable_bytes must be positive")
    order = np.asarray(n, dtype=float)[..., None]
    ratio = (order * order * DOUBLE / total + order * nb * DOUBLE * 2.0) * procs / usable
    return np.where(ratio <= 1.0, 1.0, 1.0 + slope * (ratio - 1.0))
