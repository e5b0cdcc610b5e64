"""Heterogeneous parallel sample-sort (after Cérin et al., cs/0607041).

The second workload family: sort ``N`` thousand 64-bit keys spread evenly
over ``P`` heterogeneous processes.  The algorithm is the classic
four-phase sample-sort, made heterogeneity-aware the way Cérin et al.
partition data — splitters are chosen so that each process receives a key
share *proportional to its measured speed*, not ``1/P``:

1. ``partition`` (compute): sample, agree on ``P - 1`` splitters, and
   bucket-classify the local keys (one binary search per key).
2. ``scatter`` (communication): all-to-all — every process ships each
   bucket to its owner; message sizes follow the speed-proportional
   shares, and link costs follow placement (intranode vs network).
3. ``local_sort`` (compute): sort the received keys, ``O(k log k)``.
4. ``merge`` (compute): merge the ``P`` sorted runs received.

Each phase ends at a barrier (bulk-synchronous), so per-run wall time is
the sum of per-phase maxima.  Execution time is driven by *data volume*:
compute phases scale like ``N log N`` and the scatter like ``N`` bytes,
giving the family an N-T structure genuinely different from HPL's
``N^3`` — which is exactly what the generalization claim needs to cover.

Determinism matches HPL: one ``(seed, "sorting-run", config, N, trial)``
stream fully determines a measurement, the scalar runner is the batch
runner applied to one size (bit-identical by construction), and
:func:`simulate_sorting_reference` is the straight-line scalar
re-implementation the vectorized kernel is tested and benchmarked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.placement import place_processes, rank_rates
from repro.cluster.spec import ClusterSpec
from repro.errors import SimulationError
from repro.measure.grids import (
    CampaignPlan,
    PAPER_KINDS,
    construction_configs,
    evaluation_configs,
)
from repro.runs import (
    PhaseVector,
    RunGroup,
    WorkloadResult,
    left_fold,
    noise_grid,
    normalize_groups,
    register_phases,
)
from repro.workloads.base import Workload, register_workload

#: Problem "order" N counts kilo-keys; 64-bit keys.
KEYS_PER_UNIT = 1000.0
KEY_BYTES = 8.0
#: Flop-equivalents per key: bucket classification per splitter level,
#: comparison sort, and P-way merge per level.
PARTITION_OPS = 6.0
SORT_OPS = 14.0
MERGE_OPS = 4.0

SORTING_CONSTRUCTION_SIZES = (500, 750, 1000, 1500, 2000, 3000, 4000, 6000, 8000)
SORTING_EVALUATION_SIZES = (4000, 6000, 8000, 10000, 12000)
SORTING_NL_CONSTRUCTION_SIZES = (2000, 4000, 6000, 8000)
SORTING_NS_CONSTRUCTION_SIZES = (500, 1000, 1500, 2000)
SORTING_NL_NS_EVALUATION_SIZES = (2000, 4000, 6000, 8000, 10000, 12000)


@register_phases
@dataclass(frozen=True)
class SortingPhases(PhaseVector):
    """Per-process phase breakdown of one sample-sort run."""

    partition: float
    scatter: float
    local_sort: float
    merge: float

    PHASE_NAMES = ("partition", "scatter", "local_sort", "merge")
    COMPUTE_PHASES = ("partition", "local_sort", "merge")
    COMM_PHASES = ("scatter",)


def sorting_benchmark_flops(n: int) -> float:
    """Nominal operation count reported as 'Gflops': comparisons of an
    ideal ``N log N`` sort of the full key set."""
    if n < 1:
        raise SimulationError(f"problem order must be >= 1, got {n}")
    keys = float(n) * KEYS_PER_UNIT
    return keys * np.log2(keys) * SORT_OPS


def simulate_sorting_batch(
    spec: ClusterSpec,
    config: ClusterConfig,
    sizes: Sequence[int],
    compute_noise: Optional[np.ndarray] = None,
    comm_noise: Optional[np.ndarray] = None,
) -> List[WorkloadResult]:
    """Vectorized sample-sort walk: all sizes of one config in one shot.

    ``compute_noise`` / ``comm_noise`` are ``(S, P)`` per-run factor rows
    (or ``None`` for bit-exact determinism), exactly as the HPL batched
    walker takes them.
    """
    ns = [int(n) for n in sizes]
    if any(n < 1 for n in ns):
        raise SimulationError(f"problem orders must be >= 1, got {ns}")
    slots = place_processes(spec, config)
    p = len(slots)
    node = np.array([slot.node_index for slot in slots])
    s_arr = np.asarray(ns, dtype=float)
    keys_total = s_arr * KEYS_PER_UNIT  # (S,)

    f_comp = np.ones((len(ns), p)) if compute_noise is None else np.asarray(compute_noise)
    f_comm = np.ones((len(ns), p)) if comm_noise is None else np.asarray(comm_noise)

    rate, overhead = rank_rates(slots, s_arr)  # (S, P), (P,)
    share = rate / rate.sum(axis=1, keepdims=True)  # speed-proportional
    local0 = keys_total[:, None] / p  # even initial distribution
    recv = keys_total[:, None] * share  # keys owned after scatter

    log_p = np.log2(p) if p > 1 else 0.0

    # partition: sample + one binary search per initially-held key.
    t_partition = (
        local0 * PARTITION_OPS * (1.0 + log_p) / rate + overhead[None, :]
    ) * f_comp

    # scatter: all-to-all; the message to destination d carries d's share
    # of the sender's keys, over the placement's intranode/network links.
    if p > 1:
        dest_bytes = local0 * share * KEY_BYTES  # (S, P): bytes to dest d
        msg_net = np.asarray(spec.network.message_time(dest_bytes), dtype=float)
        msg_intra = np.asarray(spec.intranode.message_time(dest_bytes), dtype=float)
        same_node = node[:, None] == node[None, :]
        off_diag = ~np.eye(p, dtype=bool)
        # Sender r pays each destination's link cost over (S, r, d) grids
        # folded left to right over d (not a matmul or ``sum``, whose
        # order depends on the batch's memory layout), so a run gets the
        # same bits alone or in any batch.  Other links add exact zeros.
        net = np.where(~same_node, msg_net[:, None, :], 0.0)
        intra = np.where(same_node & off_diag, msg_intra[:, None, :], 0.0)
        t_scatter = (left_fold(net) + left_fold(intra)) * f_comm
    else:
        t_scatter = np.zeros((len(ns), p))

    # local sort of the received keys: O(k log k).
    t_local_sort = (
        recv * SORT_OPS * np.log2(np.maximum(recv, 2.0)) / rate
    ) * f_comp

    # merge the P sorted runs: one comparison level per doubling.
    t_merge = (recv * MERGE_OPS * log_p / rate + overhead[None, :]) * f_comp

    # Bulk-synchronous: a barrier after every phase.
    wall = (
        t_partition.max(axis=1)
        + t_scatter.max(axis=1)
        + t_local_sort.max(axis=1)
        + t_merge.max(axis=1)
    )

    phases = {"partition": t_partition, "scatter": t_scatter,
              "local_sort": t_local_sort, "merge": t_merge}
    return WorkloadResult.rows(
        spec.name, config, ns, wall, phases, [slot.kind.name for slot in slots],
        SortingPhases, sorting_benchmark_flops,
    )


def simulate_sorting_reference(
    spec: ClusterSpec,
    config: ClusterConfig,
    n: int,
    compute_noise: Optional[np.ndarray] = None,
    comm_noise: Optional[np.ndarray] = None,
) -> WorkloadResult:
    """Straight-line scalar sample-sort walk (tests + benchmark baseline).

    Computes the same quantities as :func:`simulate_sorting_batch` with
    plain Python loops over ranks; the batch kernel is asserted allclose
    against this and benchmarked (>= 5x) against it.
    """
    if n < 1:
        raise SimulationError(f"problem order must be >= 1, got {n}")
    slots = place_processes(spec, config)
    p = len(slots)
    f_comp = [1.0] * p if compute_noise is None else [float(v) for v in compute_noise]
    f_comm = [1.0] * p if comm_noise is None else [float(v) for v in comm_noise]

    keys_total = float(n) * KEYS_PER_UNIT
    rates = [slot.kind.process_rate(n, slot.co_resident) for slot in slots]
    total_rate = sum(rates)
    share = [r / total_rate for r in rates]
    local0 = keys_total / p
    log_p = float(np.log2(p)) if p > 1 else 0.0

    partition, scatter, local_sort, merge = [], [], [], []
    for r, slot in enumerate(slots):
        overhead = slot.kind.step_overhead(slot.co_resident)
        partition.append(
            (local0 * PARTITION_OPS * (1.0 + log_p) / rates[r] + overhead) * f_comp[r]
        )
        t_sc = 0.0
        for d in range(p):
            if d == r:
                continue
            nbytes = local0 * share[d] * KEY_BYTES
            if slots[r].same_node(slots[d]):
                t_sc += float(spec.intranode.message_time(nbytes))
            else:
                t_sc += float(spec.network.message_time(nbytes))
        scatter.append(t_sc * f_comm[r])
        recv = keys_total * share[r]
        local_sort.append(
            recv * SORT_OPS * float(np.log2(max(recv, 2.0))) / rates[r] * f_comp[r]
        )
        merge.append((recv * MERGE_OPS * log_p / rates[r] + overhead) * f_comp[r])

    wall = max(partition) + max(scatter) + max(local_sort) + max(merge)
    return WorkloadResult(
        spec_name=spec.name,
        config=config,
        n=int(n),
        wall_time_s=wall,
        phase_arrays={
            "partition": np.array(partition),
            "scatter": np.array(scatter),
            "local_sort": np.array(local_sort),
            "merge": np.array(merge),
        },
        rank_kinds=[slot.kind.name for slot in slots],
        phase_class=SortingPhases,
        benchmark_flops=sorting_benchmark_flops(int(n)),
    )


def run_sorting_grid(
    spec: ClusterSpec,
    groups: Sequence[RunGroup],
    params=None,
    noise=None,
    seed: int = 0,
) -> List[List[WorkloadResult]]:
    """Sorting's grid runner: every run of a grid in one call.

    :func:`~repro.hpl.driver.run_hpl_grid`-shaped: the whole grid's noise
    is seeded in one pass, then one walk per configuration.

    ``params`` is accepted for signature compatibility and ignored — the
    family has no HPL-style tuning block.
    """
    groups = normalize_groups(groups)
    rows = noise_grid("sorting-run", groups, noise, seed)
    return [
        simulate_sorting_batch(spec, config, sizes, compute_noise=compute, comm_noise=comm)
        for (config, sizes, _), (compute, comm) in zip(groups, rows)
    ]


def _sorting_plan(
    name: str,
    construction_sizes,
    evaluation_sizes,
    pentium2_pes=tuple(range(1, 9)),
) -> CampaignPlan:
    return CampaignPlan(
        name=name,
        kinds=PAPER_KINDS,
        construction_sizes=construction_sizes,
        construction_configs=tuple(construction_configs(pentium2_pes=pentium2_pes)),
        evaluation_sizes=evaluation_sizes,
        evaluation_configs=tuple(evaluation_configs()),
    )


@register_workload("sorting")
class SortingWorkload(Workload):
    """Heterogeneous parallel sample-sort."""

    display = "heterogeneous parallel sample-sort"
    phase_class = SortingPhases

    def batch_runner(self):
        return run_sorting_grid

    def plan(self, protocol: str) -> CampaignPlan:
        if protocol == "basic":
            return _sorting_plan(
                "basic", SORTING_CONSTRUCTION_SIZES, SORTING_EVALUATION_SIZES
            )
        if protocol == "nl":
            return _sorting_plan(
                "nl",
                SORTING_NL_CONSTRUCTION_SIZES,
                SORTING_NL_NS_EVALUATION_SIZES,
                pentium2_pes=(1, 2, 4, 8),
            )
        if protocol == "ns":
            return _sorting_plan(
                "ns",
                SORTING_NS_CONSTRUCTION_SIZES,
                SORTING_NL_NS_EVALUATION_SIZES,
                pentium2_pes=(1, 2, 4, 8),
            )
        raise SimulationError(
            f"unknown protocol {protocol!r} for sorting; have ['basic', 'nl', 'ns']"
        )

    def memory_ratio(self, spec, config, n, kind_name):
        """Worst-node pressure of the key buffers (keys + receive buffer)."""
        alloc = config.allocation(kind_name)
        nodes = spec.nodes_of_kind(kind_name)
        if alloc.pe_count == 0 or not nodes:
            return 0.0
        per_process = float(n) * KEYS_PER_UNIT * KEY_BYTES * 2.0 / config.total_processes
        worst = 0.0
        remaining = alloc.pe_count
        for node in nodes:
            used_cpus = min(node.cpus, remaining)
            if used_cpus <= 0:
                break
            remaining -= used_cpus
            procs_on_node = used_cpus * alloc.procs_per_pe
            worst = max(worst, per_process * procs_on_node / node.usable_memory_bytes)
        return worst

    def benchmark_flops(self, n: int) -> float:
        return sorting_benchmark_flops(n)
