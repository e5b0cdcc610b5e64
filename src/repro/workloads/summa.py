"""SUMMA-style matrix multiplication as a workload family.

The paper closes with "this study examined one specific application (HPL),
but other parallel applications should be also examined".  This family
is one: ``C = A @ B`` by the SUMMA algorithm on the same ``1 x P``
column-block-cyclic layout — each step broadcasts one ``N x nb`` panel of
``A`` along the process ring and every process multiplies it into its
local columns of ``B``/``C``.

SUMMA reuses everything HPL-shaped: the walker's
:class:`~repro.hpl.schedule.ScheduleResult`, HPL's phase vector and so
its per-kind ``Ta``/``Tc`` decomposition (``update`` + ``bcast``; SUMMA
has no pivoting, swaps or back-substitution), and the paper's campaign
plans.  :class:`SummaWorkload` subclasses
:class:`~repro.workloads.hpl.HPLWorkload` and only swaps the simulator,
the memory model and the flop count; a run is the shared
:class:`~repro.runs.WorkloadResult` with Gflops charged against
:func:`summa_flops`.  It is the one family whose runs page on the
paper's cluster: three resident matrices overflow a single Pentium-II at
N = 6400, which is what the memory guard
(:mod:`repro.core.memory_guard`) exists to catch.

Determinism matches HPL: one ``(seed, "summa-run", config, N, trial)``
stream fully determines a measurement, and the scalar runner is the
batch runner applied to one size.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.placement import place_processes
from repro.cluster.spec import ClusterSpec
from repro.errors import SimulationError
from repro.hpl.driver import NoiseSpec
from repro.hpl.memory import config_memory_ratio, node_slowdowns
from repro.hpl.schedule import HPLParameters, ScheduleResult, _noise_or_ones
from repro.hpl.timing import PHASE_NAMES
from repro.runs import RunGroup, WorkloadResult, noise_grid, normalize_groups
from repro.simnet.collectives import ring_delivery_times
from repro.simnet.transport import LinkKind, Transport
from repro.workloads.base import register_workload
from repro.workloads.hpl import HPLWorkload


def summa_flops(n: int) -> float:
    """Flops of a dense ``n x n`` matrix multiplication."""
    if n < 0:
        raise SimulationError(f"negative order {n}")
    return 2.0 * float(n) ** 3


def simulate_summa(
    spec: ClusterSpec,
    config: ClusterConfig,
    n: int,
    params: Optional[HPLParameters] = None,
    compute_noise: Optional[np.ndarray] = None,
    comm_noise: Optional[np.ndarray] = None,
) -> ScheduleResult:
    """Panel-by-panel SUMMA walk over a placed process set.

    Memory: SUMMA keeps three matrices resident (A, B, C), so the paging
    model sees 3x the per-process footprint of HPL.
    """
    if n < 1:
        raise SimulationError(f"matrix order must be >= 1, got {n}")
    params = params if params is not None else HPLParameters()
    slots = place_processes(spec, config)
    p = len(slots)
    transport = Transport(spec, slots)
    f_comp = _noise_or_ones(compute_noise, (p,), "compute_noise")
    f_comm = _noise_or_ones(comm_noise, (p,), "comm_noise")

    # Three resident matrices: reuse the node paging model at 3x pressure
    # by simulating a 1.73x larger order (bytes scale with n^2).
    paging = node_slowdowns(
        spec, slots, int(n * np.sqrt(3.0)), nb=params.nb, slope=params.paging_slope
    )
    update_rate = np.empty(p)
    step_overhead = np.empty(p)
    for r, slot in enumerate(slots):
        kind, m = slot.kind, slot.co_resident
        update_rate[r] = kind.process_rate(n, m) / paging[r]
        step_overhead[r] = kind.step_overhead(m)

    co_res = np.array([slot.co_resident for slot in slots], dtype=float)
    edge_weight = np.array(
        [
            1.0 if kind is LinkKind.NETWORK else params.intranode_interference_weight
            for kind in transport.ring_link_kinds()
        ]
    )
    forward_slow = 1.0 + params.forward_interference * (co_res - 1.0) * edge_weight

    # Local column counts (block-cyclic; constant through the run — SUMMA
    # has no shrinking trailing matrix).
    nb = params.nb
    nblocks = (n + nb - 1) // nb
    counts = np.bincount(np.arange(nblocks) % p, minlength=p).astype(float) * nb
    counts[(nblocks - 1) % p] -= nblocks * nb - n
    ranks = np.arange(p)

    phase = {name: np.zeros(p) for name in PHASE_NAMES}
    wall = 0.0
    for k in range(nblocks):
        width = min(nb, n - k * nb)
        owner = k % p
        step = np.zeros(p)
        if p > 1:
            nbytes = float(n) * width * 8.0
            hops = transport.ring_hop_times(nbytes) * forward_slow
            delivery = ring_delivery_times(
                hops, root=owner, pipeline_factor=params.ring_pipeline_factor
            )
            non_owner = ranks != owner
            wait = delivery * f_comm
            send = hops[owner] * f_comm[owner]
            phase["bcast"][owner] += send
            phase["bcast"][non_owner] += wait[non_owner]
            step[owner] += send
            step[non_owner] = np.maximum(step[non_owner], wait[non_owner])
        t_update = (2.0 * n * width * counts) / update_rate * f_comp
        t_over = step_overhead * f_comp
        phase["update"] += t_update + t_over
        step += t_update + t_over
        wall += float(np.max(step))

    return ScheduleResult(
        n=n, params=params, slots=slots, phase_arrays=phase, wall_time_s=wall
    )


def run_summa_grid(
    spec: ClusterSpec,
    groups: Sequence[RunGroup],
    params: Optional[HPLParameters] = None,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
) -> List[List[WorkloadResult]]:
    """SUMMA's grid runner: every run of a grid in one call.

    :func:`~repro.hpl.driver.run_hpl_grid`-shaped: the whole grid's noise
    is seeded in one pass, then one walk per run, each with its own
    ``(seed, "summa-run", config, N, trial)`` noise row."""
    groups = normalize_groups(groups)
    rows = noise_grid("summa-run", groups, noise, seed)
    return [
        [
            simulate_summa(
                spec, config, n, params=params,
                compute_noise=None if compute is None else compute[i],
                comm_noise=None if comm is None else comm[i],
            ).to_result(spec.name, config, summa_flops(n))
            for i, n in enumerate(sizes)
        ]
        for (config, sizes, _), (compute, comm) in zip(groups, rows)
    ]


@register_workload("summa")
class SummaWorkload(HPLWorkload):
    """SUMMA matrix multiplication on HPL's phases and plans."""

    display = "SUMMA matrix multiplication"

    def batch_runner(self):
        return run_summa_grid

    def memory_ratio(self, spec, config, n, kind_name):
        # A, B and C resident: three HPL-sized matrices.
        return config_memory_ratio(spec, config, n, kind_name, footprint=3.0)

    def benchmark_flops(self, n: int) -> float:
        return summa_flops(n)
