"""Related-work baseline: heterogeneous (speed-weighted) distribution.

The paper positions itself against approaches that *rewrite* the
application to distribute work in proportion to PE speed — Kalinov &
Lastovetsky's heterogeneous block distribution, Beaumont et al.'s 2-D
heterogeneous grids ([7], [1] in the paper).  Its critique: those schemes
(a) require modifying each application and (b) "use all PEs but lack a
viewpoint from which to select the best set of processors".

To make that comparison runnable, this module implements the baseline:
**HBC** — one process per PE, columns dealt to processes in proportion to
their measured speed (a deficit-round-robin over blocks, the 1-D analog
of the heterogeneous block-cyclic distribution).  The same panel-by-panel
walker prices it, with per-step work shares following the weighted
ownership instead of the uniform one.

What the comparison shows (``benchmarks/bench_baseline_hbc.py``): at
small N the paper's method wins outright *because it can leave slow PEs
out* — HBC by construction cannot express "don't use that PE" and the
communication cost of nine ring members sinks it.  At large N the
rewritten application wins by ~15-20%: a true weighted distribution
needs no oversubscription, so it never pays the multiprocessing tax.
That is precisely the trade the paper claims for itself ("our method
does not aim to extract the maximum performance from a heterogeneous
cluster, but rather to offer an easy and simple way to accelerate a wide
range of conventional parallel applications" — Section 1), now with
numbers attached.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.placement import place_processes
from repro.cluster.spec import ClusterSpec
from repro.errors import SimulationError
from repro.hpl import flops
from repro.hpl.driver import NoiseSpec
from repro.hpl.memory import node_slowdowns
from repro.hpl.schedule import HPLParameters, ScheduleResult, _noise_or_ones
from repro.hpl.timing import PHASE_NAMES
from repro.runs import WorkloadResult, noise_grid
from repro.simnet.collectives import ring_delivery_times
from repro.simnet.transport import LinkKind, Transport


def weighted_owner_sequence(nblocks: int, weights: Sequence[float]) -> np.ndarray:
    """Deal ``nblocks`` column blocks to processes in proportion to
    ``weights`` (deficit round-robin: each block goes to the process whose
    assigned share lags its weight the most; ties to the lowest rank).

    With equal weights this reduces to plain block-cyclic round-robin
    (property-tested).
    """
    w = np.asarray(weights, dtype=float)
    if nblocks < 0:
        raise SimulationError(f"negative block count {nblocks}")
    if w.ndim != 1 or w.size == 0:
        raise SimulationError("need a non-empty weight vector")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise SimulationError("weights must be positive and finite")
    share = w / w.sum()
    assigned = np.zeros(w.size)
    owners = np.empty(nblocks, dtype=np.int64)
    for j in range(nblocks):
        deficit = share * (j + 1) - assigned
        owner = int(np.argmax(deficit))
        owners[j] = owner
        assigned[owner] += 1.0
    return owners


def simulate_hbc(
    spec: ClusterSpec,
    config: ClusterConfig,
    n: int,
    params: Optional[HPLParameters] = None,
    weights: Optional[Sequence[float]] = None,
    compute_noise: Optional[np.ndarray] = None,
    comm_noise: Optional[np.ndarray] = None,
) -> ScheduleResult:
    """Price an HBC run: same panel schedule, speed-weighted ownership.

    ``weights`` defaults to each process's sustained rate (kind peak x
    efficiency — what a rewritten application would be tuned with).  The
    intended configuration is one process per PE ("use all PEs"), but any
    placement works.
    """
    if n < 1:
        raise SimulationError(f"matrix order must be >= 1, got {n}")
    params = params if params is not None else HPLParameters()
    slots = place_processes(spec, config)
    p = len(slots)
    transport = Transport(spec, slots)
    f_comp = _noise_or_ones(compute_noise, (p,), "compute_noise")
    f_comm = _noise_or_ones(comm_noise, (p,), "comm_noise")

    paging = node_slowdowns(spec, slots, n, nb=params.nb, slope=params.paging_slope)
    update_rate = np.empty(p)
    pfact_rate = np.empty(p)
    laswp_rate = np.empty(p)
    step_overhead = np.empty(p)
    for r, slot in enumerate(slots):
        kind, m = slot.kind, slot.co_resident
        update_rate[r] = kind.process_rate(n, m) / paging[r]
        pfact_rate[r] = kind.process_rate(n, m) * params.pfact_efficiency / paging[r]
        laswp_rate[r] = kind.mem_copy_rate() / m / paging[r]
        step_overhead[r] = kind.step_overhead(m)

    if weights is None:
        weights = update_rate
    co_res = np.array([slot.co_resident for slot in slots], dtype=float)
    ring_kinds = transport.ring_link_kinds()
    edge_weight = np.array(
        [
            1.0 if kind is LinkKind.NETWORK else params.intranode_interference_weight
            for kind in ring_kinds
        ]
    )
    forward_slow = 1.0 + params.forward_interference * (co_res - 1.0) * edge_weight
    hop_handoff = np.where(
        np.array([k is LinkKind.SAME_CPU for k in ring_kinds]),
        params.same_cpu_handoff_s * (co_res - 1.0),
        0.0,
    )

    nb = params.nb
    nblocks = (n + nb - 1) // nb
    last_block_cols = n - (nblocks - 1) * nb
    owners = weighted_owner_sequence(nblocks, weights)
    ranks = np.arange(p)

    phase = {name: np.zeros(p) for name in PHASE_NAMES}
    wall = 0.0
    for k in range(nblocks):
        j0 = k * nb
        width = min(nb, n - j0)
        m_rows = n - j0
        owner = int(owners[k])

        if k + 1 < nblocks:
            trailing = owners[k + 1 :]
            counts = np.bincount(trailing, minlength=p).astype(float)
            q = counts * nb
            q[owners[nblocks - 1]] -= nb - last_block_cols
        else:
            q = np.zeros(p)

        t_pfact = (
            flops.pfact_flops(m_rows, width) / pfact_rate[owner] * f_comp[owner]
        )
        t_mxswp = width * params.mxswp_per_column_s * f_comm[owner]
        step = np.zeros(p)
        phase["pfact"][owner] += t_pfact
        phase["mxswp"][owner] += t_mxswp
        step[owner] += t_pfact + t_mxswp

        if p > 1:
            nbytes = flops.panel_bytes(m_rows, width)
            hops = transport.ring_hop_times(nbytes) * forward_slow + hop_handoff
            delivery = ring_delivery_times(
                hops, root=owner, pipeline_factor=params.ring_pipeline_factor
            )
            head_wait = (t_pfact + t_mxswp) * params.pfact_wait_factor
            non_owner = ranks != owner
            bcast_wait = np.where(non_owner, head_wait + delivery, 0.0) * f_comm
            send_cost = hops[owner] * f_comm[owner]
            phase["bcast"][owner] += send_cost
            phase["bcast"][non_owner] += bcast_wait[non_owner]
            step[owner] += send_cost
            step[non_owner] = np.maximum(step[non_owner], bcast_wait[non_owner])

        t_laswp = flops.laswp_bytes(width, q) / laswp_rate * f_comm
        t_update = np.array(
            [flops.update_flops(m_rows, width, int(qq)) for qq in q]
        ) / update_rate * f_comp
        t_over = step_overhead * f_comp
        phase["laswp"] += t_laswp
        phase["update"] += t_update + t_over
        step += t_laswp + t_update + t_over
        wall += float(np.max(step))

    t_uptrsv = (
        flops.solve_flops(n) / p / update_rate + params.uptrsv_latency_s * p
    ) * f_comp
    phase["uptrsv"] += t_uptrsv
    wall += float(np.max(t_uptrsv))

    return ScheduleResult(
        n=n, params=params, slots=slots, phase_arrays=phase, wall_time_s=wall
    )


def run_hbc(
    spec: ClusterSpec,
    config: ClusterConfig,
    n: int,
    params: Optional[HPLParameters] = None,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    trial: int = 0,
) -> WorkloadResult:
    """Driver-shaped wrapper (same signature as :func:`run_hpl`)."""
    [(compute_rows, comm_rows)] = noise_grid("hbc-run", [(config, [n], [trial])], noise, seed)
    schedule = simulate_hbc(
        spec, config, n, params=params,
        compute_noise=None if compute_rows is None else compute_rows[0],
        comm_noise=None if comm_rows is None else comm_rows[0],
    )
    return schedule.to_result(spec.name, config)
