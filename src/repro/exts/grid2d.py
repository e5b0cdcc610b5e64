"""Two-dimensional process grids (paper Section 3.1: "our scheme is
universally applicable to any other process grid").

The paper's experiments use a ``1 x P`` grid; real HPL runs on ``Pr x Q``.
This module provides:

* :class:`GridShape` and shape enumeration/selection helpers;
* :func:`simulate_schedule_2d` — the 2-D generalization of the schedule
  walker.  Relative to the 1-D walker, a ``Pr x Q`` grid changes the cost
  structure exactly the way ScaLAPACK folklore says it should:

  - panel factorization is cooperative across the ``Pr`` processes of the
    owning column and pays a per-column pivot all-reduce (``mxswp`` grows
    from O(1) to O(nb log Pr) messages per step);
  - the panel broadcast travels each process *row* (rings of ``Q``), with
    per-hop payload ``(m/Pr) * nb`` — total broadcast volume per process
    shrinks by ``Pr``;
  - row interchanges (``laswp``) become inter-process traffic within
    columns with probability ``(Pr-1)/Pr`` per swapped row.

  With ``Pr = 1`` every formula degenerates to the 1-D walker's (tested).

The estimation models consume the resulting per-kind Ta/Tc exactly as for
1-D runs — nothing in :mod:`repro.core` knows the grid shape, which is the
paper's universality claim in executable form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.placement import place_processes
from repro.cluster.spec import ClusterSpec
from repro.errors import SimulationError
from repro.hpl import flops
from repro.hpl.memory import node_slowdowns
from repro.hpl.schedule import HPLParameters, ScheduleResult, _noise_or_ones
from repro.hpl.timing import PHASE_NAMES
from repro.simnet.collectives import ring_delivery_times
from repro.simnet.transport import LinkKind, Transport


@dataclass(frozen=True)
class GridShape:
    """A ``Pr x Q`` process grid (``Pr * Q`` processes, column-major ranks
    as HPL assigns them)."""

    pr: int
    q: int

    def __post_init__(self) -> None:
        if self.pr < 1 or self.q < 1:
            raise SimulationError(f"invalid grid {self.pr}x{self.q}")

    @property
    def size(self) -> int:
        return self.pr * self.q

    def coords(self, rank: int) -> tuple[int, int]:
        """(row, column) of a rank, column-major."""
        if not (0 <= rank < self.size):
            raise SimulationError(f"rank {rank} outside grid {self.pr}x{self.q}")
        return rank % self.pr, rank // self.pr

    def rank_of(self, row: int, col: int) -> int:
        if not (0 <= row < self.pr and 0 <= col < self.q):
            raise SimulationError(f"({row},{col}) outside grid {self.pr}x{self.q}")
        return col * self.pr + row

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.pr}x{self.q}"


def grid_shapes(p: int) -> List[GridShape]:
    """All factorizations ``Pr x Q = p`` with ``Pr <= Q`` (HPL convention:
    flat-or-square grids, never tall)."""
    if p < 1:
        raise SimulationError(f"process count must be >= 1, got {p}")
    shapes = []
    for pr in range(1, int(math.isqrt(p)) + 1):
        if p % pr == 0:
            shapes.append(GridShape(pr, p // pr))
    return shapes


def near_square_shape(p: int) -> GridShape:
    """The most square ``Pr <= Q`` factorization of ``p``."""
    return grid_shapes(p)[-1]


def simulate_schedule_2d(
    spec: ClusterSpec,
    config: ClusterConfig,
    n: int,
    shape: Optional[GridShape] = None,
    params: Optional[HPLParameters] = None,
    compute_noise: Optional[np.ndarray] = None,
    comm_noise: Optional[np.ndarray] = None,
) -> ScheduleResult:
    """Simulate HPL of order ``n`` on a ``Pr x Q`` grid.

    ``shape`` defaults to ``1 x P``; its size must equal the configuration's
    total process count.
    """
    if n < 1:
        raise SimulationError(f"matrix order must be >= 1, got {n}")
    params = params if params is not None else HPLParameters()
    slots = place_processes(spec, config)
    p = len(slots)
    shape = shape if shape is not None else GridShape(1, p)
    if shape.size != p:
        raise SimulationError(
            f"grid {shape} has {shape.size} slots for P={p} processes"
        )
    transport = Transport(spec, slots)
    f_comp = _noise_or_ones(compute_noise, (p,), "compute_noise")
    f_comm = _noise_or_ones(comm_noise, (p,), "comm_noise")

    paging = node_slowdowns(slots, n, nb=params.nb, slope=params.paging_slope)
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

    co_res = np.array([slot.co_resident for slot in slots], dtype=float)
    rows = np.array([shape.coords(r)[0] for r in range(p)])
    cols = np.array([shape.coords(r)[1] for r in range(p)])

    # Row rings: members of grid row i in column order; per-row edge costs
    # depend on the actual placement links, so precompute member ranks.
    row_members = [np.where(rows == i)[0] for i in range(shape.pr)]

    net_latency = spec.network.latency_s

    phase = {name: np.zeros(p) for name in PHASE_NAMES}
    wall = 0.0
    nb = params.nb
    nblocks = (n + nb - 1) // nb
    last_block_cols = n - (nblocks - 1) * nb

    for k in range(nblocks):
        j0 = k * nb
        width = min(nb, n - j0)
        m_rows = n - j0
        owner_col = k % shape.q

        # Trailing columns per grid column (block-cyclic over columns).
        if k + 1 < nblocks:
            trailing = np.arange(k + 1, nblocks)
            col_counts = np.bincount(trailing % shape.q, minlength=shape.q).astype(float)
            q_cols = col_counts * nb
            q_cols[(nblocks - 1) % shape.q] -= nb - last_block_cols
        else:
            q_cols = np.zeros(shape.q)
        q_local = q_cols[cols]  # local trailing columns per process

        in_owner_col = cols == owner_col
        local_panel_rows = m_rows / shape.pr  # rows of the panel per process

        # Cooperative panel factorization + pivot all-reduce per column.
        t_pfact = np.where(
            in_owner_col,
            flops.pfact_flops(m_rows, width) / shape.pr / pfact_rate * f_comp,
            0.0,
        )
        allreduce_hops = math.ceil(math.log2(shape.pr)) if shape.pr > 1 else 0
        t_mxswp = np.where(
            in_owner_col,
            width * (params.mxswp_per_column_s + allreduce_hops * net_latency) * f_comm,
            0.0,
        )
        pfact_head = float(np.max((t_pfact + t_mxswp)[in_owner_col]))

        phase["pfact"] += t_pfact
        phase["mxswp"] += t_mxswp
        step = t_pfact + t_mxswp

        # Panel broadcast along each grid row (ring of Q).
        if shape.q > 1:
            nbytes = flops.panel_bytes(local_panel_rows, width)
            forward_slow_full = 1.0 + params.forward_interference * (co_res - 1.0)
            for row_index in range(shape.pr):
                members = row_members[row_index]
                order = members[np.argsort(cols[members])]
                hops = np.empty(len(order))
                for i in range(len(order)):
                    a = int(order[i])
                    b = int(order[(i + 1) % len(order)])
                    base = transport.message_time(a, b, nbytes)
                    weight = (
                        1.0
                        if transport.link_kind(a, b) is LinkKind.NETWORK
                        else params.intranode_interference_weight
                    )
                    hops[i] = base * (
                        1.0
                        + params.forward_interference * (co_res[a] - 1.0) * weight
                    )
                delivery = ring_delivery_times(
                    hops, root=owner_col, pipeline_factor=params.ring_pipeline_factor
                )
                wait = pfact_head * params.pfact_wait_factor + delivery
                for i, rank in enumerate(order):
                    if cols[rank] == owner_col:
                        send = hops[i] * f_comm[rank]
                        phase["bcast"][rank] += send
                        step[rank] += send
                    else:
                        w = wait[i] * f_comm[rank]
                        phase["bcast"][rank] += w
                        step[rank] = max(step[rank], w)

        # Row interchanges: fraction (Pr-1)/Pr of swapped rows cross
        # process boundaries within the column (network), the rest are
        # local memory copies.
        swap_bytes = flops.laswp_bytes(width, q_local)
        cross_fraction = (shape.pr - 1) / shape.pr
        t_laswp = (
            swap_bytes * (1 - cross_fraction) / laswp_rate
            + swap_bytes * cross_fraction / spec.network.bandwidth_bps
            + (width * net_latency if shape.pr > 1 else 0.0)
        ) * f_comm
        local_m = m_rows / shape.pr
        t_update = np.array(
            [flops.update_flops(int(local_m), width, int(qq)) for qq in q_local]
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
