"""Panel-by-panel performance simulation of HPL on a placed process set.

This walks the exact schedule of right-looking blocked LU on a ``1 x P``
block-cyclic grid (the same loop :mod:`repro.hpl.lu` executes numerically)
and converts each phase's *work* into *time* using the cluster's rate and
link models:

per panel step ``k`` (global column ``j0 = k*nb``, trailing height
``m = N - j0``):

1. the owning process factors the ``m x nb`` panel (``pfact``) and resolves
   pivots (``mxswp``);
2. the panel travels the process ring (``bcast``): the increasing-ring
   broadcast of HPL, with cross-step pipelining summarized by a calibrated
   ``ring_pipeline_factor`` (see :mod:`repro.simnet.collectives`);
3. every process applies the row interchanges to its local trailing columns
   (``laswp``) and performs the triangular-solve + rank-``nb`` GEMM update
   (``update``) on the ``q_p`` columns it owns;
4. the step completes when the slowest process finishes (bulk-synchronous,
   matching the paper's no-overlap modelling assumption);

and a final backward substitution (``uptrsv``) closes the run.

Rates come from :class:`~repro.cluster.pe.PEKind` (efficiency ramp,
oversubscription) degraded by the node-level paging model of
:mod:`repro.hpl.memory`.

Two walkers share those models:

* :func:`simulate_schedule` — the **reference implementation**: a Python
  loop over the O(N/nb) panel steps, vectorized only over processes.
* :func:`simulate_schedule_grid` — the **production walker**: a whole
  grid of ``(configuration, sizes)`` groups in one call, walked once per
  process count P as NumPy array programs over a ``(runs, ranks,
  panels)`` grid, every size padded to a shared panel count that is a
  multiple of P.  Padded steps contribute exact zeros, and every array
  expression applies the same IEEE operations in the same order as the
  reference loop, so for identical inputs the two walkers agree **bitwise**
  (golden-tested per phase, per rank).

The per-``(n, nb, P)`` step geometry (panel widths, owners, trailing-column
counts and the derived workload tables — all analytic in ``(n, nb, k)``) is
memoized in a byte-bounded :class:`PanelTable` cache, so every
configuration, size and trial sharing it skips the recomputation; each
configuration's placement and per-rank columns come from the spec's
placement memo (:func:`~repro.cluster.placement.place_processes`).
:func:`walker_stats` exposes walker timings, pass and run counts and
table hit counts; the measurement layer folds them into
:class:`~repro.perf.report.PerfReport`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.placement import (
    Placement,
    ProcessSlot,
    RankTable,
    place_processes,
    rank_rates,
)
from repro.cluster.spec import ClusterSpec
from repro.errors import SimulationError
from repro.hpl import flops
from repro.hpl.memory import node_slowdowns
from repro.hpl.timing import PHASE_NAMES, PhaseTimes
from repro.runs import WorkloadResult, left_fold
from repro.simnet.collectives import ring_delivery_times, ring_delivery_times_cyclic
from repro.simnet.transport import LinkKind, Transport


@dataclass(frozen=True)
class HPLParameters:
    """Tunables of the simulated HPL build (the ``HPL.dat`` analog).

    Attributes
    ----------
    nb:
        Column block size (HPL's NB; the paper-era sweet spot was 60–120).
    pfact_efficiency:
        Panel factorization runs on level-1/2 BLAS; this is its rate as a
        fraction of the DGEMM rate.
    ring_pipeline_factor:
        Fraction of the downstream store-and-forward chain a rank actually
        waits for (1.0 = strict bulk-synchronous chain, lower values model
        HPL's cross-step overlap).  See ``simnet.collectives``.
    forward_interference:
        Store-and-forward slowdown caused by CPU time-sharing: a ring hop
        *sent by* a process whose CPU hosts ``m`` processes is stretched by
        ``1 + forward_interference * (m - 1)``.  The sender's memcpy
        and socket writes compete with its siblings' compute and the MPI
        progress engines' busy-waiting, so oversubscribed ring positions
        throttle the broadcast chain through them.  This is the term that
        makes extra processes on a fast PE *costly* at small N (an O(N^2)
        communication tax growing with m) while still profitable at large
        N where the O(N^3/P) balance gain dominates — the crossover
        structure of the paper's Figure 3(b) and Tables 4/7.
    intranode_interference_weight:
        Fraction of ``forward_interference`` applied to shared-memory hops.
        Kernel TCP sends burn far more time-shared CPU than intra-node
        memcpys, so network hops take the full interference and intra-node
        hops only this fraction of it.
    same_cpu_handoff_s:
        Scheduler handoff cost per ring hop whose sender and receiver
        time-share one CPU, per extra co-resident process.  The paper-era
        Linux 2.4 scheduler charges roughly a timeslice to wake the
        receiving sibling and drain the shared-memory pipe — the effect
        Sasou et al. observed and the paper traces through Figures 1-2.
    pfact_wait_factor:
        Fraction of the owner's panel time non-owners spend blocked in the
        broadcast (1.0 = no overlap, the paper's modelling assumption).
    mxswp_per_column_s:
        Pivot bookkeeping cost per panel column (the paper's O(1) item).
    uptrsv_latency_s:
        Per-process latency contribution of the solve's ring traffic.
    paging_slope:
        Throughput penalty slope once a node's memory overflows.
    """

    nb: int = 80
    pfact_efficiency: float = 0.35
    ring_pipeline_factor: float = 0.45
    forward_interference: float = 0.9
    intranode_interference_weight: float = 0.3
    same_cpu_handoff_s: float = 0.010
    pfact_wait_factor: float = 1.0
    mxswp_per_column_s: float = 2.0e-6
    uptrsv_latency_s: float = 1.0e-4
    paging_slope: float = 12.0

    def __post_init__(self) -> None:
        if self.nb < 1:
            raise SimulationError(f"nb must be >= 1, got {self.nb}")
        if not (0.0 < self.pfact_efficiency <= 1.0):
            raise SimulationError("pfact_efficiency must be in (0, 1]")
        if not (0.0 <= self.ring_pipeline_factor <= 1.0):
            raise SimulationError("ring_pipeline_factor must be in [0, 1]")
        if self.forward_interference < 0.0:
            raise SimulationError("forward_interference must be >= 0")
        if not (0.0 <= self.intranode_interference_weight <= 1.0):
            raise SimulationError("intranode_interference_weight must be in [0, 1]")
        if self.same_cpu_handoff_s < 0:
            raise SimulationError("same_cpu_handoff_s must be >= 0")
        if not (0.0 <= self.pfact_wait_factor <= 1.0):
            raise SimulationError("pfact_wait_factor must be in [0, 1]")


@dataclass
class ScheduleResult:
    """Output of one simulated HPL run."""

    n: int
    params: HPLParameters
    slots: Placement
    phase_arrays: Dict[str, np.ndarray]
    wall_time_s: float

    @property
    def size(self) -> int:
        return len(self.slots)

    def busy_times(self) -> np.ndarray:
        """Per-rank total busy (phase-accounted) time."""
        return sum(self.phase_arrays[name] for name in PHASE_NAMES)

    def to_result(
        self,
        spec_name: str,
        config: ClusterConfig,
        benchmark_flops: Optional[float] = None,
    ) -> WorkloadResult:
        """This run as the shared measurement result.  Gflops are charged
        against HPL's flop count unless the caller's application supplies
        its own (``benchmark_flops``)."""
        return WorkloadResult(
            spec_name=spec_name,
            config=config,
            n=self.n,
            wall_time_s=self.wall_time_s,
            phase_arrays=self.phase_arrays,
            rank_kinds=self.slots.rank_kinds,
            phase_class=PhaseTimes,
            benchmark_flops=(
                flops.hpl_benchmark_flops(self.n)
                if benchmark_flops is None
                else benchmark_flops
            ),
        )


# -- walker instrumentation ----------------------------------------------------


@dataclass
class WalkerStats:
    """Counters of both schedule walkers, in module state (per process).

    ``scalar_*`` track the reference per-step loop, ``batch_*`` the
    vectorized grid walker (``batch_calls`` = walker passes, one per
    process count of each grid call; ``batch_sizes`` = runs simulated
    across them; ``batch_max`` = the largest pass's runs; ``batch_seconds``
    = time inside grid calls), and ``table_*`` the :class:`PanelTable`
    memo.
    """

    scalar_calls: int = 0
    scalar_seconds: float = 0.0
    batch_calls: int = 0
    batch_seconds: float = 0.0
    batch_sizes: int = 0
    batch_max: int = 0
    table_hits: int = 0
    table_misses: int = 0

    def snapshot(self) -> "WalkerStats":
        return replace(self)

    def delta(self, earlier: "WalkerStats") -> "WalkerStats":
        """Field-wise difference (``batch_max`` takes the current value)."""
        return WalkerStats(
            scalar_calls=self.scalar_calls - earlier.scalar_calls,
            scalar_seconds=self.scalar_seconds - earlier.scalar_seconds,
            batch_calls=self.batch_calls - earlier.batch_calls,
            batch_seconds=self.batch_seconds - earlier.batch_seconds,
            batch_sizes=self.batch_sizes - earlier.batch_sizes,
            batch_max=self.batch_max,
            table_hits=self.table_hits - earlier.table_hits,
            table_misses=self.table_misses - earlier.table_misses,
        )

    def merge(self, other: "WalkerStats") -> None:
        """Accumulate ``other`` into this record (maxing ``batch_max``)."""
        for f in fields(self):
            if f.name == "batch_max":
                self.batch_max = max(self.batch_max, other.batch_max)
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def describe(self) -> str:
        batch = (
            f"batch {self.batch_calls} calls/{self.batch_sizes} sizes "
            f"(max {self.batch_max}) {self.batch_seconds:.4f}s"
        )
        scalar = f"scalar {self.scalar_calls} calls {self.scalar_seconds:.4f}s"
        table = f"panel-table {self.table_hits} hits/{self.table_misses} misses"
        return f"{batch}; {scalar}; {table}"


_WALKER_STATS = WalkerStats()


def walker_stats() -> WalkerStats:
    """The live (mutable) walker counters of this process."""
    return _WALKER_STATS


def reset_walker_stats() -> None:
    """Zero the walker counters (tests and benches)."""
    global _WALKER_STATS
    _WALKER_STATS = WalkerStats()


# -- memoized panel geometry ---------------------------------------------------


@dataclass(frozen=True)
class PanelTable:
    """Precomputed step geometry and workload of one ``(n, nb, P)`` sweep.

    Everything here is analytic in ``(n, nb, k)`` and the ring position —
    independent of rates, noise and the network — so one table serves every
    trial and every configuration sharing the process count.  Shapes:
    ``(K,)`` per step, ``(K, P)`` per step and rank, ``K = ceil(n / nb)``.
    """

    n: int
    nb: int
    p: int
    nblocks: int
    owner: np.ndarray  #: (K,) int — panel owner, ``k % P``
    width: np.ndarray  #: (K,) float — panel column count (last may be partial)
    m_rows: np.ndarray  #: (K,) float — trailing height ``n - k*nb``
    q: np.ndarray  #: (K, P) float — trailing columns owned per rank
    pfact_flops: np.ndarray  #: (K,) float
    update_flops: np.ndarray  #: (K, P) float
    laswp_bytes: np.ndarray  #: (K, P) float
    panel_nbytes: np.ndarray  #: (K,) float — broadcast payload per step

    @property
    def nbytes(self) -> int:
        """Bytes held by the table's arrays."""
        return sum(
            value.nbytes for value in vars(self).values() if isinstance(value, np.ndarray)
        )


def _build_panel_table(n: int, nb: int, p: int) -> PanelTable:
    nblocks = (n + nb - 1) // nb
    last_block_cols = n - (nblocks - 1) * nb
    k = np.arange(nblocks)
    j0 = k * nb
    width = np.minimum(nb, n - j0).astype(float)
    m_rows = (n - j0).astype(float)
    owner = k % p
    # Trailing blocks of step k are k+1 .. nblocks-1; the count owned by
    # rank r is the number of offsets o in [0, T) with o = (r - k - 1) mod p,
    # T = nblocks - 1 - k — the closed form of the reference walker's
    # bincount over ``arange(k+1, nblocks) % p``.
    trailing = nblocks - 1 - k  # (K,)
    offset0 = (np.arange(p)[None, :] - k[:, None] - 1) % p  # (K, P)
    count = np.where(
        trailing[:, None] > offset0,
        (trailing[:, None] - offset0 + p - 1) // p,
        0,
    ).astype(float)
    q = count * nb
    if nblocks > 1:
        # the final block may be partial; it is trailing for every k < K-1
        q[: nblocks - 1, (nblocks - 1) % p] -= nb - last_block_cols
    return PanelTable(
        n=n,
        nb=nb,
        p=p,
        nblocks=nblocks,
        owner=owner,
        width=width,
        m_rows=m_rows,
        q=q,
        pfact_flops=np.asarray(flops.pfact_flops(m_rows, width), dtype=float),
        update_flops=np.asarray(
            flops.update_flops(m_rows[:, None], width[:, None], q), dtype=float
        ),
        laswp_bytes=np.asarray(
            flops.laswp_bytes(width[:, None], q), dtype=float
        ),
        panel_nbytes=np.asarray(flops.panel_bytes(m_rows, width), dtype=float),
    )


#: Byte bound of the panel-table LRU.  The paper's Basic, NL and NS HPL
#: grids touch 279 ``(n, nb, P)`` keys holding 4.4 MB together; the bound
#: keeps that working set (and trials and repeated configurations) in
#: memory, so a second pass over the grids builds no table.
_PANEL_TABLE_BYTES = 16 * 2**20
_panel_tables: "OrderedDict[Tuple[int, int, int], PanelTable]" = OrderedDict()
_panel_table_bytes = 0


def panel_table(n: int, nb: int, p: int) -> PanelTable:
    """The memoized :class:`PanelTable` for ``(n, nb, p)`` (LRU, byte-bounded).

    A new table is the most recent entry; the least recently used tables
    are evicted while the memo holds more than the byte bound."""
    global _panel_table_bytes
    if n < 1 or nb < 1 or p < 1:
        raise SimulationError(f"panel_table needs positive (n, nb, p), got {(n, nb, p)}")
    key = (int(n), int(nb), int(p))
    table = _panel_tables.get(key)
    if table is not None:
        _WALKER_STATS.table_hits += 1
        _panel_tables.move_to_end(key)
        return table
    _WALKER_STATS.table_misses += 1
    table = _panel_tables[key] = _build_panel_table(*key)
    _panel_table_bytes += table.nbytes
    while _panel_table_bytes > _PANEL_TABLE_BYTES and len(_panel_tables) > 1:
        _panel_table_bytes -= _panel_tables.popitem(last=False)[1].nbytes
    return table


def clear_panel_tables() -> None:
    """Drop every memoized panel table (tests)."""
    global _panel_table_bytes
    _panel_tables.clear()
    _panel_table_bytes = 0


# -- shared rate/ring models ---------------------------------------------------


def _rank_rates(
    spec: ClusterSpec,
    slots: Placement,
    n: int,
    params: HPLParameters,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-rank static rates (update, pfact, laswp) and step overheads of
    a placement of ``spec`` (whose columns hold its nodes' memory)."""
    p = len(slots)
    paging = node_slowdowns(slots, n, nb=params.nb, slope=params.paging_slope)
    update_rate = np.empty(p)
    pfact_rate = np.empty(p)
    laswp_rate = np.empty(p)
    step_overhead = np.empty(p)
    for r, slot in enumerate(slots):
        kind = slot.kind
        m = slot.co_resident
        update_rate[r] = kind.process_rate(n, m) / paging[r]
        # pfact runs at level-1/2 BLAS speed on a time-shared CPU: the
        # owner's siblings are inside MPI blocking receives, and the
        # paper-era MPICH progress engine busy-waits, so they do not yield
        # the CPU — the owner only gets its 1/m share.
        pfact_rate[r] = kind.process_rate(n, m) * params.pfact_efficiency / paging[r]
        laswp_rate[r] = kind.mem_copy_rate() / m / paging[r]
        step_overhead[r] = kind.step_overhead(m)
    return update_rate, pfact_rate, laswp_rate, step_overhead


def _ring_factors(
    params: HPLParameters,
    slots: Sequence[ProcessSlot],
    ring_kinds: Sequence[LinkKind],
) -> Tuple[np.ndarray, np.ndarray]:
    """Ring-forwarding slowdown of each sender (CPU time-sharing; see
    ``HPLParameters.forward_interference``) and the fixed scheduler-handoff
    cost on hops whose endpoints time-share a CPU, from the link class of
    each ring edge.  Network hops take the full interference; shared-memory
    hops a calibrated fraction of it."""
    co_res = np.array([slot.co_resident for slot in slots], dtype=float)
    edge_weight = np.array(
        [
            1.0 if kind is LinkKind.NETWORK else params.intranode_interference_weight
            for kind in ring_kinds
        ]
    )
    forward_slow = 1.0 + params.forward_interference * (co_res - 1.0) * edge_weight
    same_cpu_edge = np.array(
        [kind is LinkKind.SAME_CPU for kind in ring_kinds], dtype=bool
    )
    hop_handoff = np.where(
        same_cpu_edge, params.same_cpu_handoff_s * (co_res - 1.0), 0.0
    )
    return forward_slow, hop_handoff


# -- reference walker ----------------------------------------------------------


def simulate_schedule(
    spec: ClusterSpec,
    config: ClusterConfig,
    n: int,
    params: Optional[HPLParameters] = None,
    compute_noise: Optional[np.ndarray] = None,
    comm_noise: Optional[np.ndarray] = None,
) -> ScheduleResult:
    """Simulate HPL of order ``n`` under ``config`` on ``spec``.

    ``compute_noise`` / ``comm_noise`` are optional per-rank multiplicative
    factors (length ``P``) applied to computation and communication costs
    respectively; the measurement layer supplies them (seeded), unit tests
    usually omit them for determinism.

    This is the reference per-step loop; :func:`simulate_schedule_grid`
    is the vectorized production walker and must agree with it bitwise.
    """
    if n < 1:
        raise SimulationError(f"matrix order must be >= 1, got {n}")
    started = time.perf_counter()
    params = params if params is not None else HPLParameters()
    slots = place_processes(spec, config)
    p = len(slots)
    transport = Transport(spec, slots)

    f_comp = _noise_or_ones(compute_noise, (p,), "compute_noise")
    f_comm = _noise_or_ones(comm_noise, (p,), "comm_noise")

    update_rate, pfact_rate, laswp_rate, step_overhead = _rank_rates(
        spec, slots, n, params
    )
    forward_slow, hop_handoff = _ring_factors(
        params, slots, transport.ring_link_kinds()
    )

    phase = {name: np.zeros(p) for name in PHASE_NAMES}
    wall = 0.0

    nb = params.nb
    nblocks = (n + nb - 1) // nb
    last_block_cols = n - (nblocks - 1) * nb
    ranks = np.arange(p)

    for k in range(nblocks):
        j0 = k * nb
        width = min(nb, n - j0)
        m_rows = n - j0
        owner = k % p

        # Trailing columns owned by each process (strictly right of panel).
        if k + 1 < nblocks:
            trailing_blocks = np.arange(k + 1, nblocks)
            counts = np.bincount(trailing_blocks % p, minlength=p).astype(float)
            q = counts * nb
            # the final block may be partial
            q[(nblocks - 1) % p] -= nb - last_block_cols
        else:
            q = np.zeros(p)

        # -- phase costs ------------------------------------------------------
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
            bcast_wait = np.where(non_owner, head_wait + delivery, 0.0)
            bcast_wait *= f_comm
            send_cost = hops[owner] * f_comm[owner]  # the owner's injection
            phase["bcast"][owner] += send_cost
            phase["bcast"][non_owner] += bcast_wait[non_owner]
            step[owner] += send_cost
            step[non_owner] = np.maximum(
                step[non_owner], bcast_wait[non_owner]
            )

        t_laswp = flops.laswp_bytes(width, q) / laswp_rate * f_comm
        t_update = np.array(
            [flops.update_flops(m_rows, width, int(qq)) for qq in q]
        ) / update_rate * f_comp
        t_over = step_overhead * f_comp

        phase["laswp"] += t_laswp
        phase["update"] += t_update + t_over
        step += t_laswp + t_update + t_over

        wall += float(np.max(step))

    # Backward substitution --------------------------------------------------
    t_uptrsv = (
        flops.solve_flops(n) / p / update_rate + params.uptrsv_latency_s * p
    ) * f_comp
    phase["uptrsv"] += t_uptrsv
    wall += float(np.max(t_uptrsv))

    _WALKER_STATS.scalar_calls += 1
    _WALKER_STATS.scalar_seconds += time.perf_counter() - started

    return ScheduleResult(
        n=n,
        params=params,
        slots=slots,
        phase_arrays=phase,
        wall_time_s=wall,
    )


# -- vectorized grid walker ----------------------------------------------------


@dataclass
class _Group:
    """One configuration's runs, validated and placed."""

    config: ClusterConfig
    placement: Placement
    sizes: List[int]
    f_comp: np.ndarray  #: (S, P) compute noise factors
    f_comm: np.ndarray  #: (S, P) communication noise factors


def simulate_schedule_grid(
    spec: ClusterSpec,
    groups: Sequence[Tuple[ClusterConfig, Sequence[int]]],
    params: Optional[HPLParameters] = None,
    noise: Optional[Sequence[Tuple[Optional[np.ndarray], Optional[np.ndarray]]]] = None,
) -> List[List[ScheduleResult]]:
    """Simulate a whole grid: every ``(config, sizes)`` group, every size.

    ``noise``, when given, holds one ``(compute_noise, comm_noise)`` pair
    per group, each ``None`` or of shape ``(len(sizes), P)``.  The walker
    runs once per process count P over every ``(configuration, size)``
    row with that P (:func:`_walk_process_count`); returns one list of
    results per group, in group order (empty for a group without sizes).
    Every run is bitwise identical to :func:`simulate_schedule` with its
    noise row, whatever else shares its pass.
    """
    started = time.perf_counter()
    params = params if params is not None else HPLParameters()
    noise = [(None, None)] * len(groups) if noise is None else list(noise)
    if len(noise) != len(groups):
        raise SimulationError(f"{len(groups)} groups but {len(noise)} noise pairs")
    prepared: List[_Group] = []
    for (config, ns), (compute_noise, comm_noise) in zip(groups, noise):
        sizes = [int(n) for n in ns]
        for n in sizes:
            if n < 1:
                raise SimulationError(f"matrix order must be >= 1, got {n}")
        placement = place_processes(spec, config)
        shape = (len(sizes), len(placement))
        prepared.append(_Group(
            config, placement, sizes,
            _noise_or_ones(compute_noise, shape, "compute_noise"),
            _noise_or_ones(comm_noise, shape, "comm_noise"),
        ))
    by_count: Dict[int, List[int]] = {}
    for index, group in enumerate(prepared):
        if group.sizes:
            by_count.setdefault(len(group.placement), []).append(index)
    results: List[List[ScheduleResult]] = [[] for _ in prepared]
    for p, members in by_count.items():
        walked = _walk_process_count(spec, params, p, [prepared[i] for i in members])
        for index, group_results in zip(members, walked):
            results[index] = group_results
    _WALKER_STATS.batch_seconds += time.perf_counter() - started
    return results


def _owner_entries(values: np.ndarray) -> np.ndarray:
    """Writable ``(S, J, P)`` view of an ``(S, P, J*P)`` array's owner
    entries: rank ``r`` at step ``j*P + r``, whose panel it factors."""
    runs, p, steps = values.shape
    s_run, s_rank, s_step = values.strides
    return np.lib.stride_tricks.as_strided(
        values, (runs, steps // p, p), (s_run, p * s_step, s_rank + s_step)
    )


def _walk_process_count(
    spec: ClusterSpec, params: HPLParameters, p: int, groups: Sequence[_Group]
) -> List[List[ScheduleResult]]:
    """One walker pass over every run of ``groups`` (all with ``p`` ranks).

    Layout: ``(runs, ranks, steps)``, the steps padded with exact zeros to
    ``K = J*P``, a multiple of P, so step ``j*P + r`` is owned by rank
    ``r`` and the owner-only phases are ``(runs, J, P)`` arrays folded
    over ``J``.  Set-up rows are the unique ``(group, size)`` pairs:
    their tables, rates and (noise-free) broadcast chains are computed
    once and gathered to the runs; rates, paging and ring factors are
    array arithmetic over the rows' gathered placement columns.  The
    broadcast is built before the laswp/update arrays, and each
    ``(runs, ranks, steps)`` array is folded and dropped as soon as the
    step times hold it, which keeps the pass's peak memory low.  Every
    array expression applies the reference loop's IEEE operations in its
    order, and per-step sums are left folds (cumulative sums), so no bit
    depends on the pass.
    """
    nb = params.nb
    # -- set-up rows: one per (group, unique size) -----------------------------
    unique = [list(dict.fromkeys(group.sizes)) for group in groups]
    setup_sizes = [n for sizes in unique for n in sizes]
    table_sizes = list(dict.fromkeys(setup_sizes))
    table_of = {n: t for t, n in enumerate(table_sizes)}
    tables = [panel_table(n, nb, p) for n in table_sizes]
    run_setup = []  # setup row of every run, in run order
    offset = 0
    for group, sizes in zip(groups, unique):
        position = {n: offset + i for i, n in enumerate(sizes)}
        run_setup += [position[n] for n in group.sizes]
        offset += len(sizes)
    run_setup = np.array(run_setup)
    setup_table = np.array([table_of[n] for n in setup_sizes])
    run_table = setup_table[run_setup]
    runs = len(run_setup)

    nblocks = np.array([table.nblocks for table in tables])
    blocks = -(-int(nblocks.max()) // p)  # J
    steps = blocks * p  # padded panel count K
    valid_t = np.arange(steps) < nblocks[:, None]  # (T, K)

    def padded(field: str) -> np.ndarray:
        """A per-step table field as ``(T, K)``."""
        out = np.zeros(valid_t.shape)
        out[valid_t] = np.concatenate([getattr(table, field) for table in tables])
        return out

    def padded_ranks(field: str) -> np.ndarray:
        """A per-step, per-rank table field as ``(T, P, K)``."""
        out = np.zeros((len(tables), p, steps))
        out.transpose(0, 2, 1)[valid_t] = np.concatenate(
            [getattr(table, field) for table in tables]
        )
        return out

    # -- per-rank rates and ring factors (rows: set-up rows) ------------------
    # Array arithmetic over the rows' placement columns, taking the scalar
    # model's operations in its order (``_rank_rates``: process rates
    # degraded by paging; ``_ring_factors``: each sender's slowdown and
    # handoff from its ring edge's class).
    columns = RankTable.gather(
        [group.placement for group in groups],
        np.repeat(np.arange(len(groups)), [len(sizes) for sizes in unique]),
    )  # (U, F, P)
    rate_u, overhead_u = rank_rates(columns, setup_sizes)
    paging_u = node_slowdowns(columns, setup_sizes, nb=nb, slope=params.paging_slope)
    update_rate = (rate_u / paging_u)[run_setup]  # (S, P)
    pfact_rate = (rate_u * params.pfact_efficiency / paging_u)[run_setup]
    laswp_rate = (columns.mem_rate / paging_u)[run_setup]
    step_overhead = overhead_u[run_setup]
    f_comp = np.concatenate([group.f_comp for group in groups])  # (S, P)
    f_comm = np.concatenate([group.f_comm for group in groups])

    # -- pfact / mxswp: owner-only phases, (S, J, P) --------------------------
    t_pfact = (
        padded("pfact_flops")[run_table].reshape(runs, blocks, p)
        / pfact_rate[:, None, :] * f_comp[:, None, :]
    )
    t_mxswp = (
        padded("width")[run_table].reshape(runs, blocks, p)
        * params.mxswp_per_column_s * f_comm[:, None, :]
    )
    own_base = t_pfact + t_mxswp

    # -- broadcast, (S, P, K), built before the laswp/update arrays so the
    # ring's temporaries never share the pass's peak with them -------------
    if p > 1:
        co_res = columns.procs
        edge_weight = np.where(
            columns.network_edge, 1.0, params.intranode_interference_weight
        )
        forward_slow = 1.0 + params.forward_interference * (co_res - 1.0) * edge_weight
        hop_handoff = np.where(
            columns.same_cpu_edge, params.same_cpu_handoff_s * (co_res - 1.0), 0.0
        )
        # Edge costs per step, (U, P, K): each link model evaluated once
        # per table, each edge taking its class's time, then the sender's
        # slowdown and handoff (``Transport.ring_hop_times``' values).
        panel_nbytes = padded("panel_nbytes")  # (T, K)
        hops_u = np.where(
            columns.network_edge[:, :, None],
            spec.network.message_time(panel_nbytes)[setup_table, None, :],
            spec.intranode.message_time(panel_nbytes)[setup_table, None, :],
        )
        hops_u *= forward_slow[:, :, None]
        hops_u += hop_handoff[:, :, None]
        hops_u *= valid_t[setup_table][:, None, :]
        delivery = ring_delivery_times_cyclic(
            hops_u, pipeline_factor=params.ring_pipeline_factor
        )  # (U, P, K)
        send_cost = _owner_entries(hops_u)[run_setup] * f_comm[:, None, :]  # (S, J, P)
        del hops_u
        bcast = delivery[run_setup]
        del delivery
        head_wait = own_base * params.pfact_wait_factor  # (S, J, P)
        bcast += head_wait.reshape(runs, 1, steps)
        bcast *= f_comm[:, :, None]
        _owner_entries(bcast)[...] = send_cost

    # -- laswp / update / overhead, (S, P, K), each folded and dropped as
    # soon as the step times hold it ------------------------------------------
    t_laswp = padded_ranks("laswp_bytes")[run_table]
    t_laswp /= laswp_rate[:, :, None]
    t_laswp *= f_comm[:, :, None]
    t_update = padded_ranks("update_flops")[run_table]
    t_update /= update_rate[:, :, None]
    t_update *= f_comp[:, :, None]
    valid = valid_t[run_table][:, None, :]  # (S, 1, K)
    t_over = np.where(valid, (step_overhead * f_comp)[:, :, None], 0.0)
    step = t_laswp + t_update
    step += t_over
    t_update += t_over  # the update phase: update + per-step overhead
    del t_over
    laswp_total = left_fold(t_laswp)
    del t_laswp
    update_total = left_fold(t_update)
    del t_update

    if p > 1:
        work = _owner_entries(step).copy()
        step += bcast
        _owner_entries(step)[...] = (own_base + send_cost) + work
        bcast_total = left_fold(bcast)
        del bcast
    else:
        step += own_base.reshape(runs, 1, steps)
        bcast_total = np.zeros((runs, p))
    wall_body = left_fold(step.max(axis=1))  # (S,)
    del step

    # -- backward substitution ------------------------------------------------
    solve = flops.solve_flops(np.array(table_sizes, dtype=float))[run_table]
    t_uptrsv = (
        solve[:, None] / p / update_rate + params.uptrsv_latency_s * p
    ) * f_comp  # (S, P)
    walls = (wall_body + t_uptrsv.max(axis=1)).tolist()

    # -- per-rank phase totals: left folds over the steps ----------------------
    totals = {
        "pfact": left_fold(t_pfact.transpose(0, 2, 1)),
        "mxswp": left_fold(t_mxswp.transpose(0, 2, 1)),
        "bcast": bcast_total,
        "update": update_total,
        "laswp": laswp_total,
        "uptrsv": t_uptrsv,
    }
    # Each run's phase arrays are views of its row of one (S, F, P) block.
    block = np.stack([totals[name] for name in PHASE_NAMES], axis=1)
    results: List[List[ScheduleResult]] = []
    run = 0
    for group in groups:
        results.append([
            ScheduleResult(n=n, params=params, slots=group.placement,
                           phase_arrays=dict(zip(PHASE_NAMES, block[run + i])),
                           wall_time_s=walls[run + i])
            for i, n in enumerate(group.sizes)
        ])
        run += len(group.sizes)

    _WALKER_STATS.batch_calls += 1
    _WALKER_STATS.batch_sizes += runs
    _WALKER_STATS.batch_max = max(_WALKER_STATS.batch_max, runs)
    return results


def _noise_or_ones(
    noise: Optional[np.ndarray], shape: Tuple[int, ...], name: str
) -> np.ndarray:
    """Validated noise factors of ``shape`` (ones when ``noise`` is None)."""
    if noise is None:
        return np.ones(shape)
    arr = np.asarray(noise, dtype=float)
    if arr.shape != shape:
        raise SimulationError(f"{name} must have shape {shape}, got {arr.shape}")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise SimulationError(f"{name} must be positive and finite")
    return arr
