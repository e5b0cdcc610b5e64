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
* :func:`simulate_schedule_batch` — the **production walker**: the whole
  panel sweep is evaluated as one NumPy array program over a
  ``(sizes, num_panels, P)`` grid, batching *several problem orders of one
  configuration* in a single call by padding every size to the largest
  panel count.  Padded steps contribute exact zeros, and every array
  expression applies the same IEEE operations in the same order as the
  reference loop, so for identical inputs the two walkers agree **bitwise**
  (golden-tested per phase, per rank).

The per-``(n, nb, P)`` step geometry (panel widths, owners, trailing-column
counts and the derived workload tables — all analytic in ``(n, nb, k)``) is
memoized in a :class:`PanelTable` cache so repeated trials of one
configuration/size skip the recomputation entirely.  :func:`walker_stats`
exposes walker timings, batch sizes and table hit counts; the measurement
layer folds them into :class:`~repro.perf.report.PerfReport`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.placement import ProcessSlot, place_processes
from repro.cluster.spec import ClusterSpec
from repro.errors import SimulationError
from repro.hpl import flops
from repro.hpl.memory import node_slowdowns
from repro.hpl.timing import PHASE_NAMES, PhaseTimes
from repro.runs import WorkloadResult
from repro.simnet.collectives import ring_delivery_times, ring_delivery_times_batch
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
    slots: List[ProcessSlot]
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
            rank_kinds=[slot.kind.name for slot in self.slots],
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
    """Counters of both schedule walkers (per process; see note below).

    ``scalar_*`` track the reference per-step loop, ``batch_*`` the
    vectorized multi-size walker (``batch_sizes`` = total problem orders
    simulated across batched calls, ``batch_max`` = largest single batch),
    and ``table_*`` the :class:`PanelTable` memo.  Counters live in module
    state: campaigns fanned out over a process pool accumulate them in the
    workers, so a parallel campaign's main-process report only covers work
    done in the main process.
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


#: Bounded LRU of panel tables; a campaign touches ``sizes x process
#: counts`` keys (tens), trials and repeated configurations hit.
_PANEL_TABLE_CAP = 256
_panel_tables: "OrderedDict[Tuple[int, int, int], PanelTable]" = OrderedDict()


def panel_table(n: int, nb: int, p: int) -> PanelTable:
    """The memoized :class:`PanelTable` for ``(n, nb, p)`` (LRU-bounded)."""
    if n < 1 or nb < 1 or p < 1:
        raise SimulationError(f"panel_table needs positive (n, nb, p), got {(n, nb, p)}")
    key = (int(n), int(nb), int(p))
    table = _panel_tables.get(key)
    if table is not None:
        _WALKER_STATS.table_hits += 1
        _panel_tables.move_to_end(key)
        return table
    _WALKER_STATS.table_misses += 1
    table = _build_panel_table(*key)
    _panel_tables[key] = table
    while len(_panel_tables) > _PANEL_TABLE_CAP:
        _panel_tables.popitem(last=False)
    return table


def clear_panel_tables() -> None:
    """Drop every memoized panel table (tests)."""
    _panel_tables.clear()


def seed_panel_tables(tables: Iterable[PanelTable]) -> int:
    """Pre-populate the memo with already-built tables; returns the count.

    Fleet workers seed the memo with shared-memory-backed tables
    (:mod:`repro.serve.shared`) so N replicas hold one copy of the panel
    geometry instead of N.  Seeded tables participate in the same LRU as
    locally built ones; a seeded key that is later evicted is simply
    rebuilt locally — correctness never depends on the seed.
    """
    count = 0
    for table in tables:
        _panel_tables[(table.n, table.nb, table.p)] = table
        count += 1
    while len(_panel_tables) > _PANEL_TABLE_CAP:
        _panel_tables.popitem(last=False)
    return count


# -- shared rate/ring models ---------------------------------------------------


def _rank_rates(
    spec: ClusterSpec,
    slots: Sequence[ProcessSlot],
    n: int,
    params: HPLParameters,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-rank static rates (update, pfact, laswp) and step overheads."""
    p = len(slots)
    paging = node_slowdowns(spec, slots, n, nb=params.nb, slope=params.paging_slope)
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
    transport: Transport,
) -> Tuple[np.ndarray, np.ndarray]:
    """Ring-forwarding slowdown of each sender (CPU time-sharing; see
    ``HPLParameters.forward_interference``) and the fixed scheduler-handoff
    cost on hops whose endpoints time-share a CPU.  Network hops take the
    full interference; shared-memory hops a calibrated fraction of it."""
    co_res = np.array([slot.co_resident for slot in slots], dtype=float)
    ring_kinds = transport.ring_link_kinds()
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

    This is the reference per-step loop; :func:`simulate_schedule_batch`
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
    forward_slow, hop_handoff = _ring_factors(params, slots, transport)

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


# -- vectorized multi-size walker ----------------------------------------------


def simulate_schedule_batch(
    spec: ClusterSpec,
    config: ClusterConfig,
    ns: Sequence[int],
    params: Optional[HPLParameters] = None,
    compute_noise: Optional[np.ndarray] = None,
    comm_noise: Optional[np.ndarray] = None,
) -> List[ScheduleResult]:
    """Simulate one configuration at *many* problem orders in one call.

    ``ns`` may repeat sizes (e.g. one entry per trial); noise arrays, when
    given, carry one row per entry (shape ``(len(ns), P)``).  Every size is
    padded to the largest panel count and the whole ``(sizes, panels, P)``
    grid is evaluated as a handful of NumPy array programs; padded steps
    contribute exact zeros.  Results are bitwise identical to calling
    :func:`simulate_schedule` per entry with the matching noise row —
    the golden tests assert per-phase, per-rank equality.
    """
    sizes = [int(n) for n in ns]
    if not sizes:
        raise SimulationError("simulate_schedule_batch needs at least one size")
    for n in sizes:
        if n < 1:
            raise SimulationError(f"matrix order must be >= 1, got {n}")
    started = time.perf_counter()
    params = params if params is not None else HPLParameters()
    slots = place_processes(spec, config)
    p = len(slots)
    transport = Transport(spec, slots)
    rows = len(sizes)

    f_comp = _noise_or_ones(compute_noise, (rows, p), "compute_noise")
    f_comm = _noise_or_ones(comm_noise, (rows, p), "comm_noise")

    forward_slow, hop_handoff = _ring_factors(params, slots, transport)

    # -- per-unique-size tables, rates and (noise-free) broadcast chains ------
    unique_sizes = list(dict.fromkeys(sizes))
    position = {n: i for i, n in enumerate(unique_sizes)}
    row_of = np.array([position[n] for n in sizes])
    tables = [panel_table(n, params.nb, p) for n in unique_sizes]
    steps = max(table.nblocks for table in tables)  # padded panel count K

    def padded(stack_shape, per_table):
        out = np.zeros((len(tables),) + stack_shape)
        for i, table in enumerate(tables):
            value = per_table(table)
            out[i, : table.nblocks] = value
        return out

    pfact_flops_u = padded((steps,), lambda t: t.pfact_flops)
    width_u = padded((steps,), lambda t: t.width)
    update_flops_u = padded((steps, p), lambda t: t.update_flops)
    laswp_bytes_u = padded((steps, p), lambda t: t.laswp_bytes)
    valid_u = padded((steps,), lambda t: np.ones(t.nblocks))
    rates_u = np.empty((len(tables), 4, p))
    for i, table in enumerate(tables):
        rates_u[i] = _rank_rates(spec, slots, table.n, params)
    if p > 1:
        hops_own_u = np.zeros((len(tables), steps))
        delivery_u = np.zeros((len(tables), steps, p))
        for i, table in enumerate(tables):
            hops = (
                transport.ring_hop_times_batch(table.panel_nbytes) * forward_slow
                + hop_handoff
            )
            delivery_u[i, : table.nblocks] = ring_delivery_times_batch(
                hops, table.owner, pipeline_factor=params.ring_pipeline_factor
            )
            hops_own_u[i, : table.nblocks] = hops[
                np.arange(table.nblocks), table.owner
            ]

    # -- expand to batch rows (one row per (size, noise) entry) ---------------
    owner = np.arange(steps) % p  # owners do not depend on n
    kidx = np.arange(steps)
    update_rate = rates_u[row_of, 0]  # (S, P)
    pfact_rate = rates_u[row_of, 1]
    laswp_rate = rates_u[row_of, 2]
    step_overhead = rates_u[row_of, 3]
    valid = valid_u[row_of, :, None].astype(bool)  # (S, K, 1)

    # -- pfact / mxswp (owner-only phases) ------------------------------------
    t_pfact = (
        pfact_flops_u[row_of] / pfact_rate[:, owner] * f_comp[:, owner]
    )  # (S, K)
    t_mxswp = width_u[row_of] * params.mxswp_per_column_s * f_comm[:, owner]
    own_base = t_pfact + t_mxswp

    phase_mats: Dict[str, np.ndarray] = {}
    scatter = np.zeros((rows, steps, p))
    scatter[:, kidx, owner] = t_pfact
    phase_mats["pfact"] = scatter
    scatter = np.zeros((rows, steps, p))
    scatter[:, kidx, owner] = t_mxswp
    phase_mats["mxswp"] = scatter

    # -- broadcast ------------------------------------------------------------
    if p > 1:
        head_wait = own_base * params.pfact_wait_factor  # (S, K)
        non_owner = np.arange(p)[None, :] != owner[:, None]  # (K, P)
        wait = np.where(
            non_owner[None, :, :],
            head_wait[:, :, None] + delivery_u[row_of],
            0.0,
        )
        wait = wait * f_comm[:, None, :]
        send_cost = hops_own_u[row_of] * f_comm[:, owner]  # (S, K)
        bcast = wait.copy()
        bcast[:, kidx, owner] = send_cost
        phase_mats["bcast"] = bcast
        step_base = wait.copy()
        step_base[:, kidx, owner] = own_base + send_cost
    else:
        phase_mats["bcast"] = np.zeros((rows, steps, p))
        step_base = np.zeros((rows, steps, p))
        step_base[:, kidx, owner] = own_base

    # -- laswp / update / overhead --------------------------------------------
    t_laswp = laswp_bytes_u[row_of] / laswp_rate[:, None, :] * f_comm[:, None, :]
    t_update = (
        update_flops_u[row_of] / update_rate[:, None, :] * f_comp[:, None, :]
    )
    t_over = (step_overhead * f_comp)[:, None, :]  # same every (real) step
    phase_mats["laswp"] = t_laswp
    phase_mats["update"] = np.where(valid, t_update + t_over, 0.0)

    step = step_base + np.where(valid, (t_laswp + t_update) + t_over, 0.0)
    wall_body = step.max(axis=2).cumsum(axis=1)[:, -1]  # (S,)

    # -- backward substitution ------------------------------------------------
    solve = np.array([flops.solve_flops(n) for n in sizes])  # (S,)
    t_uptrsv = (
        solve[:, None] / p / update_rate + params.uptrsv_latency_s * p
    ) * f_comp  # (S, P)

    # -- fold steps into per-rank phase totals --------------------------------
    # cumsum accumulates left-to-right exactly like the reference loop's
    # ``+=`` per step (padded steps add exact zeros), keeping bitwise parity.
    phase_totals = {
        name: mat.cumsum(axis=1)[:, -1, :] for name, mat in phase_mats.items()
    }
    phase_totals["uptrsv"] = t_uptrsv
    walls = wall_body + t_uptrsv.max(axis=1)

    results = []
    for s, n in enumerate(sizes):
        arrays = {
            name: np.ascontiguousarray(phase_totals[name][s])
            for name in PHASE_NAMES
        }
        results.append(
            ScheduleResult(
                n=n,
                params=params,
                slots=slots,
                phase_arrays=arrays,
                wall_time_s=float(walls[s]),
            )
        )

    _WALKER_STATS.batch_calls += 1
    _WALKER_STATS.batch_seconds += time.perf_counter() - started
    _WALKER_STATS.batch_sizes += rows
    _WALKER_STATS.batch_max = max(_WALKER_STATS.batch_max, rows)
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
