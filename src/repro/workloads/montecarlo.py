"""Synchronous Monte Carlo with dynamic load balancing (after Altevogt &
Linke, hep-lat/9310021).

The third workload family: a fixed number of synchronous MC sweeps over
``N`` hundred lattice sites, distributed over ``P`` heterogeneous
processes.  Each iteration:

1. ``sweep`` (compute): every process updates its chunk of the lattice.
2. ``barrier`` (communication): a global synchronization — fast processes
   *wait* for the slowest, plus a ``log2(P)``-deep combine over the
   network.  This is where heterogeneity hurts: with static ``1/P``
   chunks the barrier wait is the whole imbalance.
3. ``rebalance`` (communication): the dynamic load balancer moves lattice
   state toward speed-proportional chunks (geometric approach with gain
   ``REBALANCE_GAIN`` per iteration, as Altevogt & Linke shift spins
   between their heterogeneous workstations), paying for the moved bytes.

Chunk fractions start at ``1/P`` and converge toward each process's speed
share, so early iterations are imbalance-dominated and late ones
balanced — the time structure the estimation models must capture.  Wall
time accumulates per-iteration maxima (the barrier makes every iteration
bulk-synchronous).

Determinism matches HPL: one ``(seed, "montecarlo-run", config, N,
trial)`` stream per measurement; the scalar runner is the batch runner on
one size; :func:`simulate_montecarlo_reference` is the plain-Python
baseline the vectorized kernel is verified and benchmarked against.
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
    noise_grid,
    normalize_groups,
    register_phases,
)
from repro.workloads.base import Workload, register_workload

#: Problem "order" N counts hundreds of lattice sites.
SITES_PER_UNIT = 100.0
#: Flop-equivalents per site per sweep (neighbour gather + accept/reject).
SWEEP_OPS = 400.0
#: Bytes of state per lattice site (spin + cached energies).
STATE_BYTES = 48.0
#: Synchronous sweeps per run.
MC_ITERATIONS = 24
#: Fraction of the chunk imbalance the balancer removes per iteration.
REBALANCE_GAIN = 0.5
#: Payload of one barrier combine message.
BARRIER_BYTES = 64.0


@register_phases
@dataclass(frozen=True)
class MonteCarloPhases(PhaseVector):
    """Per-process phase breakdown of one synchronous MC run."""

    sweep: float
    barrier: float
    rebalance: float

    PHASE_NAMES = ("sweep", "barrier", "rebalance")
    COMPUTE_PHASES = ("sweep",)
    COMM_PHASES = ("barrier", "rebalance")


def montecarlo_benchmark_flops(n: int) -> float:
    """Nominal operation count reported as 'Gflops': site updates over
    all synchronous sweeps."""
    if n < 1:
        raise SimulationError(f"problem order must be >= 1, got {n}")
    return float(n) * SITES_PER_UNIT * SWEEP_OPS * MC_ITERATIONS


def simulate_montecarlo_batch(
    spec: ClusterSpec,
    config: ClusterConfig,
    sizes: Sequence[int],
    compute_noise: Optional[np.ndarray] = None,
    comm_noise: Optional[np.ndarray] = None,
) -> List[WorkloadResult]:
    """Vectorized synchronous-MC walk: all sizes of one config at once.

    The balancer's chunk schedule does not depend on any timing, so it is
    computed first (``MC_ITERATIONS`` small steps); every sweep, barrier
    and rebalance time is then one array expression over the
    ``(iterations, S, P)`` grid.  Per-rank totals are cumulative sums
    along the iteration axis, and the wall time one cumulative sum over
    the interleaved per-iteration terms — the reference loop's ``+=``
    order, so the bits do not depend on the batch.
    """
    ns = [int(n) for n in sizes]
    if any(n < 1 for n in ns):
        raise SimulationError(f"problem orders must be >= 1, got {ns}")
    slots = place_processes(spec, config)
    p = len(slots)
    s_arr = np.asarray(ns, dtype=float)
    sites = s_arr[:, None] * SITES_PER_UNIT  # (S, 1)

    f_comp = np.ones((len(ns), p)) if compute_noise is None else np.asarray(compute_noise)
    f_comm = np.ones((len(ns), p)) if comm_noise is None else np.asarray(comm_noise)

    rate, overhead = rank_rates(slots, s_arr)  # (S, P), (P,)
    speed_share = rate / rate.sum(axis=1, keepdims=True)

    if p > 1:
        barrier_latency = float(np.log2(p)) * float(
            spec.network.message_time(BARRIER_BYTES)
        )
    else:
        barrier_latency = 0.0

    # Dynamic balancing: each iteration moves a REBALANCE_GAIN fraction of
    # the gap to the speed-proportional target.
    chunk = np.empty((MC_ITERATIONS, len(ns), p))
    chunk[0] = 1.0 / p
    for i in range(1, MC_ITERATIONS):
        chunk[i] = chunk[i - 1] + REBALANCE_GAIN * (speed_share - chunk[i - 1])
    delta = REBALANCE_GAIN * (speed_share - chunk)

    step = (chunk * sites * SWEEP_OPS / rate + overhead) * f_comp  # (I, S, P)
    slowest = step.max(axis=2)  # (I, S)
    wait = (slowest[..., None] - step) + barrier_latency * f_comm
    # Moved state crosses the network.
    if p > 1:
        moved_bytes = np.abs(delta) * sites * STATE_BYTES
        reb = np.asarray(spec.network.message_time(moved_bytes), dtype=float) * f_comm
    else:
        reb = np.zeros_like(step)
    terms = np.empty((2 * MC_ITERATIONS, len(ns)))
    terms[0::2] = slowest + (barrier_latency * f_comm).max(axis=1)
    terms[1::2] = reb.max(axis=2)

    phases = {name: values.cumsum(axis=0)[-1]
              for name, values in (("sweep", step), ("barrier", wait), ("rebalance", reb))}
    return WorkloadResult.rows(
        spec.name, config, ns, terms.cumsum(axis=0)[-1], phases,
        [slot.kind.name for slot in slots], MonteCarloPhases, montecarlo_benchmark_flops,
    )


def simulate_montecarlo_reference(
    spec: ClusterSpec,
    config: ClusterConfig,
    n: int,
    compute_noise: Optional[np.ndarray] = None,
    comm_noise: Optional[np.ndarray] = None,
) -> WorkloadResult:
    """Straight-line scalar MC walk (tests + benchmark baseline)."""
    if n < 1:
        raise SimulationError(f"problem order must be >= 1, got {n}")
    slots = place_processes(spec, config)
    p = len(slots)
    f_comp = [1.0] * p if compute_noise is None else [float(v) for v in compute_noise]
    f_comm = [1.0] * p if comm_noise is None else [float(v) for v in comm_noise]

    sites = float(n) * SITES_PER_UNIT
    rates = [slot.kind.process_rate(n, slot.co_resident) for slot in slots]
    overheads = [slot.kind.step_overhead(slot.co_resident) for slot in slots]
    total_rate = sum(rates)
    speed_share = [r / total_rate for r in rates]
    barrier_latency = (
        float(np.log2(p)) * float(spec.network.message_time(BARRIER_BYTES))
        if p > 1
        else 0.0
    )

    chunk = [1.0 / p] * p
    t_sweep = [0.0] * p
    t_barrier = [0.0] * p
    t_rebalance = [0.0] * p
    wall = 0.0
    for _ in range(MC_ITERATIONS):
        step = [
            (chunk[r] * sites * SWEEP_OPS / rates[r] + overheads[r]) * f_comp[r]
            for r in range(p)
        ]
        slowest = max(step)
        for r in range(p):
            t_sweep[r] += step[r]
            t_barrier[r] += (slowest - step[r]) + barrier_latency * f_comm[r]
        wall += slowest + max(barrier_latency * f_comm[r] for r in range(p))

        deltas = [REBALANCE_GAIN * (speed_share[r] - chunk[r]) for r in range(p)]
        rebs = []
        for r in range(p):
            moved = abs(deltas[r]) * sites * STATE_BYTES
            reb = (
                float(spec.network.message_time(moved)) * f_comm[r] if p > 1 else 0.0
            )
            t_rebalance[r] += reb
            rebs.append(reb)
            chunk[r] += deltas[r]
        wall += max(rebs)

    return WorkloadResult(
        spec_name=spec.name,
        config=config,
        n=int(n),
        wall_time_s=wall,
        phase_arrays={
            "sweep": np.array(t_sweep),
            "barrier": np.array(t_barrier),
            "rebalance": np.array(t_rebalance),
        },
        rank_kinds=[slot.kind.name for slot in slots],
        phase_class=MonteCarloPhases,
        benchmark_flops=montecarlo_benchmark_flops(int(n)),
    )


def run_montecarlo_grid(
    spec: ClusterSpec,
    groups: Sequence[RunGroup],
    params=None,
    noise=None,
    seed: int = 0,
) -> List[List[WorkloadResult]]:
    """Monte Carlo's grid runner: every run of a grid in one call.

    :func:`~repro.hpl.driver.run_hpl_grid`-shaped (``params`` ignored): the
    whole grid's noise is seeded in one pass, then one walk per
    configuration."""
    groups = normalize_groups(groups)
    rows = noise_grid("montecarlo-run", groups, noise, seed)
    return [
        simulate_montecarlo_batch(
            spec, config, sizes, compute_noise=compute, comm_noise=comm
        )
        for (config, sizes, _), (compute, comm) in zip(groups, rows)
    ]


MC_CONSTRUCTION_SIZES = (512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192)
MC_EVALUATION_SIZES = (2048, 4096, 6144, 8192, 10240)
MC_NL_CONSTRUCTION_SIZES = (2048, 4096, 6144, 8192)
MC_NS_CONSTRUCTION_SIZES = (512, 1024, 1536, 2048)
MC_NL_NS_EVALUATION_SIZES = (1024, 2048, 4096, 6144, 8192, 10240)


def _mc_plan(
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


@register_workload("montecarlo")
class MonteCarloWorkload(Workload):
    """Synchronous Monte Carlo sweeps with dynamic load balancing."""

    display = "synchronous Monte Carlo with dynamic rebalancing"
    phase_class = MonteCarloPhases

    def batch_runner(self):
        return run_montecarlo_grid

    def plan(self, protocol: str) -> CampaignPlan:
        if protocol == "basic":
            return _mc_plan("basic", MC_CONSTRUCTION_SIZES, MC_EVALUATION_SIZES)
        if protocol == "nl":
            return _mc_plan(
                "nl",
                MC_NL_CONSTRUCTION_SIZES,
                MC_NL_NS_EVALUATION_SIZES,
                pentium2_pes=(1, 2, 4, 8),
            )
        if protocol == "ns":
            return _mc_plan(
                "ns",
                MC_NS_CONSTRUCTION_SIZES,
                MC_NL_NS_EVALUATION_SIZES,
                pentium2_pes=(1, 2, 4, 8),
            )
        raise SimulationError(
            f"unknown protocol {protocol!r} for montecarlo; have ['basic', 'nl', 'ns']"
        )

    def benchmark_flops(self, n: int) -> float:
        return montecarlo_benchmark_flops(n)
