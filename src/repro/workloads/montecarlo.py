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
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.placement import place_processes
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
    WorkloadResult,
    noise_rows,
    normalize_trials,
    register_phases,
)
from repro.workloads.base import Workload, register_workload
from repro.workloads.sorting import _placement_arrays, _rates

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

    The iteration loop (a fixed, small ``MC_ITERATIONS``) stays in
    Python; everything inside it is array arithmetic over the
    ``(S, P)`` size x rank grid.
    """
    ns = [int(n) for n in sizes]
    if any(n < 1 for n in ns):
        raise SimulationError(f"problem orders must be >= 1, got {ns}")
    slots, peak, ramp, floor, procs, oversub, overhead, node = _placement_arrays(
        spec, config
    )
    p = len(slots)
    s_arr = np.asarray(ns, dtype=float)
    sites = s_arr * SITES_PER_UNIT  # (S,)

    f_comp = np.ones((len(ns), p)) if compute_noise is None else np.asarray(compute_noise)
    f_comm = np.ones((len(ns), p)) if comm_noise is None else np.asarray(comm_noise)

    rate = _rates(s_arr, peak, ramp, floor, procs, oversub)  # (S, P)
    speed_share = rate / rate.sum(axis=1, keepdims=True)

    if p > 1:
        barrier_latency = float(np.log2(p)) * float(
            spec.network.message_time(BARRIER_BYTES)
        )
    else:
        barrier_latency = 0.0

    chunk = np.full((len(ns), p), 1.0 / p)
    t_sweep = np.zeros((len(ns), p))
    t_barrier = np.zeros((len(ns), p))
    t_rebalance = np.zeros((len(ns), p))
    wall = np.zeros(len(ns))

    for _ in range(MC_ITERATIONS):
        step = (
            chunk * sites[:, None] * SWEEP_OPS / rate + overhead[None, :]
        ) * f_comp
        t_sweep += step
        slowest = step.max(axis=1)  # (S,)
        wait = (slowest[:, None] - step) + barrier_latency * f_comm
        t_barrier += wait
        wall += slowest + (barrier_latency * f_comm).max(axis=1)

        # Dynamic balancing: move a REBALANCE_GAIN fraction of the gap to
        # the speed-proportional target; moved state crosses the network.
        delta = REBALANCE_GAIN * (speed_share - chunk)
        moved_bytes = np.abs(delta) * sites[:, None] * STATE_BYTES
        reb = (
            np.asarray(spec.network.message_time(moved_bytes), dtype=float) * f_comm
            if p > 1
            else np.zeros((len(ns), p))
        )
        t_rebalance += reb
        wall += reb.max(axis=1)
        chunk = chunk + delta

    rank_kinds = [slot.kind.name for slot in slots]
    results = []
    for i, n in enumerate(ns):
        results.append(
            WorkloadResult(
                spec_name=spec.name,
                config=config,
                n=n,
                wall_time_s=float(wall[i]),
                phase_arrays={
                    "sweep": t_sweep[i].copy(),
                    "barrier": t_barrier[i].copy(),
                    "rebalance": t_rebalance[i].copy(),
                },
                rank_kinds=rank_kinds,
                phase_class=MonteCarloPhases,
                benchmark_flops=montecarlo_benchmark_flops(n),
            )
        )
    return results


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


def run_montecarlo_batch(
    spec: ClusterSpec,
    config: ClusterConfig,
    ns: Sequence[int],
    params=None,
    noise=None,
    seed: int = 0,
    trial: Union[int, Sequence[int]] = 0,
) -> List[WorkloadResult]:
    """Batched MC runner (``run_hpl_batch``-shaped; ``params`` ignored)."""
    sizes = [int(n) for n in ns]
    trials = normalize_trials(sizes, trial)
    compute_rows, comm_rows = noise_rows(
        "montecarlo-run", config, sizes, trials, noise, seed
    )
    return simulate_montecarlo_batch(
        spec, config, sizes, compute_noise=compute_rows, comm_noise=comm_rows
    )


def run_montecarlo(
    spec: ClusterSpec,
    config: ClusterConfig,
    n: int,
    params=None,
    noise=None,
    seed: int = 0,
    trial: int = 0,
) -> WorkloadResult:
    """Scalar MC runner: the batch runner applied to one size."""
    return run_montecarlo_batch(
        spec, config, [n], params=params, noise=noise, seed=seed, trial=trial
    )[0]


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
        return run_montecarlo_batch

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
