"""Top-level HPL run driver: the simulated ``xhpl`` binary.

:func:`run_hpl` executes one simulated HPL run and returns the shared
:class:`~repro.runs.WorkloadResult` carrying everything a measurement
campaign records: wall time, the reported Gflops, and the per-process
phase arrays whose per-kind means the estimation models are fitted to.

Noise injection lives here (not in the schedule walker) so that a single
``(seed, config, N, trial)`` tuple reproducibly determines a measurement —
the property the model-fitting layer and all tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster.config import ClusterConfig
from repro.cluster.spec import ClusterSpec
from repro.errors import SimulationError
from repro.hpl import flops
from repro.hpl.schedule import (
    HPLParameters,
    simulate_schedule,
    simulate_schedule_grid,
)
from repro.runs import RunGroup, WorkloadResult, noise_grid, normalize_groups


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise model: log-normal jitter plus rare outliers.

    ``sigma_compute`` perturbs per-process computation rates and
    ``sigma_comm`` the communication costs; both default to the ~1.5%
    run-to-run variation typical of a dedicated paper-era cluster.

    ``outlier_probability`` injects whole-run slowdowns (a cron job, an
    NFS stall, another user's stray process): with this probability a run
    is uniformly ``outlier_factor`` x slower.  Repeated trials with robust
    aggregation (:mod:`repro.measure.trials`) are the standard defence.
    """

    sigma_compute: float = 0.015
    sigma_comm: float = 0.03
    outlier_probability: float = 0.0
    outlier_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.sigma_compute < 0 or self.sigma_comm < 0:
            raise SimulationError("noise sigmas must be >= 0")
        if not (0.0 <= self.outlier_probability <= 1.0):
            raise SimulationError("outlier_probability must be in [0, 1]")
        if self.outlier_factor < 1.0:
            raise SimulationError("outlier_factor must be >= 1")

    @property
    def enabled(self) -> bool:
        return (
            self.sigma_compute > 0
            or self.sigma_comm > 0
            or self.outlier_probability > 0
        )


def run_hpl(
    spec: ClusterSpec,
    config: ClusterConfig,
    n: int,
    params: Optional[HPLParameters] = None,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    trial: int = 0,
) -> WorkloadResult:
    """Run one simulated HPL measurement.

    Parameters
    ----------
    spec, config, n:
        Cluster, run configuration and problem order.
    params:
        HPL build/tuning parameters (block size etc.).
    noise:
        Measurement noise; ``None`` disables it (bit-exact determinism).
    seed, trial:
        Together with the configuration and ``n`` these fully determine
        the noise draw, so campaigns are reproducible and independent
        per measurement.
    """
    [(compute_rows, comm_rows)] = noise_grid("hpl-run", [(config, [n], [trial])], noise, seed)
    schedule = simulate_schedule(
        spec,
        config,
        n,
        params=params,
        compute_noise=None if compute_rows is None else compute_rows[0],
        comm_noise=None if comm_rows is None else comm_rows[0],
    )
    return schedule.to_result(spec.name, config)


def run_hpl_grid(
    spec: ClusterSpec,
    groups: Sequence[RunGroup],
    params: Optional[HPLParameters] = None,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
) -> List[List[WorkloadResult]]:
    """HPL's grid runner: every run of a measurement grid in one call.

    ``groups`` are ``(config, sizes, trials)`` — ``trials`` one index per
    size or one shared index.  The whole grid's noise is seeded in one
    pass (:func:`~repro.runs.noise_grid`) and walked once per process
    count (:func:`~repro.hpl.schedule.simulate_schedule_grid`).  Each run
    draws from the same ``(seed, config, N, trial)`` stream as
    :func:`run_hpl`, and the grid walker is bitwise equal to the scalar
    one, so every run is bit-identical to its :func:`run_hpl` call.
    Returns one result list per group, in group order.
    """
    groups = normalize_groups(groups)
    rows = noise_grid("hpl-run", groups, noise, seed)
    walked = simulate_schedule_grid(
        spec, [(config, sizes) for config, sizes, _ in groups], params, rows
    )
    counts = {
        n: flops.hpl_benchmark_flops(n) for n in {n for _, sizes, _ in groups for n in sizes}
    }
    out = []
    for (config, _, _), schedules in zip(groups, walked):
        out.append([s.to_result(spec.name, config, counts[s.n]) for s in schedules])
    return out

