"""HPL as a registered workload family.

This is a thin adapter: the simulator, phase decomposition, campaign
plans and memory model all predate the workload subsystem and live in
:mod:`repro.hpl` / :mod:`repro.measure.grids`.  Registering them here is
what lets the pipeline stop special-casing HPL — every HPL-specific
default the core used to hardcode now routes through this class, and the
golden bitwise tests pin that the routing changes nothing.
"""

from __future__ import annotations

from repro.hpl.driver import run_hpl_batch
from repro.hpl.memory import config_memory_ratio
from repro.hpl.timing import COMM_PHASES, COMPUTE_PHASES, PHASE_NAMES, PhaseTimes
from repro.hpl.workload import hpl_benchmark_flops
from repro.measure.grids import plan_by_name
from repro.workloads.base import Workload, register_workload


@register_workload("hpl")
class HPLWorkload(Workload):
    """The paper's benchmark: LU factorization with partial pivoting."""

    display = "HPL linear-system benchmark"
    phase_class = PhaseTimes

    # PhaseTimes predates the PhaseVector base and keeps its phase-name
    # constants at module level, so the properties resolve them here.
    @property
    def phase_names(self):
        return tuple(PHASE_NAMES)

    @property
    def compute_phases(self):
        return tuple(COMPUTE_PHASES)

    @property
    def comm_phases(self):
        return tuple(COMM_PHASES)

    def batch_runner(self):
        return run_hpl_batch

    def plan(self, protocol: str):
        return plan_by_name(protocol)

    def memory_ratio(self, spec, config, n, kind_name):
        return config_memory_ratio(spec, config, n, kind_name)

    def benchmark_flops(self, n: int) -> float:
        return hpl_benchmark_flops(n)
