"""HPL as a registered workload family.

This is a thin adapter: the simulator, phase decomposition, campaign
plans and memory model live in :mod:`repro.hpl` /
:mod:`repro.measure.grids`.  Like every family, HPL's batch runner
returns the shared :class:`~repro.runs.WorkloadResult` and its phases
are a registered :class:`~repro.runs.PhaseVector`
(:class:`~repro.hpl.timing.PhaseTimes`).  Registering them here is what
lets the pipeline stop special-casing HPL — the golden bitwise tests pin
that the routing changes nothing.
"""

from __future__ import annotations

from repro.hpl.driver import run_hpl_batch
from repro.hpl.flops import hpl_benchmark_flops
from repro.hpl.memory import config_memory_ratio
from repro.hpl.timing import PhaseTimes
from repro.measure.grids import plan_by_name
from repro.workloads.base import Workload, register_workload


@register_workload("hpl")
class HPLWorkload(Workload):
    """The paper's benchmark: LU factorization with partial pivoting."""

    display = "HPL linear-system benchmark"
    phase_class = PhaseTimes

    def batch_runner(self):
        return run_hpl_batch

    def plan(self, protocol: str):
        return plan_by_name(protocol)

    def memory_ratio(self, spec, config, n, kind_name):
        return config_memory_ratio(spec, config, n, kind_name)

    def benchmark_flops(self, n: int) -> float:
        return hpl_benchmark_flops(n)
