"""Pluggable workload families.

Importing this package registers the built-in families (``hpl``,
``summa``, ``sorting``, ``montecarlo``) and their phase schemas;
everything the rest of the library needs is re-exported here.
"""

from repro.runs import (
    PhaseVector,
    WorkloadResult,
    register_phases,
    registered_phase_schemas,
)
from repro.workloads.base import (
    Workload,
    create_workload,
    iter_workloads,
    register_workload,
    registered_workloads,
)
from repro.workloads.phases import phases_from_dict
from repro.workloads.hpl import HPLWorkload
from repro.workloads.montecarlo import (
    MonteCarloPhases,
    MonteCarloWorkload,
    run_montecarlo,
    run_montecarlo_batch,
)
from repro.workloads.sorting import (
    SortingPhases,
    SortingWorkload,
    run_sorting,
    run_sorting_batch,
)
from repro.workloads.summa import SummaWorkload, run_summa, run_summa_batch

__all__ = [
    "HPLWorkload",
    "MonteCarloPhases",
    "MonteCarloWorkload",
    "PhaseVector",
    "SortingPhases",
    "SortingWorkload",
    "SummaWorkload",
    "Workload",
    "WorkloadResult",
    "create_workload",
    "iter_workloads",
    "phases_from_dict",
    "register_phases",
    "register_workload",
    "registered_phase_schemas",
    "registered_workloads",
    "run_montecarlo",
    "run_montecarlo_batch",
    "run_sorting",
    "run_sorting_batch",
    "run_summa",
    "run_summa_batch",
]
