"""repro — execution-time estimation for heterogeneous clusters.

A production-quality reproduction of Kishimoto & Ichikawa, *An
Execution-Time Estimation Model for Heterogeneous Clusters* (IPDPS 2004):
empirical N-T / P-T execution-time models with binning, model composition
and linear adjustment, driving optimal PE-subset and process-allocation
selection — together with the full simulation substrate the evaluation
needs (a calibrated heterogeneous cluster, an MPI-like messaging layer and
a phase-level HPL simulator).

Quick start::

    from repro import (
        kishimoto_cluster, EstimationPipeline, PipelineConfig, ClusterConfig,
    )

    spec = kishimoto_cluster()
    pipeline = EstimationPipeline(spec, PipelineConfig(protocol="nl", seed=1))
    best = pipeline.optimize(n=8000).best
    print(best.config.label(), best.estimate_s)

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.cluster` — PE kinds, nodes, networks, configurations.
* :mod:`repro.simnet` — event engine, MPI-like API, MPICH curves, NetPIPE.
* :mod:`repro.hpl` — numeric LU, workload math, HPL performance simulator.
* :mod:`repro.measure` — campaign grids, datasets, cost accounting.
* :mod:`repro.core` — the paper's models and optimizer (the contribution).
* :mod:`repro.analysis` — tables, correlation scatter, reports.
* :mod:`repro.exts` — heuristic search, 2-D grids, a second application.
"""

from repro.cluster import (
    ClusterConfig,
    ClusterSpec,
    KindAllocation,
    NetworkSpec,
    Node,
    PEKind,
    kishimoto_cluster,
    synthetic_cluster,
)
from repro.core import (
    CompositionPolicy,
    EstimationPipeline,
    Estimator,
    ExhaustiveOptimizer,
    LinearAdjustment,
    ModelSelector,
    ModelStore,
    NTModel,
    PipelineConfig,
    PTModel,
    TimeModel,
)
from repro.errors import (
    ClusterError,
    ConfigurationError,
    FitError,
    MeasurementError,
    ModelError,
    ReproError,
    SearchError,
    SimulationError,
)
from repro.hpl import HPLParameters, PhaseTimes, run_hpl
from repro.hpl.driver import NoiseSpec
from repro.measure import Dataset, basic_plan, nl_plan, ns_plan, run_campaign

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "ClusterSpec",
    "CompositionPolicy",
    "ConfigurationError",
    "Dataset",
    "EstimationPipeline",
    "Estimator",
    "ExhaustiveOptimizer",
    "FitError",
    "HPLParameters",
    "KindAllocation",
    "LinearAdjustment",
    "MeasurementError",
    "ModelError",
    "ModelSelector",
    "ModelStore",
    "NTModel",
    "NetworkSpec",
    "Node",
    "NoiseSpec",
    "PEKind",
    "PTModel",
    "PhaseTimes",
    "PipelineConfig",
    "ReproError",
    "SearchError",
    "SimulationError",
    "TimeModel",
    "__version__",
    "basic_plan",
    "kishimoto_cluster",
    "nl_plan",
    "ns_plan",
    "run_campaign",
    "run_hpl",
    "synthetic_cluster",
]
