"""The paper's primary contribution: execution-time estimation models.

Pipeline (Section 3 of the paper):

1. **Measure** homogeneous configurations of each PE kind over a grid of
   problem sizes (:mod:`repro.measure`).
2. **Fit N-T models** per configuration ``(P, Mi)``:
   ``Ta(N) = k0 N^3 + k1 N^2 + k2 N + k3``, ``Tc(N) = k4 N^2 + k5 N + k6``
   (:mod:`repro.core.nt_model`, least squares via :mod:`repro.core.lsq`).
3. **Integrate into P-T models** per kind and per-PE process count ``Mi``,
   with ``P`` as a variable (:mod:`repro.core.pt_model`).
4. **Compose** P-T models for kinds with too few PEs to measure
   (:mod:`repro.core.composition`).
5. **Bin**: select N-T for single-PE configurations (``P == Mi``), P-T
   otherwise; optionally bin further on memory pressure
   (:mod:`repro.core.binning`).
6. **Adjust** the systematic communication-model deviation with a linear
   transformation calibrated at one large configuration
   (:mod:`repro.core.adjustment`).
7. **Optimize**: estimate every candidate configuration's execution time
   and pick the argmin (:mod:`repro.core.search`).

:mod:`repro.core.pipeline` wires all of it into the paper's Basic / NL / NS
protocols.
"""

from repro.core.adjustment import LinearAdjustment
from repro.core.binning import MemoryBin, ModelSelector
from repro.core.composition import CompositionPolicy
from repro.core.estimator import Estimator, KindEstimate
from repro.core.lsq import FitResult, multifit_linear
from repro.core.memory_guard import MemoryGuard, require_clean, split_dataset
from repro.core.model_api import (
    ModelDomain,
    TimeModel,
    model_from_dict,
    model_to_dict,
    registered_model_types,
)
from repro.core.model_store import ModelStore
from repro.core.nt_model import NTModel
from repro.core.persistence import load_pipeline, save_pipeline
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.pt_model import PTModel
from repro.core.search import (
    ExhaustiveOptimizer,
    RankedEstimate,
    SearchBackend,
    SearchOutcome,
    SearchProblem,
    SearchSpace,
    SearchStats,
    create_search,
    registered_search_backends,
)
from repro.core.stages import SearchEngine, StageGraph
from repro.core.unified_model import UnifiedEstimator, UnifiedModel

__all__ = [
    "CompositionPolicy",
    "EstimationPipeline",
    "Estimator",
    "ExhaustiveOptimizer",
    "FitResult",
    "KindEstimate",
    "LinearAdjustment",
    "MemoryBin",
    "MemoryGuard",
    "ModelDomain",
    "ModelSelector",
    "ModelStore",
    "NTModel",
    "PipelineConfig",
    "PTModel",
    "RankedEstimate",
    "SearchBackend",
    "SearchEngine",
    "SearchOutcome",
    "SearchProblem",
    "SearchSpace",
    "SearchStats",
    "StageGraph",
    "TimeModel",
    "UnifiedEstimator",
    "UnifiedModel",
    "create_search",
    "load_pipeline",
    "model_from_dict",
    "model_to_dict",
    "multifit_linear",
    "registered_model_types",
    "registered_search_backends",
    "require_clean",
    "save_pipeline",
    "split_dataset",
]
