"""Workload-family fixtures.

Full pipelines (campaign + fit + adjust) are session-scoped: they are
deterministic in their seed, so sharing them keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro.cluster.presets import kishimoto_cluster
from repro.core.pipeline import EstimationPipeline, PipelineConfig


@pytest.fixture(scope="session")
def spec():
    return kishimoto_cluster()


@pytest.fixture(scope="session")
def sorting_pipeline(spec):
    return EstimationPipeline(
        spec, PipelineConfig(protocol="ns", seed=11, workload="sorting")
    )


@pytest.fixture(scope="session")
def montecarlo_pipeline(spec):
    return EstimationPipeline(
        spec, PipelineConfig(protocol="ns", seed=11, workload="montecarlo")
    )


@pytest.fixture(scope="session")
def summa_pipeline(spec):
    return EstimationPipeline(
        spec, PipelineConfig(protocol="ns", seed=11, workload="summa")
    )
