"""Shared fixtures.

Expensive artifacts (campaigns, pipelines) are session-scoped: they are
deterministic in their seed, so sharing them across tests is safe and keeps
the suite fast.
"""

from __future__ import annotations

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.presets import kishimoto_cluster, synthetic_cluster
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.hpl.driver import NoiseSpec
from repro.measure.campaign import run_campaign
from repro.measure.grids import PAPER_KINDS, basic_plan, custom_plan


@pytest.fixture(scope="session")
def spec():
    """The paper's cluster (Table 1)."""
    return kishimoto_cluster()


@pytest.fixture(scope="session")
def kinds():
    return PAPER_KINDS


def config_of(p1: int, m1: int, p2: int, m2: int) -> ClusterConfig:
    return ClusterConfig.from_tuple(PAPER_KINDS, (p1, m1, p2, m2))


@pytest.fixture(scope="session")
def make_config():
    return config_of


@pytest.fixture(scope="session")
def basic_campaign(spec):
    return run_campaign(spec, basic_plan(), noise=NoiseSpec(), seed=11)


@pytest.fixture(scope="session")
def basic_pipeline(spec):
    return EstimationPipeline(spec, PipelineConfig(protocol="basic", seed=11))


@pytest.fixture(scope="session")
def nl_pipeline(spec):
    return EstimationPipeline(spec, PipelineConfig(protocol="nl", seed=11))


@pytest.fixture(scope="session")
def ns_pipeline(spec):
    return EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=11))


@pytest.fixture(scope="session")
def wide_pipeline():
    """The benchmark's ``search-wide`` instance: four synthetic kinds,
    4 nodes x 2 CPUs each, up to 3 processes per PE — 28,560 candidates."""
    spec = synthetic_cluster((0.3, 0.6, 1.2, 2.4), nodes_per_kind=4, cpus_per_node=2)
    plan = custom_plan(spec, (400, 800, 1600, 3200), (1600, 3200, 6400),
                       max_procs=3, multiproc_kinds=spec.kind_names)
    return EstimationPipeline(spec, PipelineConfig(seed=5, adjust=False), plan=plan)
