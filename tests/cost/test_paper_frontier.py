"""The paper's cluster priced with the published rate card.

The Basic pipeline (seed 7) at N = 5000 has a frontier of at least three
points, no point dominates another, and the minimum-time endpoint is
bitwise the exhaustive optimizer's winner; the priced cluster serializes
as format 2.
"""

import pytest

from repro.cluster.presets import kishimoto_cluster
from repro.cluster.serialize import cluster_to_dict
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.cost.pareto import dominates
from repro.cost.presets import kishimoto_rate_card

N = 5000


@pytest.fixture(scope="module")
def priced_spec():
    return kishimoto_cluster().with_cost(kishimoto_rate_card())


@pytest.fixture(scope="module")
def pipeline(priced_spec):
    return EstimationPipeline(priced_spec, PipelineConfig(protocol="basic", seed=7))


@pytest.fixture(scope="module")
def frontier(pipeline):
    return pipeline.pareto(N)


def test_frontier_has_at_least_three_points(frontier):
    assert len(frontier.points) >= 3


def test_frontier_points_are_mutually_non_dominated(frontier):
    for p in frontier.points:
        for q in frontier.points:
            assert not dominates(p.objectives(), q.objectives()), (
                f"{q.config.label()} dominated by {p.config.label()}"
            )


def test_min_time_endpoint_is_the_exhaustive_winner(pipeline, frontier):
    assert frontier.min_time.time_s == pipeline.optimize(N).best.estimate_s


def test_priced_cluster_serializes_as_format_2(priced_spec):
    assert cluster_to_dict(priced_spec)["format"] == 2
