"""Differential oracles for configuration search on random pipelines.

Each example fits a small random synthetic pipeline (2-3 PE kinds, at
least 3 PEs per kind — with fewer the kind has no P-T model and search
raises a typed ModelError — and 1-3 processes per PE) and checks, per
drawn problem order, every backend against exhaustive search on the same
grid objective:

* branch-and-bound's and budget-frontier's winners are exhaustive's,
  bitwise (key and estimate);
* the frontier's minimum-time point carries exhaustive's best estimate
  bitwise, and exhaustive's winner too unless an exact time tie with a
  strictly cheaper configuration replaces it (DESIGN §14);
* every heuristic reports, for its winner, exactly the value exhaustive
  ranked that configuration at;
* the scalar estimator equals the grid value on random ranking entries;
* a second call on the same pipeline (the engine's shared search
  problem, warm estimate cache) repeats the first bitwise.

Examples are derandomized so a failure reproduces; failures found are
pinned as regression tests below the suite.  Problem orders stay at or
above the construction range's scale: far below it most candidates are
out of the models' domain, and a heuristic may visit none of the few
that are not (``TestPinnedRegressions``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.presets import synthetic_cluster
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.cost.evaluate import config_dollar_rate
from repro.cost.model import ZERO_COST, CostModel
from repro.errors import SearchError
from repro.measure.grids import custom_plan

EXACT = ("branch-bound", "budget-frontier")
HEURISTICS = ("beam", "greedy", "hill-climb", "anneal")
BACKENDS = ("exhaustive",) + EXACT + HEURISTICS
CONSTRUCTION = (400, 800, 1600, 3200)
SCALAR_CHECKS = 8


@st.composite
def pipelines(draw):
    kinds = draw(st.integers(min_value=2, max_value=3))
    rates = draw(
        st.lists(
            st.sampled_from([0.2, 0.3, 0.5, 0.8, 1.2, 2.0, 2.4]),
            min_size=kinds,
            max_size=kinds,
        )
    )
    nodes_per_kind = draw(st.integers(min_value=3, max_value=4))
    cpus_per_node = draw(st.integers(min_value=1, max_value=2))
    max_procs = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    priced = draw(st.booleans())
    spec = synthetic_cluster(rates, nodes_per_kind=nodes_per_kind,
                             cpus_per_node=cpus_per_node)
    plan = custom_plan(spec, CONSTRUCTION, (1600,), max_procs=max_procs,
                       multiproc_kinds=spec.kind_names)
    cost = None
    if priced:
        cost = CostModel.of(**{
            kind: draw(st.sampled_from([0.02, 0.05, 0.1, 0.3]))
            for kind in spec.kind_names
        })
    return EstimationPipeline(
        spec, PipelineConfig(seed=seed, adjust=False, cost=cost), plan=plan
    )


def signature(outcome):
    return (
        outcome.n,
        outcome.complete,
        [(e.config.key(), e.estimate_s) for e in outcome.ranking],
        outcome.stats.to_dict(include_trace=True),
    )


def frontier_signature(frontier):
    return [(p.config.key(), p.time_s, p.dollars) for p in frontier.points]


def check_oracles(pipeline, sizes, picks):
    searched = {
        tag: pipeline.optimizer(backend=tag).optimize_many(sizes)
        for tag in BACKENDS
    }
    frontiers = pipeline.pareto_many(sizes)
    for j, n in enumerate(sizes):
        exact = searched["exhaustive"][j]
        best = exact.best
        assert len(exact.ranking) == len(pipeline.plan.evaluation_configs)
        for tag in EXACT:
            got = searched[tag][j].best
            assert (got.config.key(), got.estimate_s) == (
                best.config.key(), best.estimate_s
            ), tag
        fast = frontiers[j].min_time
        assert fast.time_s == best.estimate_s
        if fast.config.key() != best.config.key():
            assert exact.estimate_for(fast.config) == best.estimate_s
            rate = config_dollar_rate(pipeline.cost_model or ZERO_COST, best.config)
            assert fast.dollars < best.estimate_s * rate
        for tag in HEURISTICS:
            found = searched[tag][j].best
            assert exact.estimate_for(found.config) == found.estimate_s, tag
        for pick in picks:
            entry = exact.ranking[pick % len(exact.ranking)]
            assert pipeline.estimate(entry.config, n).total == entry.estimate_s
    for tag in BACKENDS:
        again = pipeline.optimizer(backend=tag).optimize_many(sizes)
        assert [signature(o) for o in again] == [
            signature(o) for o in searched[tag]
        ], tag
    assert [frontier_signature(f) for f in pipeline.pareto_many(sizes)] == [
        frontier_signature(f) for f in frontiers
    ]


class TestSearchOracles:
    @given(
        pipeline=pipelines(),
        sizes=st.lists(st.integers(min_value=500, max_value=9000),
                       min_size=1, max_size=2, unique=True),
        picks=st.lists(st.integers(min_value=0, max_value=10**6),
                       min_size=SCALAR_CHECKS, max_size=SCALAR_CHECKS),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_backends_agree_with_exhaustive(self, pipeline, sizes, picks):
        check_oracles(pipeline, sizes, picks)


class TestPinnedRegressions:
    @pytest.mark.parametrize("tag", ["greedy", "hill-climb", "anneal"])
    def test_heuristic_stuck_out_of_domain_names_the_cause(self, tag):
        # Found by this suite's strategy widened to orders down to N = 1:
        # at N = 20 one of these 15 candidates is estimable, exhaustive
        # ranks it first, and these heuristics never reach it.  They used
        # to claim "all models out of domain", which is false.
        spec = synthetic_cluster([0.5, 1.0], nodes_per_kind=3)
        plan = custom_plan(spec, CONSTRUCTION, (1600,), max_procs=1,
                           multiproc_kinds=spec.kind_names)
        pipeline = EstimationPipeline(
            spec, PipelineConfig(seed=1, adjust=False), plan=plan
        )
        assert pipeline.optimize(20).best.estimate_s < float("inf")
        with pytest.raises(SearchError, match="no candidate could be estimated") as raised:
            pipeline.optimize(20, backend=tag)
        message = str(raised.value)
        assert "all models out of domain" not in message
        assert "evaluated at N=20" in message and "exact backend" in message
