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
* a second call on the same pipeline (the engine's shared search
  problem, warm estimate cache) repeats the first bitwise.

Problem orders there stay at or above the construction range's scale:
far below it most candidates are out of the models' domain, and a
heuristic may visit none of the few that are not
(``TestPinnedRegressions``).  The full-grid oracle (``TestGridPaths``)
goes below it on purpose, with and without memory bins: the engine's
pool path (exhaustive's values), the kernel's per-call path and the
scalar estimator must agree on every cell, ``+inf`` included.  Errors
keep the scalar loop's order: a candidate that cannot be routed or
validated fails only in a call that evaluates it, at its place in that
call's block.

Examples are derandomized so a failure reproduces; failures found are
pinned as regression tests below the suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.presets import synthetic_cluster
from repro.core.estimator import MemoryBin
from repro.core.grid_kernel import GridKernel
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.cost.evaluate import config_dollar_rate
from repro.cost.model import ZERO_COST, CostModel
from repro.errors import ConfigurationError, ModelError, SearchError
from repro.measure.grids import custom_plan

EXACT = ("branch-bound", "budget-frontier")
HEURISTICS = ("beam", "greedy", "hill-climb", "anneal")
BACKENDS = ("exhaustive",) + EXACT + HEURISTICS
CONSTRUCTION = (400, 800, 1600, 3200)
#: Pools up to this size are checked on every cell against the scalar
#: estimator; larger ones on a seeded sample of SAMPLED_CELLS cells.
FULL_GRID = 500
SAMPLED_CELLS = 64
#: Memory-pressure bins spanning the ratios the synthetic clusters reach.
BINS = (
    MemoryBin(0.05),
    MemoryBin(0.3, ta_scale=1.3, tc_scale=1.1),
    MemoryBin(1.0, ta_scale=2.5, tc_scale=1.7),
)


@st.composite
def pipelines(draw, binned=False):
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
    bins = BINS if binned and draw(st.booleans()) else ()
    return EstimationPipeline(
        spec,
        PipelineConfig(seed=seed, adjust=False, cost=cost, memory_bins=bins),
        plan=plan,
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


def check_oracles(pipeline, sizes):
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
    for tag in BACKENDS:
        again = pipeline.optimizer(backend=tag).optimize_many(sizes)
        assert [signature(o) for o in again] == [
            signature(o) for o in searched[tag]
        ], tag
    assert [frontier_signature(f) for f in pipeline.pareto_many(sizes)] == [
        frontier_signature(f) for f in frontiers
    ]


def check_grid_paths(pipeline, sizes, seed):
    """Pool path == per-call path == scalar estimator, cell by cell."""
    pool = pipeline.graph.get("search").problem.resolved_candidates()
    pipeline.estimate_cache.clear()
    pooled = pipeline.estimate_grid(pool, sizes)
    per_call = GridKernel(pipeline.models, pipeline.adjustment).evaluate(
        list(pool), sizes
    )
    assert pooled.tobytes() == per_call.tobytes()
    for j, n in enumerate(sizes):
        pipeline.estimate_cache.clear()
        if np.isfinite(pooled[:, j]).any():
            exact = pipeline.optimize(n)
            assert [exact.estimate_for(c) for c in pool] == pooled[:, j].tolist()
        else:
            with pytest.raises(SearchError, match="all models out of domain"):
                pipeline.optimize(n)
    cells = [(i, j) for i in range(len(pool)) for j in range(len(sizes))]
    if len(pool) > FULL_GRID:
        picks = np.random.default_rng(seed).choice(
            len(cells), SAMPLED_CELLS, replace=False
        )
        cells = [cells[k] for k in picks]
    for i, j in cells:
        assert pipeline.estimate(pool[i], sizes[j]).total == pooled[i, j]
    return int(np.isinf(pooled).sum())


class TestSearchOracles:
    @given(
        pipeline=pipelines(),
        sizes=st.lists(st.integers(min_value=500, max_value=9000),
                       min_size=1, max_size=2, unique=True),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_backends_agree_with_exhaustive(self, pipeline, sizes):
        check_oracles(pipeline, sizes)


class TestGridPaths:
    @given(
        pipeline=pipelines(binned=True),
        small=st.integers(min_value=1, max_value=150),
        sizes=st.lists(st.integers(min_value=150, max_value=12000),
                       max_size=2, unique=True),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_pool_per_call_and_scalar_agree(self, pipeline, small, sizes, seed):
        check_grid_paths(pipeline, [small] + sizes, seed)

    def test_orders_below_the_construction_range_give_inf_cells(self):
        spec = synthetic_cluster([0.5, 1.0], nodes_per_kind=3)
        plan = custom_plan(spec, CONSTRUCTION, (1600,), max_procs=2,
                           multiproc_kinds=spec.kind_names)
        pipeline = EstimationPipeline(
            spec, PipelineConfig(seed=1, adjust=False, memory_bins=BINS), plan=plan
        )
        assert check_grid_paths(pipeline, [20, 4000], seed=0) > 0


def routing_pipeline():
    """124 candidates, some with no P-T model: 2 nodes per kind leave
    Mi = 1 with a single measured P."""
    spec = synthetic_cluster([0.5, 1.0, 2.0], nodes_per_kind=2, cpus_per_node=1)
    plan = custom_plan(spec, CONSTRUCTION, (1600,), max_procs=2,
                       multiproc_kinds=spec.kind_names)
    return EstimationPipeline(spec, PipelineConfig(seed=1, adjust=False), plan=plan)


class TestErrorOrder:
    #: The ModelError each backend meets first at N = 4000: the first
    #: unroutable pool member in the order that backend evaluates.
    FIRST_FAILURE = {
        "exhaustive": "(kind2, Mi=1)",
        "branch-bound": "(kind2, Mi=1)",
        "beam": "(kind0, Mi=1)",
        "greedy": "(kind0, Mi=1)",
        "anneal": "(kind0, Mi=1)",
        "hill-climb": "(kind1, Mi=1)",
    }

    @pytest.mark.parametrize("tag", sorted(FIRST_FAILURE))
    def test_routing_error_per_backend(self, tag):
        pipeline = routing_pipeline()
        assert len(pipeline.plan.evaluation_configs) == 124
        expected = f"no P-T model for {self.FIRST_FAILURE[tag]}"
        for _ in range(2):  # a failed row stays unrouted and fails again
            with pytest.raises(ModelError) as raised:
                pipeline.optimize(4000, backend=tag)
            assert str(raised.value) == expected

    def test_failure_only_where_evaluated_in_block_order(self):
        pipeline = routing_pipeline()
        pool = pipeline.graph.get("search").problem.resolved_candidates()
        routable, failing = [], []
        for config in pool:
            try:
                pipeline.estimate(config, 4000)
                routable.append(config)
            except ModelError as error:
                failing.append((config, str(error)))
        assert routable and len({message for _, message in failing}) > 1
        first, second = next(
            (a, b) for a in failing for b in failing if a[1] != b[1]
        )
        # Routable members alone never meet the unroutable ones.
        pipeline.estimate_grid(routable, [4000])
        for block in ([first, second], [second, first]):
            configs = routable[:3] + [c for c, _ in block]
            with pytest.raises(ModelError) as raised:
                pipeline.estimate_grid(configs, [4000])
            assert str(raised.value) == block[0][1]
        assert pipeline.estimate_grid(routable, [4000]).shape == (len(routable), 1)

    def test_validation_error_at_the_scalar_loops_first_candidate(self):
        pipeline = routing_pipeline()
        pool = list(pipeline.plan.evaluation_configs[:5])
        bad = [ClusterConfig.of(kind0=(3, 1)), ClusterConfig.of(kind9=(1, 1))]
        candidates = pool[:2] + bad + pool[2:]
        with pytest.raises(ConfigurationError) as scalar:
            for config in candidates:
                pipeline.estimate(config, 4000)
        for run in (
            lambda: pipeline.optimizer(candidates=candidates).optimize(4000),
            lambda: pipeline.grid_kernel.evaluate(candidates, [4000]),
            lambda: pipeline.estimate_grid(candidates, [4000]),
        ):
            with pytest.raises(ConfigurationError) as raised:
                run()
            assert str(raised.value) == str(scalar.value)


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
