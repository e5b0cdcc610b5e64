"""Golden tests: every local searcher's outcomes, bit for bit.

``local_search_digests.json`` pins, for the greedy, hill-climb, anneal
and beam backends (unbudgeted and with ``budget=40``), the SHA-256 of
each outcome's ranking (every entry's ``as_flat_tuple(kinds)``, ``key()``
and ``estimate_s.hex()``), its ``complete`` flag, its
``SearchStats.to_dict(include_trace=True)`` and its best configuration's
key, over five problems:

* ``irregular`` — the paper's NS pipeline at seed 7, every evaluation
  size, searching a 50-candidate subset of its pool that is not a
  product space;
* ``ns`` — the same pipeline over its whole pool, afterwards;
* ``wide`` — the ``search-wide`` instance (``tests/conftest.py``'s
  ``wide_pipeline``) at ``TestWideRatios.SIZES``;
* ``synthetic4`` — ``synthetic_problem(n_kinds=4, pes_per_kind=4,
  max_procs=3)`` at three sizes;
* ``synthetic10`` — ``synthetic_problem()`` (10 kinds, ~1.1e23
  candidates) at one size.

It also pins the pipelines' estimate-cache hits, misses and entries and
grid-kernel counters after each of the first three problems' runs, so a change in which
blocks reach the objective shows even when every outcome is unchanged.

The file was captured from the code before local-search states became
lattice indices, by running this module as a script from the repository
root::

    PYTHONPATH=src python tests/golden/test_golden_local_search.py

which rewrites the JSON.  Recapture only for a deliberate change of the
searchers' results, and say which outcomes moved and why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.presets import kishimoto_cluster, synthetic_cluster
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.search import SearchSpace, create_search, synthetic_problem
from repro.measure.grids import custom_plan

GOLDEN_PATH = Path(__file__).parent / "local_search_digests.json"
BACKENDS = ("greedy", "hill-climb", "anneal", "beam")
BUDGETS = (None, 40)
#: ``TestWideRatios.SIZES`` of ``tests/core/test_search_pipelines.py``.
WIDE_SIZES = tuple(int(n) for n in np.linspace(1000, 12000, 8))
SYNTHETIC4_SIZES = (1600, 6400, 12000)
SYNTHETIC10_SIZES = (20000,)


def outcome_digest(outcome, kinds):
    ranking = [
        (entry.config.as_flat_tuple(kinds), entry.config.key(), entry.estimate_s.hex())
        for entry in outcome.ranking
    ]
    stats = outcome.stats
    payload = [
        ranking,
        outcome.complete,
        stats.to_dict(include_trace=True),
        stats.best_config.key(),
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def engine_counters(pipeline):
    cache = pipeline.estimate_cache
    return {
        "cache": {
            "hits": cache.stats.hits,
            "misses": cache.stats.misses,
            "entries": len(cache),
        },
        "grid": pipeline.perf.grid.to_dict(),
    }


def irregular_pool(pipeline):
    """Every configuration of the plan's pool but each fifth: 50 of 62."""
    pool = pipeline.plan.evaluation_configs
    return [config for i, config in enumerate(pool) if i % 5 != 4]


def wide_pipeline():
    """The ``search-wide`` instance of ``tests/conftest.py``."""
    spec = synthetic_cluster((0.3, 0.6, 1.2, 2.4), nodes_per_kind=4, cpus_per_node=2)
    plan = custom_plan(spec, (400, 800, 1600, 3200), (1600, 3200, 6400),
                       max_procs=3, multiproc_kinds=spec.kind_names)
    return EstimationPipeline(spec, PipelineConfig(seed=5, adjust=False), plan=plan)


def run_all():
    """Every pinned digest and counter, computed in one fixed order (the
    counters depend on what earlier runs left in the cache)."""
    digests, counters = {}, {}

    def runs(name, search, sizes, kinds):
        for tag in BACKENDS:
            for budget in BUDGETS:
                for n in sizes:
                    key = f"{name}/{tag}/{budget or 'none'}/{n}"
                    digests[key] = outcome_digest(search(tag, budget, n), kinds)

    ns = EstimationPipeline(kishimoto_cluster(), PipelineConfig(protocol="ns", seed=7))
    kinds = ns.plan.kinds
    pool = irregular_pool(ns)
    assert not SearchSpace.from_candidates(pool, kinds).is_exact_cover_of(pool)
    runs("irregular",
         lambda tag, budget, n: ns.optimizer(
             candidates=pool, backend=tag, budget=budget).optimize(n),
         ns.plan.evaluation_sizes, kinds)
    counters["irregular"] = engine_counters(ns)
    runs("ns", lambda tag, budget, n: ns.optimize(n, backend=tag, budget=budget),
         ns.plan.evaluation_sizes, kinds)
    counters["ns"] = engine_counters(ns)

    wide = wide_pipeline()
    runs("wide", lambda tag, budget, n: wide.optimize(n, backend=tag, budget=budget),
         WIDE_SIZES, wide.plan.kinds)
    counters["wide"] = engine_counters(wide)

    for name, problem, sizes in (
        ("synthetic4", synthetic_problem(n_kinds=4, pes_per_kind=4, max_procs=3),
         SYNTHETIC4_SIZES),
        ("synthetic10", synthetic_problem(), SYNTHETIC10_SIZES),
    ):
        runs(name,
             lambda tag, budget, n: create_search(tag, problem, budget=budget).optimize(n),
             sizes, problem.resolved_kinds())
    return {"digests": digests, "counters": counters}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return run_all()


def test_every_run_is_pinned(golden, current):
    assert sorted(golden["digests"]) == sorted(current["digests"])


@pytest.mark.parametrize("problem", ("ns", "irregular", "wide", "synthetic4", "synthetic10"))
def test_outcomes_unchanged(golden, current, problem):
    moved = [
        key
        for key, digest in current["digests"].items()
        if key.startswith(problem + "/") and golden["digests"][key] != digest
    ]
    assert not moved, f"outcomes moved: {moved}"


@pytest.mark.parametrize("pipeline", ("ns", "irregular", "wide"))
def test_engine_counters_unchanged(golden, current, pipeline):
    assert current["counters"][pipeline] == golden["counters"][pipeline]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
