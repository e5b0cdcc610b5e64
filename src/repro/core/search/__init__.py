"""Pluggable configuration search (the Search protocol).

The paper enumerates 62 candidates exhaustively; this package keeps that
search as one *backend* among several behind a common protocol:

=============  ==============================================  ========
tag            strategy                                        exact?
=============  ==============================================  ========
exhaustive     evaluate every candidate (the paper's search)   yes
branch-bound   DFS + model-derived subtree lower bounds        yes
beam           deterministic beam + greedy polish              no
greedy         best-improvement growth                         no
hill-climb     first-improvement with restarts                 no
anneal         simulated annealing                             no
=============  ==============================================  ========

Exact backends agree **bitwise** with each other on ``SearchOutcome.best``;
heuristics trade completeness for evaluation count.  ``branch-bound`` and
``beam`` accept an evaluation ``budget`` and return anytime answers with
``stats.exhausted=True`` when it runs out (the local searchers honor a
budget, too).

Every backend takes one objective, a grid estimator ``(configs, ns) ->
(C, S)`` (the pipeline's ``estimate_grid``); :func:`pointwise` lifts a
per-cell ``(config, n) -> seconds`` function into that form.  Construct a
backend from a :class:`SearchProblem` with :func:`create_search`;
importing this package registers every built-in backend.
"""

from repro.core.search.base import (
    CandidateBlock,
    GridEstimator,
    RankedEstimate,
    SearchBackend,
    SearchOutcome,
    SearchProblem,
    SearchStats,
    actual_best,
    grid_block,
    pointwise,
    problem_orders,
    rank_evaluations,
    validated_estimate,
    validated_estimates,
)
from repro.core.search.bounds import KindTimeBound, estimator_bounds
from repro.core.search.branch_bound import BranchBoundSearch
from repro.core.search.exhaustive import ExhaustiveOptimizer
from repro.core.search.local import (
    BeamSearch,
    GreedyGrowth,
    HillClimber,
    LocalSearchBase,
    SimulatedAnnealing,
    full_candidate_space,
)
from repro.core.search.registry import (
    DEFAULT_BACKEND,
    create_search,
    iter_search_registry,
    register_search,
    registered_search_backends,
    search_backend_class,
)
from repro.core.search.space import SearchSpace
from repro.core.search.synthetic import (
    synthetic_estimator,
    synthetic_kind_params,
    synthetic_kind_time,
    synthetic_problem,
)

__all__ = [
    "BeamSearch",
    "BranchBoundSearch",
    "CandidateBlock",
    "DEFAULT_BACKEND",
    "ExhaustiveOptimizer",
    "GreedyGrowth",
    "GridEstimator",
    "HillClimber",
    "KindTimeBound",
    "LocalSearchBase",
    "RankedEstimate",
    "SearchBackend",
    "SearchOutcome",
    "SearchProblem",
    "SearchSpace",
    "SearchStats",
    "SimulatedAnnealing",
    "actual_best",
    "create_search",
    "estimator_bounds",
    "full_candidate_space",
    "grid_block",
    "iter_search_registry",
    "pointwise",
    "problem_orders",
    "rank_evaluations",
    "register_search",
    "registered_search_backends",
    "search_backend_class",
    "synthetic_estimator",
    "synthetic_kind_params",
    "synthetic_kind_time",
    "synthetic_problem",
    "validated_estimate",
    "validated_estimates",
]
