"""The paper's flat enumeration as a registered search backend.

Section 3.1 frames configuration selection as combinatorial optimization
with the model as the objective function; Section 4 reports the
enumeration takes ~35 ms for 62 candidates x 5 sizes.
:class:`ExhaustiveOptimizer` is that search, over any grid objective —
the pipeline's grid kernel in production, :func:`~repro.core.search.
base.pointwise`-lifted plain functions in tests, and the heuristic
searchers compare themselves against it.  It remains the reference
every other backend must match (exact backends bitwise, heuristics
within tolerance).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.core.search.base import (
    GridEstimator,
    SearchBackend,
    SearchOutcome,
    SearchProblem,
    SearchStats,
    grid_block,
    problem_orders,
    rank_block,
    rank_evaluations,
    validated_estimates,
)
from repro.core.search.registry import register_search
from repro.errors import SearchError


@register_search("exhaustive")
class ExhaustiveOptimizer(SearchBackend):
    """Estimate every candidate and rank them.

    Parameters
    ----------
    grid_estimator:
        Objective ``(configs, sizes) -> (C, S) array``.  Both
        :meth:`optimize` and :meth:`optimize_many` evaluate the entire
        candidate block in one call and rank each column with
        :func:`~repro.core.search.base.rank_block`, whose
        ``(estimate, key rank)`` lexsort breaks ties exactly as sorting
        on the canonical keys themselves would.
    candidates:
        The configuration space (the paper's 62 evaluation configurations,
        or anything else).
    allow_unestimable:
        ``+inf`` is the pipeline estimator's sanctioned "model outside its
        domain" signal, and by default such candidates simply rank last
        (raising only when *no* candidate is finite).  An objective that
        is supposed to cover every candidate — a plain function in a
        heuristic-search comparison, say — can pass ``False`` to turn any
        ``+inf`` into an immediate :class:`SearchError` instead of a
        silently deprioritized candidate.  NaN and negative values
        (including ``-inf``) always raise.
    """

    def __init__(
        self,
        grid_estimator: GridEstimator,
        candidates: Sequence[ClusterConfig],
        allow_unestimable: bool = True,
    ):
        if not candidates:
            raise SearchError("empty candidate set")
        #: Holds the key ranks; from_problem shares the caller's problem.
        self.problem = SearchProblem(
            grid_estimator, candidates=candidates, allow_unestimable=allow_unestimable
        )
        self.grid_estimator = grid_estimator
        # The problem's tuple itself: an objective may recognize it (the
        # search engine evaluates its own pool by row).
        self.candidates = self.problem.resolved_candidates()
        self.allow_unestimable = allow_unestimable
        self.stats = None

    @classmethod
    def from_problem(
        cls, problem: SearchProblem, budget: Optional[int] = None
    ) -> "ExhaustiveOptimizer":
        if budget is not None:
            raise SearchError(
                "the exhaustive backend enumerates the full space and does "
                "not support an evaluation budget (pick 'branch-bound' or "
                "'beam' for budgeted search)"
            )
        instance = cls(
            problem.grid_estimator,
            problem.resolved_candidates(),
            allow_unestimable=problem.allow_unestimable,
        )
        instance.problem = problem
        return instance

    @property
    def _key_ranks(self) -> np.ndarray:
        """The problem's key ranks of the candidates."""
        return self.problem.key_ranks()

    def optimize(self, n: int) -> SearchOutcome:
        """Rank all candidates for problem order ``n`` (ascending time)."""
        return self.optimize_many([n])[0]

    def optimize_many(self, ns: Sequence[int]) -> List[SearchOutcome]:
        """Rank all candidates for every size in ``ns`` — the sweep path.

        The candidates x sizes grid is evaluated in one objective call;
        each outcome's ``search_seconds`` is its share of that evaluation
        plus its own ranking cost.
        """
        sizes = problem_orders(ns)
        if not sizes:
            raise SearchError("optimize_many needs at least one size")
        started = time.perf_counter()
        grid = grid_block(self.grid_estimator, self.candidates, sizes)
        eval_share = (time.perf_counter() - started) / len(sizes)
        outcomes = []
        for j, n in enumerate(sizes):
            column_started = time.perf_counter()
            values = validated_estimates(
                grid[:, j], self.candidates, n, self.allow_unestimable
            )
            stats = SearchStats(
                backend=self.backend_type, evaluations=len(self.candidates)
            )
            outcome = rank_block(
                n, self.candidates, values, self._key_ranks, column_started,
                stats=stats,
            )
            stats.best_config = outcome.best.config
            stats.best_estimate = outcome.best.estimate_s
            self.stats = stats
            outcome.search_seconds += eval_share
            outcomes.append(outcome)
        return outcomes


# rank_evaluations is the (config, estimate)-pair form of rank_block the
# other backends use; re-exported here so the two ranking entry points
# are findable side by side.
__all__ = ["ExhaustiveOptimizer", "rank_evaluations"]
