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
    RankedEstimate,
    SearchBackend,
    SearchOutcome,
    SearchProblem,
    SearchStats,
    grid_block,
    key_ranks_of,
    problem_orders,
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
        candidate block in one call and rank each column with a
        vectorized ``(estimate, key)`` lexsort — the precomputed key
        ranks make its tie-break identical to sorting on the canonical
        keys themselves.
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
        self.grid_estimator = grid_estimator
        self.candidates = list(candidates)
        self.allow_unestimable = allow_unestimable
        # Derived on the first ranking, or taken from the problem.
        self._key_rank_cache: Optional[np.ndarray] = None
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
        if problem.candidates is not None:
            # A space-only problem would enumerate its space again to
            # rank the keys; the instance ranks the list it already holds.
            instance._key_rank_cache = problem.key_ranks()
        return instance

    @property
    def _key_ranks(self) -> np.ndarray:
        """The candidates' :func:`~repro.core.search.base.key_ranks_of`."""
        if self._key_rank_cache is None:
            self._key_rank_cache = key_ranks_of(self.candidates)
        return self._key_rank_cache

    def _rank(self, n: int, values: np.ndarray, started: float) -> SearchOutcome:
        """Rank one column: ``np.lexsort`` on (estimate, key rank)."""
        order = np.lexsort((self._key_ranks, values))
        ranking: List[RankedEstimate] = [
            RankedEstimate(
                config=self.candidates[i], n=n, estimate_s=float(values[i])
            )
            for i in order
        ]
        if not np.isfinite(ranking[0].estimate_s):
            raise SearchError(
                f"no candidate could be estimated at N={n} "
                "(all models out of domain)"
            )
        stats = SearchStats(
            backend=self.backend_type,
            evaluations=len(self.candidates),
            best_config=ranking[0].config,
            best_estimate=ranking[0].estimate_s,
        )
        self.stats = stats
        return SearchOutcome(
            n=n,
            ranking=ranking,
            search_seconds=time.perf_counter() - started,
            stats=stats,
            complete=True,
        )

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
            outcome = self._rank(n, values, column_started)
            outcome.search_seconds += eval_share
            outcomes.append(outcome)
        return outcomes


# rank_evaluations is the order-independent form of ``_rank`` the other
# backends use; re-exported here so the two ranking paths are findable
# side by side.
__all__ = ["ExhaustiveOptimizer", "rank_evaluations"]
