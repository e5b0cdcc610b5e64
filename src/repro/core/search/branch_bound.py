"""Branch-and-bound over a product configuration space.

The search tree assigns one kind's ``(pe_count, procs_per_pe)`` choice
per level.  At any interior node, the total process count ``P`` of every
completion lies in an interval computed from suffix aggregates, and the
paper's objective structure (per-kind time depends only on
``(kind, Mi, N, P)``; the configuration total is the scaled per-kind
maximum) gives a cheap lower bound on the whole subtree: every
completion runs at some ``P* in [p_lo, p_hi]`` and costs at least the
element-wise **max profile** of the already-fixed active kinds at
``P*``, so

    subtree >= scale_lb * min over P in [p_lo, p_hi] of
               max over fixed active kinds of t_kind(kind, Mi, N, P)

The max profile is maintained incrementally along the DFS path (one
vectorized ``np.maximum`` per fixed active kind), so each child bound is
one array slice minimum.  A subtree is cut only when its bound
*strictly* exceeds the incumbent value — so every candidate whose value
ties the optimum is still evaluated, and the final winner is selected by
the same ``(estimate, config.key())`` order the exhaustive optimizer
uses.  Since both backends evaluate the winning configuration through
the identical objective, branch-and-bound agrees with exhaustive
**bitwise** on ``SearchOutcome.best`` (the golden tests assert this on
the paper grid).  Leaves are evaluated in blocks: before descending
into its leaf children, a node fetches every child that survives its
incumbent check as one objective call, and the DFS then takes those
values in its own order.

With ``budget=k`` the search becomes anytime: it stops after ``k``
objective evaluations — or after ``work_factor * k`` bound computations,
which caps the interior-node walk on spaces so large that pruning alone
never exhausts them (the ROADMAP's 10-kind datacenter has ~10^23
configurations) — and returns the incumbent-so-far with
``stats.exhausted=True``.  Children are visited most-promising-first, so
early incumbents are already good.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

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
    rank_evaluations,
    validated_estimate,
)
from repro.core.search.bounds import BOUND_SLACK, KindTimeBound
from repro.core.search.registry import register_search
from repro.core.search.space import SearchSpace
from repro.errors import SearchError


@register_search("branch-bound")
class BranchBoundSearch(SearchBackend):
    """Exact search with model-derived subtree pruning."""

    def __init__(
        self,
        grid_estimator: GridEstimator,
        space: SearchSpace,
        bounds: KindTimeBound,
        allow_unestimable: bool = True,
        budget: Optional[int] = None,
        work_factor: int = 256,
    ):
        if bounds is None:
            raise SearchError(
                "branch-and-bound needs a bound oracle "
                "(SearchProblem.bounds); without one it cannot prune"
            )
        if budget is not None and budget < 1:
            raise SearchError(f"budget must be >= 1, got {budget}")
        if work_factor < 1:
            raise SearchError(f"work_factor must be >= 1, got {work_factor}")
        self.grid_estimator = grid_estimator
        self.space = space
        self.bounds = bounds
        self.allow_unestimable = allow_unestimable
        self.budget = budget
        self.work_factor = work_factor
        self.stats = None

        kinds = space.kinds
        choices = space.choices
        depth_range = range(len(kinds) + 1)
        # Suffix aggregates over kinds [depth:]: process-count extremes,
        # the largest reachable per-PE process count, and leaf counts
        # (total completions / all-idle completions) for prune accounting.
        self._suffix_min_procs = [0] * len(depth_range)
        self._suffix_max_procs = [0] * len(depth_range)
        self._suffix_max_mi = [0] * len(depth_range)
        self._suffix_leaves = [1] * len(depth_range)
        self._suffix_idle = [1] * len(depth_range)
        for depth in reversed(range(len(kinds))):
            procs = [pe * m for pe, m in choices[depth]]
            self._suffix_min_procs[depth] = (
                min(procs) + self._suffix_min_procs[depth + 1]
            )
            self._suffix_max_procs[depth] = (
                max(procs) + self._suffix_max_procs[depth + 1]
            )
            self._suffix_max_mi[depth] = max(
                max(m for _, m in choices[depth]), self._suffix_max_mi[depth + 1]
            )
            self._suffix_leaves[depth] = len(choices[depth]) * self._suffix_leaves[
                depth + 1
            ]
            self._suffix_idle[depth] = sum(
                1 for pe, _ in choices[depth] if pe == 0
            ) * self._suffix_idle[depth + 1]

    @classmethod
    def from_problem(
        cls,
        problem: SearchProblem,
        budget: Optional[int] = None,
        work_factor: int = 256,
    ) -> "BranchBoundSearch":
        space = problem.resolved_space()
        if not problem.covers_space():
            raise SearchError(
                "branch-and-bound needs a product-structured candidate set "
                f"(got {len(list(problem.candidates))} candidates that do not "
                f"form the {space.size}-configuration grid their per-kind "
                "choices span); use the exhaustive backend for irregular sets"
            )
        bounds = problem.resolved_bounds()
        if bounds is None:
            raise SearchError(
                "branch-and-bound needs a bound oracle "
                "(SearchProblem.bounds); without one it cannot prune"
            )
        return cls(
            problem.grid_estimator,
            space,
            bounds,
            allow_unestimable=problem.allow_unestimable,
            budget=budget,
            work_factor=work_factor,
        )

    # -- search -------------------------------------------------------------

    def _subtree_leaves(self, depth: int, p_fixed: int) -> int:
        """Runnable configurations below a node at ``depth`` whose fixed
        prefix already contributes ``p_fixed`` processes."""
        count = self._suffix_leaves[depth]
        if p_fixed == 0:
            count -= self._suffix_idle[depth]
        return count

    def _fetch_leaves(
        self,
        block: List[Tuple[Tuple[int, int], ...]],
        n: int,
        leaf_values: dict,
    ) -> None:
        """Evaluate a node's leaf block (full choice assignments) in one
        objective call into ``leaf_values``; :meth:`_take_leaf` pops each
        value when the walk reaches that leaf.  An incumbent or archive
        that improves mid-block only prunes more, so untaken values are
        simply discarded."""
        if block:
            configs = [self.space.config_of(key) for key in block]
            column = grid_block(self.grid_estimator, configs, [n])[:, 0]
            leaf_values.update(zip(block, column.tolist()))

    def _take_leaf(
        self,
        key: Tuple[Tuple[int, int], ...],
        config: ClusterConfig,
        n: int,
        leaf_values: dict,
    ) -> float:
        """The validated value of the leaf the walk has reached.  A leaf
        outside its parent's block — the block stops at the remaining
        budget, and a walk that skips pruned leaves can take leaves past
        that cut — is evaluated as a 1x1 block."""
        raw = leaf_values.pop(key, None)
        if raw is None:
            raw = float(grid_block(self.grid_estimator, [config], [n])[0, 0])
        return validated_estimate(raw, config, n, self.allow_unestimable)

    def _node_bound(
        self,
        n: int,
        depth: int,
        p_fixed: int,
        mi_fixed: int,
        max_profile: Optional[np.ndarray],
        stats: SearchStats,
    ) -> float:
        """Lower bound on every completion of a node (see module doc)."""
        stats.bound_evaluations += 1
        p_lo = max(p_fixed + self._suffix_min_procs[depth], 1)
        p_hi = p_fixed + self._suffix_max_procs[depth]
        mi_lo = max(mi_fixed, 1)
        mi_hi = max(mi_fixed, self._suffix_max_mi[depth])
        scale_lb = self.bounds.scale_min(mi_lo, mi_hi)
        if max_profile is not None:
            hi = min(p_hi, self.bounds.p_max)
            if hi < p_lo:
                return math.inf
            t_lb = float(max_profile[p_lo : hi + 1].min())
        else:
            # Nothing is active yet, but every runnable completion
            # activates at least one remaining kind — its time is at
            # least the cheapest remaining active choice's minimum.
            t_lb = math.inf
            for j in range(depth, len(self.space.kinds)):
                for pe, m in self.space.choices[j]:
                    if pe > 0:
                        t_lb = min(
                            t_lb,
                            self.bounds.kind_min(
                                self.space.kinds[j], m, n, p_lo, p_hi
                            ),
                        )
        return BOUND_SLACK * scale_lb * t_lb

    def optimize(self, n: int) -> SearchOutcome:
        n = problem_orders([n])[0]
        started = time.perf_counter()
        stats = SearchStats(backend=self.backend_type, budget=self.budget)
        self.stats = stats
        evaluated: List[Tuple[ClusterConfig, float]] = []
        # Incumbent ordered by (value, key): the exhaustive tie-break.
        incumbent: List[object] = [math.inf, ()]
        space = self.space
        n_kinds = len(space.kinds)
        assignment: List[Tuple[int, int]] = []
        # Leaf values fetched by each leaf parent, keyed by the full
        # choice assignment (see _fetch_leaves).
        leaf_values: dict = {}
        work_cap = (
            None if self.budget is None else self.budget * self.work_factor
        )

        def walk(
            depth: int,
            p_fixed: int,
            mi_fixed: int,
            max_profile: Optional[np.ndarray],
        ) -> bool:
            """Depth-first expansion; returns False once out of budget."""
            if depth == n_kinds:
                if p_fixed == 0:
                    return True  # the all-idle combination is not runnable
                if (
                    self.budget is not None
                    and stats.evaluations >= self.budget
                ):
                    stats.exhausted = True
                    return False
                config = space.config_of(assignment)
                value = self._take_leaf(
                    tuple(assignment), config, n, leaf_values
                )
                stats.record(config, value)
                evaluated.append((config, value))
                contender = (value, config.key())
                if contender < (incumbent[0], incumbent[1]):
                    incumbent[0], incumbent[1] = contender
                return True

            if work_cap is not None and stats.bound_evaluations >= work_cap:
                stats.exhausted = True
                return False
            children = []
            for choice in space.choices[depth]:
                pe, m = choice
                if pe > 0:
                    profile = self.bounds.profile(space.kinds[depth], m, n)
                    child_profile = (
                        profile
                        if max_profile is None
                        else np.maximum(max_profile, profile)
                    )
                else:
                    child_profile = max_profile
                child_p = p_fixed + pe * m
                child_mi = max(mi_fixed, m)
                bound = self._node_bound(
                    n, depth + 1, child_p, child_mi, child_profile, stats
                )
                children.append((bound, choice, child_p, child_mi, child_profile))
            # Most promising subtree first: tighter incumbents earlier
            # mean more pruning later (and better anytime behavior).
            children.sort(key=lambda item: (item[0], item[1]))
            if depth + 1 == n_kinds:
                # The leaf block: every runnable child that survives the
                # *pre-block* incumbent check, capped at the remaining
                # budget.
                remaining = (
                    None
                    if self.budget is None
                    else self.budget - stats.evaluations
                )
                block: List[Tuple[Tuple[int, int], ...]] = []
                for bound, choice, child_p, _, _ in children:
                    if bound > incumbent[0]:
                        break
                    if child_p == 0:
                        continue
                    if remaining is not None and len(block) >= remaining:
                        break
                    block.append(tuple(assignment) + (choice,))
                self._fetch_leaves(block, n, leaf_values)
            for index, (bound, choice, child_p, child_mi, child_profile) in (
                enumerate(children)
            ):
                # Strict comparison: a subtree whose bound *equals* the
                # incumbent may hold a tied candidate that wins the key
                # tie-break, so it must still be explored.  Children are
                # bound-sorted, so the first pruned child prunes the rest.
                if bound > incumbent[0]:
                    for _, _, rest_p, _, _ in children[index:]:
                        stats.prune(self._subtree_leaves(depth + 1, rest_p))
                    break
                assignment.append(choice)
                alive = walk(depth + 1, child_p, child_mi, child_profile)
                assignment.pop()
                if not alive:
                    return False
            return True

        walk(0, 0, 0, None)
        # walk refers to itself; deleting it frees the search's state (and
        # bound oracle) now, not at the next cyclic garbage collection.
        del walk
        complete = stats.pruned_candidates == 0 and not stats.exhausted
        return rank_evaluations(
            n, evaluated, started, stats=stats, complete=complete
        )
