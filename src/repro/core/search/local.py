"""Local-search backends over the product configuration lattice.

The three classic heuristics of the paper's future-work Section 5 plus
a deterministic beam/local-search hybrid, all generalized from "a
cluster spec with processes 1..max_procs" to any
:class:`~repro.core.search.space.SearchSpace` — moves step between a
kind's *available* choices, which for a full spec-derived space
reproduces the original ±1 moves exactly.

* :class:`GreedyGrowth` — start from the best single-PE configuration and
  repeatedly take the best *improving move*; stops at a local optimum.
* :class:`HillClimber` — first-improvement local search with restarts.
* :class:`SimulatedAnnealing` — random moves with a cooling temperature;
  escapes the local optima the greedy methods get stuck in.
* :class:`BeamSearch` — keep the ``width`` best states, expand all their
  neighbors each round, then polish the winner with greedy descent.
  Fully deterministic (ties break on state), and the backend of choice
  for *anytime* answers: under ``budget=k`` it stops after ``k``
  evaluations and reports the best state seen.

Moves change one coordinate: add/remove a PE of one kind, or increment/
decrement one kind's processes-per-PE (to the next available value).
"""

from __future__ import annotations

import inspect
import math
import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.spec import ClusterSpec
from repro.core.search.base import (
    CandidateBlock,
    GridEstimator,
    SearchBackend,
    SearchOutcome,
    SearchProblem,
    SearchStats,
    grid_block,
    key_ranks_of,
    problem_orders,
    rank_block,
    validated_estimate,
)
from repro.core.search.registry import register_search
from repro.core.search.space import SearchSpace
from repro.errors import SearchError
from repro.rng import stream

#: A state is its index on the space's :class:`~repro.core.search.space.Lattice`.
State = int


class _BudgetExhausted(Exception):
    """Internal control flow: the evaluation budget ran out mid-search."""


def full_candidate_space(
    spec: ClusterSpec, max_procs: int = 6
) -> List[ClusterConfig]:
    """Every configuration of a cluster with per-PE processes up to
    ``max_procs`` — the exhaustive ground truth (use with care: exponential
    in the number of kinds)."""
    return list(SearchSpace.from_spec(spec, max_procs).configs())


class LocalSearchBase(SearchBackend):
    """Shared state/move machinery of the local searchers.

    Constructible two ways: ``(spec, grid_estimator, max_procs)`` over a
    cluster spec (``spec`` and ``max_procs`` stay available as
    attributes), or with a :class:`SearchSpace` in place of the spec,
    which is how :meth:`from_problem` builds instances for candidate
    grids and synthetic spaces.

    A state is an index on the space's
    :class:`~repro.core.search.space.Lattice`.  The objective is only
    ever called on blocks: each neighbor frontier
    is *prefetched* as one block, then the search consumes the values in
    its original order, so stats, trace and budget exhaustion count the
    evaluations actually taken.  A state outside every prefetched
    frontier (a random restart) is evaluated as a 1x1 block.  A block of
    pool members goes as a :class:`CandidateBlock`, any other block
    through the lattice.
    """

    def __init__(
        self,
        spec: Union[ClusterSpec, SearchSpace],
        grid_estimator: GridEstimator,
        max_procs: int = 6,
    ):
        if isinstance(spec, SearchSpace):
            self.spec: Optional[ClusterSpec] = None
            self.space = spec
            self.max_procs = spec.max_procs_per_pe
        else:
            if max_procs < 1:
                raise SearchError("max_procs must be >= 1")
            self.spec = spec
            self.space = SearchSpace.from_spec(spec, max_procs)
            self.max_procs = max_procs
        self.grid_estimator = grid_estimator
        self.kinds = list(self.space.kinds)
        self.lattice = self.space.lattice
        # The problem whose candidate pool blocks are addressed in.
        self._problem: Optional[SearchProblem] = None
        # Per-run state, emptied by _new_run: values taken so far, and
        # block-evaluated values not taken yet.
        self._cache: Dict[State, float] = {}
        self._prefetched: Dict[State, float] = {}
        self._allow_unestimable = True
        self._budget: Optional[int] = None
        self._seed = 0
        self._search_options: Dict[str, object] = {}
        self.stats = None

    @classmethod
    def from_problem(
        cls, problem: SearchProblem, budget: Optional[int] = None, **options
    ) -> "LocalSearchBase":
        if budget is not None and budget < 1:
            raise SearchError(f"budget must be >= 1, got {budget}")
        instance = cls(problem.resolved_space(), problem.grid_estimator)
        instance._problem = problem
        instance._allow_unestimable = problem.allow_unestimable
        instance._budget = budget
        instance._seed = problem.seed
        instance._search_options = dict(options)
        return instance

    # -- states and their configurations ---------------------------------------

    def _configs(self, states: Sequence[State]) -> Sequence[ClusterConfig]:
        """The configurations of ``states``, in order: the pool's own for
        pool members (a :class:`CandidateBlock` when every state is one),
        the lattice's for the rest."""
        problem = self._problem
        positions = None if problem is None else problem.pool_positions(states)
        if positions is not None and positions.min() >= 0:
            return CandidateBlock(problem.resolved_candidates(), positions)
        config = self.lattice.config
        if positions is None:
            return [config(state) for state in states]
        pool = problem.resolved_candidates()
        return [
            pool[p] if p >= 0 else config(state)
            for state, p in zip(states, positions.tolist())
        ]

    def _new_run(self) -> SearchStats:
        """Fresh stats for one search run; nothing taken or prefetched by
        an earlier run on this instance carries over."""
        self._cache.clear()
        self._prefetched.clear()
        return SearchStats()

    def _prefetch(
        self, frontier: Sequence[State], n: int, stats: SearchStats
    ) -> None:
        """Deduplicate a neighbor frontier and block-evaluate its fresh
        states in one objective call.

        States duplicated within the frontier or already taken this run
        are counted as ``dedup_hits``.  Prefetched values sit in
        ``self._prefetched`` until :meth:`_evaluate` takes them in the
        searcher's order — untaken cells never touch the cache, the
        stats or the budget.
        """
        fresh: List[State] = []
        seen: set = set()
        for state in frontier:
            if state in seen or state in self._cache:
                stats.dedup_hits += 1
                continue
            seen.add(state)
            # A state block-evaluated by an earlier frontier is not
            # fetched again, but it is still marked seen so an
            # in-frontier duplicate of it counts as a dedup hit.
            if state not in self._prefetched:
                fresh.append(state)
        if fresh:
            self._fetch(fresh, n)

    def _fetch(self, states: Sequence[State], n: int) -> None:
        column = grid_block(self.grid_estimator, self._configs(states), [n])[:, 0]
        self._prefetched.update(zip(states, column.tolist()))

    def _evaluate(self, state: State, n: int, stats: SearchStats) -> float:
        if state not in self._cache:
            if self._budget is not None and stats.evaluations >= self._budget:
                raise _BudgetExhausted()
            if state not in self._prefetched:
                self._fetch([state], n)
            value = self._prefetched.pop(state)
            # A configuration is built only for an error's text or a new best.
            if not (0 <= value < math.inf or (value == math.inf and self._allow_unestimable)):
                validated_estimate(value, self._configs([state])[0], n, self._allow_unestimable)
            self._cache[state] = value
            stats.record(
                self._configs([state])[0] if value < stats.best_estimate else None, value
            )
        return self._cache[state]

    def _single_pe_starts(self) -> List[State]:
        """Start states: for every kind, the smallest active configuration
        and the all-PEs-minimum-processes configuration.  Starting from
        both sides of the 'one fast PE vs many slow PEs' valley keeps
        greedy growth from being trapped on the wrong side of it."""
        lattice = self.lattice
        starts = []
        for k, pe_values in enumerate(lattice.pe_values):
            active_pes = [pe for pe in pe_values if pe > 0]
            for pe in dict.fromkeys(active_pes[:1] + active_pes[-1:]):  # fewest, most
                starts.append(lattice.place(k, pe, lattice.m_values[k][0]))
        return starts

    # -- the Search protocol -----------------------------------------------------

    def search(self, n: int, **options) -> SearchStats:
        raise NotImplementedError

    def optimize(self, n: int) -> SearchOutcome:
        """Run :meth:`search` and rank every configuration it evaluated.

        The outcome is marked ``complete=False``: a heuristic ranking
        covers the visited subset, not the space.
        """
        n = problem_orders([n])[0]
        started = time.perf_counter()
        options = dict(self._search_options)
        if self._accepts_seed() and "seed" not in options:
            options["seed"] = self._seed
        stats = self.search(n, **options)
        stats.backend = self.backend_type
        stats.budget = self._budget
        self.stats = stats
        if not self._cache:
            raise SearchError(f"no candidate was evaluated at N={n}")
        configs = self._configs(list(self._cache))
        values = np.fromiter(self._cache.values(), dtype=float, count=len(configs))
        if isinstance(configs, CandidateBlock):
            ranks = self._problem.key_ranks()[configs.positions]
            configs = [configs.pool[p] for p in configs.positions.tolist()]
        else:
            ranks = key_ranks_of(configs)
        return rank_block(n, configs, values, ranks, started, stats=stats, complete=False)

    def _accepts_seed(self) -> bool:
        return "seed" in inspect.signature(self.search).parameters


@register_search("greedy")
class GreedyGrowth(LocalSearchBase):
    """Best-improvement growth from the best single-PE configuration."""

    def search(self, n: int, max_steps: int = 200) -> SearchStats:
        stats = self._new_run()
        starts = self._single_pe_starts()
        if not starts:
            raise SearchError("cluster has no PEs")
        try:
            self._prefetch(starts, n, stats)
            current = min(starts, key=lambda s: self._evaluate(s, n, stats))
            for _ in range(max_steps):
                current_value = self._evaluate(current, n, stats)
                moves = self.lattice.moves(current)
                if not moves:
                    break
                self._prefetch(moves, n, stats)
                best_move = min(moves, key=lambda s: self._evaluate(s, n, stats))
                if self._evaluate(best_move, n, stats) >= current_value:
                    # Local optimum.  Greedy has no restarts, so stopping
                    # here with most of the space unseen is the
                    # "structurally stuck" failure mode — flag it rather
                    # than return a silently bad result.
                    stats.stuck = stats.evaluations < self.space.size
                    break
                current = best_move
        except _BudgetExhausted:
            stats.exhausted = True
        return stats


@register_search("hill-climb")
class HillClimber(LocalSearchBase):
    """First-improvement local search with random restarts."""

    def search(
        self, n: int, restarts: int = 4, max_steps: int = 200, seed: int = 0
    ) -> SearchStats:
        stats = self._new_run()
        rng = stream(seed, "hill-climber", n)
        try:
            for restart in range(max(restarts, 1)):
                current = self._random_state(rng)
                for _ in range(max_steps):
                    current_value = self._evaluate(current, n, stats)
                    moves = self.lattice.moves(current)
                    rng.shuffle(moves)
                    self._prefetch(moves, n, stats)
                    improved = False
                    for move in moves:
                        if self._evaluate(move, n, stats) < current_value:
                            current = move
                            improved = True
                            break
                    if not improved:
                        break
        except _BudgetExhausted:
            stats.exhausted = True
        return stats

    def _random_state(self, rng: np.random.Generator) -> State:
        lattice = self.lattice
        while True:
            state = 0
            for k, (pe_values, m_values) in enumerate(
                zip(lattice.pe_values, lattice.m_values)
            ):
                pe = pe_values[int(rng.integers(0, len(pe_values)))]
                if pe > 0:
                    m = m_values[int(rng.integers(0, len(m_values)))]
                    state += lattice.place(k, pe, m)
            if state:
                return state


@register_search("anneal")
class SimulatedAnnealing(LocalSearchBase):
    """Metropolis search with geometric cooling."""

    def search(
        self,
        n: int,
        steps: int = 400,
        initial_temperature: float = 0.3,
        cooling: float = 0.99,
        seed: int = 0,
    ) -> SearchStats:
        if steps < 1:
            raise SearchError("steps must be >= 1")
        if not (0.0 < cooling <= 1.0):
            raise SearchError("cooling must be in (0, 1]")
        stats = self._new_run()
        rng = stream(seed, "annealing", n)
        starts = self._single_pe_starts()
        if not starts:
            raise SearchError("cluster has no PEs")
        try:
            self._prefetch(starts, n, stats)
            current = min(starts, key=lambda s: self._evaluate(s, n, stats))
            current_value = self._evaluate(current, n, stats)
            temperature = initial_temperature * current_value
            # Block-evaluate the whole neighborhood once per *distinct*
            # current state: subsequent steps at the same state sample
            # from the already-prefetched frontier.
            prefetched_for: Optional[State] = None
            for _ in range(steps):
                if prefetched_for != current:
                    moves = self.lattice.moves(current)
                    if not moves:
                        break
                    self._prefetch(moves, n, stats)
                    prefetched_for = current
                move = moves[int(rng.integers(0, len(moves)))]
                value = self._evaluate(move, n, stats)
                delta = value - current_value
                if delta <= 0 or rng.random() < math.exp(
                    -delta / max(temperature, 1e-12)
                ):
                    current, current_value = move, value
                temperature *= cooling
        except _BudgetExhausted:
            stats.exhausted = True
        return stats


@register_search("beam")
class BeamSearch(LocalSearchBase):
    """Deterministic beam search with a greedy-descent polish.

    Each round evaluates every neighbor of the ``width`` best states and
    keeps the best ``width`` of the union; after ``patience`` rounds
    without improvement the winner is polished by best-improvement
    descent to a local optimum.  No randomness anywhere — ties break on
    the state — so two runs over the same problem are identical.
    """

    def search(
        self,
        n: int,
        width: int = 8,
        patience: int = 2,
        max_rounds: int = 64,
    ) -> SearchStats:
        if width < 1:
            raise SearchError("width must be >= 1")
        if patience < 1:
            raise SearchError("patience must be >= 1")
        stats = self._new_run()
        starts = self._single_pe_starts()
        if not starts:
            raise SearchError("cluster has no PEs")
        try:
            self._prefetch(starts, n, stats)
            scored = sorted(
                (self._evaluate(state, n, stats), state) for state in starts
            )
            beam = [state for _, state in scored[:width]]
            best_value = scored[0][0]
            stale = 0
            for _ in range(max_rounds):
                # Collect the round's whole frontier first so the grid
                # kernel sees one deduplicated block; the pool below then
                # consumes the values in the original expansion order.
                expansions = [(state, self.lattice.moves(state)) for state in beam]
                frontier: List[State] = []
                for state, moves in expansions:
                    frontier.append(state)
                    frontier.extend(moves)
                self._prefetch(frontier, n, stats)
                pool: Dict[State, float] = {}
                for state, moves in expansions:
                    pool[state] = self._evaluate(state, n, stats)
                    for move in moves:
                        if move not in pool:
                            pool[move] = self._evaluate(move, n, stats)
                ranked = sorted(pool.items(), key=lambda kv: (kv[1], kv[0]))
                beam = [state for state, _ in ranked[:width]]
                if ranked[0][1] < best_value:
                    best_value = ranked[0][1]
                    stale = 0
                else:
                    stale += 1
                    if stale >= patience:
                        break
            # Local-search polish: descend from the beam's best state.
            current = beam[0]
            while True:
                current_value = self._evaluate(current, n, stats)
                moves = self.lattice.moves(current)
                if not moves:
                    break
                self._prefetch(moves, n, stats)
                best_move = min(
                    moves,
                    key=lambda s: (self._evaluate(s, n, stats), s),
                )
                if self._evaluate(best_move, n, stats) >= current_value:
                    break
                current = best_move
        except _BudgetExhausted:
            stats.exhausted = True
        return stats
