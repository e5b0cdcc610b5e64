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
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.config import ClusterConfig, KindAllocation
from repro.cluster.spec import ClusterSpec
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
from repro.core.search.registry import register_search
from repro.core.search.space import SearchSpace
from repro.errors import SearchError
from repro.rng import stream

State = Tuple[Tuple[str, int, int], ...]  # ((kind, pe_count, procs), ...)


class _BudgetExhausted(Exception):
    """Internal control flow: the evaluation budget ran out mid-search."""


def full_candidate_space(
    spec: ClusterSpec, max_procs: int = 6
) -> List[ClusterConfig]:
    """Every configuration of a cluster with per-PE processes up to
    ``max_procs`` — the exhaustive ground truth (use with care: exponential
    in the number of kinds)."""
    return list(SearchSpace.from_spec(spec, max_procs).configs())


def _successor(values: List[int], current: int) -> Optional[int]:
    index = bisect_right(values, current)
    return values[index] if index < len(values) else None


def _predecessor(values: List[int], current: int) -> Optional[int]:
    index = bisect_left(values, current)
    return values[index - 1] if index > 0 else None


class LocalSearchBase(SearchBackend):
    """Shared state/move machinery of the local searchers.

    Constructible two ways: ``(spec, grid_estimator, max_procs)`` over a
    cluster spec (``spec`` and ``max_procs`` stay available as
    attributes), or with a :class:`SearchSpace` in place of the spec,
    which is how :meth:`from_problem` builds instances for candidate
    grids and synthetic spaces.

    The objective is only ever called on blocks: each neighbor frontier
    is *prefetched* as one block, then the search consumes the values in
    its original order, so stats, trace and budget exhaustion count the
    evaluations actually taken.  A state outside every prefetched
    frontier (a random restart) is evaluated as a 1x1 block.
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
        self._pe_values = {k: self.space.pe_values(k) for k in self.kinds}
        self._m_values = {k: self.space.m_values(k) for k in self.kinds}
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
        instance._allow_unestimable = problem.allow_unestimable
        instance._budget = budget
        instance._seed = problem.seed
        instance._search_options = dict(options)
        return instance

    # -- state <-> config -----------------------------------------------------

    def _to_config(self, state: State) -> ClusterConfig:
        return ClusterConfig(
            tuple(KindAllocation(k, pe, m) for k, pe, m in state)
        )

    def _from_config(self, config: ClusterConfig) -> State:
        return tuple(
            (k, config.pe_count(k), config.procs_per_pe(k)) for k in self.kinds
        )

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
        configs = [self._to_config(state) for state in states]
        column = grid_block(self.grid_estimator, configs, [n])[:, 0]
        self._prefetched.update(zip(states, column.tolist()))

    def _evaluate(self, state: State, n: int, stats: SearchStats) -> float:
        if state not in self._cache:
            if self._budget is not None and stats.evaluations >= self._budget:
                raise _BudgetExhausted()
            if state not in self._prefetched:
                self._fetch([state], n)
            config = self._to_config(state)
            value = validated_estimate(
                self._prefetched.pop(state), config, n, self._allow_unestimable
            )
            self._cache[state] = value
            stats.record(config, value)
        return self._cache[state]

    # -- neighborhood ------------------------------------------------------------

    def _neighbors(self, state: State) -> List[State]:
        out: List[State] = []
        for index, (kind, pe, m) in enumerate(state):
            pe_values = self._pe_values[kind]
            m_values = self._m_values[kind]
            candidates = set()
            pe_up = _successor(pe_values, pe)
            if pe_up is not None:
                candidates.add((pe_up, m if m >= 1 else m_values[0]))
            pe_down = _predecessor(pe_values, pe)
            if pe_down is not None:
                candidates.add((pe_down, m if pe_down > 0 else 0))
            if pe > 0:
                m_up = _successor(m_values, m)
                if m_up is not None:
                    candidates.add((pe, m_up))
                m_down = _predecessor(m_values, m)
                if m_down is not None:
                    candidates.add((pe, m_down))
            for new_pe, new_m in candidates:
                new_state = list(state)
                new_state[index] = (kind, new_pe, new_m if new_pe > 0 else 0)
                candidate = tuple(new_state)
                if sum(pe_ * m_ for _, pe_, m_ in candidate) >= 1:
                    out.append(candidate)
        return out

    def _jump_moves(self, state: State) -> List[State]:
        """Kind-level jumps: activate an idle kind at its full PE count,
        or deactivate an active kind entirely.

        The objective is a max over active kinds, so activating a kind
        with *few* PEs usually makes it the new bottleneck — a valley the
        ±1 moves cannot cross (every intermediate state is worse).  The
        jump lands on the far side in one move: all the kind's PEs join
        at once (one jump per process count), which raises the total
        process count enough for the activation to pay off immediately
        when it ever will."""
        out: List[State] = []
        for index, (kind, pe, _) in enumerate(state):
            pe_values = self._pe_values[kind]
            if not pe_values or pe_values[-1] == 0:
                continue
            if pe == 0:
                jumps = [(pe_values[-1], m) for m in self._m_values[kind]]
            else:
                jumps = [(0, 0)]
            for new_pe, new_m in jumps:
                new_state = list(state)
                new_state[index] = (kind, new_pe, new_m)
                candidate = tuple(new_state)
                if sum(pe_ * m_ for _, pe_, m_ in candidate) >= 1:
                    out.append(candidate)
        return out

    def _moves(self, state: State) -> List[State]:
        """The full move set the searchers explore: single-coordinate
        neighbors plus kind activation/deactivation jumps."""
        return self._neighbors(state) + self._jump_moves(state)

    def _single_pe_starts(self) -> List[State]:
        """Start states: for every kind, the smallest active configuration
        and the all-PEs-minimum-processes configuration.  Starting from
        both sides of the 'one fast PE vs many slow PEs' valley keeps
        greedy growth from being trapped on the wrong side of it."""
        starts = []
        for index, kind in enumerate(self.kinds):
            active_pes = [pe for pe in self._pe_values[kind] if pe > 0]
            if not active_pes:
                continue
            lowest_m = self._m_values[kind][0]
            single = [(k, 0, 0) for k in self.kinds]
            single[index] = (kind, active_pes[0], lowest_m)
            starts.append(tuple(single))
            if len(active_pes) > 1:
                full = [(k, 0, 0) for k in self.kinds]
                full[index] = (kind, active_pes[-1], lowest_m)
                starts.append(tuple(full))
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
        entries = [
            (self._to_config(state), value)
            for state, value in self._cache.items()
        ]
        return rank_evaluations(
            n, entries, started, stats=stats, complete=False
        )

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
                moves = self._moves(current)
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
                    moves = self._moves(current)
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
        while True:
            state = []
            for kind in self.kinds:
                pe_values = self._pe_values[kind]
                m_values = self._m_values[kind]
                pe = pe_values[int(rng.integers(0, len(pe_values)))]
                m = (
                    m_values[int(rng.integers(0, len(m_values)))]
                    if pe > 0
                    else 0
                )
                state.append((kind, pe, m))
            if sum(pe * m for _, pe, m in state) >= 1:
                return tuple(state)


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
                moves = self._moves(current)
                if prefetched_for != current:
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
    the state tuple — so two runs over the same problem are identical.
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
                expansions = [(state, self._moves(state)) for state in beam]
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
                moves = self._moves(current)
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
