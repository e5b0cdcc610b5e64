"""Shared machinery of every search backend: outcomes, stats, problems.

The paper's Section 3.1 frames configuration selection as combinatorial
optimization with the fitted model as the objective.  This module holds
everything that is *not* specific to how a backend explores the space:

* :class:`RankedEstimate` / :class:`Ranking` / :class:`SearchOutcome` —
  the result types every backend returns;
* :class:`SearchStats` — per-run cost accounting (evaluations, prune
  counts, best-so-far trace, branch-and-bound counters);
* :class:`SearchProblem` — one bundle of objective + space + options
  that :func:`repro.core.search.registry.create_search` hands to a
  backend's ``from_problem`` constructor, deriving what the backends
  need from its candidates once;
* the one objective form every backend takes, a :data:`GridEstimator`
  ``(configs, ns) -> (C, S)`` block — :func:`pointwise` lifts a per-cell
  function into it and :func:`grid_block` is the single call site that
  evaluates one and checks its shape;
* :class:`SearchBackend` — the protocol base class: a backend implements
  ``optimize(n)`` and inherits ``optimize_many``/``best``;
* :func:`problem_orders` — the one check of the problem orders every
  backend (and every pipeline estimate entry point) is asked for;
* validation and ranking helpers with the exact error semantics the
  exhaustive optimizer established (``+inf`` ranks last unless
  ``allow_unestimable=False``; NaN/negative always raise; an all-``inf``
  ranking raises).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.core.search.space import SearchSpace
from repro.errors import ModelError, SearchError

#: The objective every search backend takes: (configurations,
#: [n1, n2, ...]) -> a ``(C, S)`` array of estimated seconds — in
#: production the candidate-axis grid kernel behind
#: :meth:`repro.core.pipeline.EstimationPipeline.estimate_grid`, whose
#: cell ``[i, j]`` is bitwise ``estimate(configs[i], ns[j]).total``.
GridEstimator = Callable[
    [Sequence[ClusterConfig], Sequence[int]], "np.ndarray"
]


def pointwise(fn: Callable[[ClusterConfig, int], float]) -> GridEstimator:
    """Lift a per-cell objective ``(config, n) -> seconds`` to the grid
    form: cell ``[i, j]`` is ``fn(configs[i], ns[j])``, evaluated row by
    row in block order (so an exception surfaces on the same first
    candidate a per-cell loop would reach)."""

    def grid(
        configs: Sequence[ClusterConfig], ns: Sequence[int]
    ) -> np.ndarray:
        sizes = [int(n) for n in ns]
        out = np.empty((len(configs), len(sizes)), dtype=float)
        for i, config in enumerate(configs):
            for j, n in enumerate(sizes):
                out[i, j] = float(fn(config, n))
        return out

    return grid


class CandidateBlock(Sequence[ClusterConfig]):
    """Pool members ``pool[positions[i]]`` as a read-only sequence of
    configurations; the search engine reads ``positions`` as rows."""

    def __init__(self, pool: Sequence[ClusterConfig], positions: "np.ndarray"):
        self.pool = pool
        self.positions = positions

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index: int) -> ClusterConfig:
        return self.pool[self.positions[index]]


def grid_block(
    objective: GridEstimator,
    configs: Sequence[ClusterConfig],
    ns: Sequence[int],
) -> np.ndarray:
    """Evaluate one ``(C, S)`` block of ``objective`` and check its shape —
    the one place a backend calls its objective."""
    block = np.asarray(objective(configs, ns), dtype=float)
    expected = (len(configs), len(ns))
    if block.shape != expected:
        raise SearchError(
            f"grid estimator returned shape {block.shape}, expected {expected}"
        )
    return block


@dataclass
class SearchStats:
    """Cost/quality accounting of one search run.

    The original heuristics fields (``evaluations``, ``best_config``,
    ``best_estimate``, ``trace``) keep their exact semantics;
    :meth:`record` appends the running best to ``trace`` per objective
    evaluation.  The pruning counters are only touched by backends that
    prune (branch-and-bound), and ``exhausted`` marks a run stopped by
    its evaluation budget rather than by covering the space.
    """

    evaluations: int = 0
    best_config: Optional[ClusterConfig] = None
    best_estimate: float = math.inf
    trace: List[float] = field(default_factory=list)
    #: Registry tag of the backend that produced this run ("" when the
    #: stats were built outside a backend, e.g. directly in a test).
    backend: str = ""
    #: Subtrees cut by the lower bound, and how many candidate
    #: configurations those subtrees contained.
    pruned_subtrees: int = 0
    pruned_candidates: int = 0
    #: Lower-bound computations (they are much cheaper than objective
    #: evaluations, but not free — benches report both).
    bound_evaluations: int = 0
    #: The evaluation budget the run was given (None = unbounded).
    budget: Optional[int] = None
    #: True when the run stopped because the budget ran out.
    exhausted: bool = False
    #: True when a greedy/local run stopped at a local optimum without
    #: having seen most of the space — the "structurally stuck" failure
    #: mode the PR-7 benches documented.  Callers should surface it (the
    #: CLI prints a one-line warning) instead of trusting the result.
    stuck: bool = False
    #: States a local searcher skipped before evaluation because they
    #: were duplicated within a neighbor frontier or already evaluated
    #: earlier in the run — the saving the frontier dedup makes
    #: observable (always 0 for backends without frontiers).
    dedup_hits: int = 0

    def record(self, config: ClusterConfig, estimate: float) -> None:
        self.evaluations += 1
        if estimate < self.best_estimate:
            self.best_estimate = estimate
            self.best_config = config
        self.trace.append(self.best_estimate)

    def prune(self, candidates: int) -> None:
        """Account one pruned subtree holding ``candidates`` configurations."""
        self.pruned_subtrees += 1
        self.pruned_candidates += candidates

    def to_dict(self, include_trace: bool = False) -> Dict[str, object]:
        out: Dict[str, object] = {
            "backend": self.backend,
            "evaluations": self.evaluations,
            "pruned_subtrees": self.pruned_subtrees,
            "pruned_candidates": self.pruned_candidates,
            "bound_evaluations": self.bound_evaluations,
            "best_estimate": self.best_estimate,
            "exhausted": self.exhausted,
            "dedup_hits": self.dedup_hits,
        }
        if self.budget is not None:
            out["budget"] = self.budget
        if self.stuck:
            out["stuck"] = True
        if include_trace:
            out["trace"] = list(self.trace)
        return out


@dataclass(frozen=True)
class RankedEstimate:
    """One candidate with its estimated execution time."""

    config: ClusterConfig
    n: int
    estimate_s: float

    def label(self, kinds: Optional[Sequence[str]] = None) -> str:
        return self.config.label(kinds)


class Ranking(Sequence[RankedEstimate]):
    """A read-only ranking: entry ``i`` is candidate ``order[i]`` of
    ``configs`` with its estimate from ``values`` (indexed like
    ``configs``), as a :class:`RankedEstimate` built only when read.

    It behaves as the list of those entries would: ``len``, positive and
    negative indices, slices (which return lists), iteration, ``==``
    against a list or another ranking, and pickling.  ``configs`` is
    shared, not copied (an exhaustive ranking holds its whole pool);
    ``values`` and ``order`` are copied into read-only arrays.
    """

    def __init__(
        self,
        n: int,
        configs: Sequence[ClusterConfig],
        values: "np.ndarray",
        order: "np.ndarray",
    ):
        self.n = n
        self._configs = configs
        self._values = np.array(values, dtype=float)
        self._order = np.array(order, dtype=np.intp)
        self._values.flags.writeable = False
        self._order.flags.writeable = False
        self._positions: Optional[Dict[Tuple, int]] = None

    @classmethod
    def of(cls, n: int, entries: Sequence[RankedEstimate]) -> "Ranking":
        """The ranking of already ordered entries."""
        return cls(
            n,
            [entry.config for entry in entries],
            [entry.estimate_s for entry in entries],
            np.arange(len(entries)),
        )

    @property
    def order(self) -> "np.ndarray":
        """Candidate index of each rank (read-only)."""
        return self._order

    def __len__(self) -> int:
        return self._order.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._entry(i) for i in self._order[index].tolist()]
        return self._entry(int(self._order[index]))

    def __iter__(self) -> Iterator[RankedEstimate]:
        return (self._entry(i) for i in self._order.tolist())

    def _entry(self, candidate: int) -> RankedEstimate:
        return RankedEstimate(
            config=self._configs[candidate],
            n=self.n,
            estimate_s=float(self._values[candidate]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Ranking, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (Ranking, (self.n, self._configs, self._values, self._order))

    def __repr__(self) -> str:
        return f"Ranking(n={self.n}, {len(self)} entries)"

    def estimate_for(self, config: ClusterConfig) -> float:
        """Estimate of one ranked candidate, looked up by key (the index
        is built on the first lookup, without building entries).

        Raises :class:`SearchError` when the ranking holds the same
        candidate twice — a duplicate key means two entries claim the
        same configuration and a silent keep-last lookup could return
        either one's estimate depending on ranking order — or when
        ``config`` was not ranked.
        """
        if self._positions is None:
            positions: Dict[Tuple, int] = {}
            for candidate in self._order.tolist():
                found = self._configs[candidate]
                if positions.setdefault(found.key(), candidate) != candidate:
                    raise SearchError(
                        f"duplicate candidate {found.label()} in "
                        f"ranking at N={self.n}; estimate_for() would be "
                        "ambiguous"
                    )
            self._positions = positions
        try:
            return float(self._values[self._positions[config.key()]])
        except KeyError:
            raise SearchError(
                f"configuration {config.label()} was not a candidate"
            ) from None


@dataclass
class SearchOutcome:
    """Full result of one optimization: the winner, the ranking and the
    search cost (the paper reports its enumeration wall time).

    ``ranking`` holds every candidate the backend *evaluated* — the full
    space for exact backends (``complete=True``), the visited subset for
    pruned or heuristic runs (``complete=False``); a list of entries
    given here becomes a :class:`Ranking`.  ``stats`` carries the
    producing backend's cost accounting (None for outcomes built before
    the Search protocol existed, e.g. unpickled from old artifacts).
    """

    n: int
    ranking: Ranking
    search_seconds: float
    stats: Optional[SearchStats] = field(default=None, repr=False, compare=False)
    complete: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.ranking, Ranking):
            self.ranking = Ranking.of(self.n, self.ranking)

    @property
    def best(self) -> RankedEstimate:
        return self.ranking[0]

    def top(self, count: int) -> List[RankedEstimate]:
        return self.ranking[: max(count, 0)]

    def estimate_for(self, config: ClusterConfig) -> float:
        """Estimate of one candidate (see :meth:`Ranking.estimate_for`)."""
        return self.ranking.estimate_for(config)


# -- validation & ranking helpers --------------------------------------------


def problem_orders(ns: Iterable[object]) -> List[int]:
    """The problem orders ``ns`` as plain ``int`` values.

    Raises :class:`~repro.errors.ModelError` naming the first one that is
    not an ``int`` or NumPy integer >= 1 (``bool`` is not one, as in the
    serve protocol).  Every backend runs its sizes through this, and so
    do the pipeline's estimate entry points: a fractional order would be
    truncated by the cached grid path but not by the scalar one, and no
    model has a domain at N <= 0."""
    sizes = []
    for n in ns:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ModelError(f"problem order must be an integer >= 1, got {n!r}")
        sizes.append(int(n))
    return sizes


def validated_estimate(
    value: float, config: ClusterConfig, n: int, allow_unestimable: bool = True
) -> float:
    """The exhaustive optimizer's estimate validation, shared by every
    backend: NaN and negative (including ``-inf``) always raise; ``+inf``
    raises only under ``allow_unestimable=False`` (otherwise it is the
    sanctioned "model outside its domain" signal and ranks last)."""
    invalid = math.isnan(value) or value < 0
    if invalid or (value == math.inf and not allow_unestimable):
        raise SearchError(
            f"estimator returned invalid time {value!r} for "
            f"{config.label()} at N={n}"
        )
    return value


def validated_estimates(
    values: "np.ndarray",
    configs: Sequence[ClusterConfig],
    n: int,
    allow_unestimable: bool = True,
) -> "np.ndarray":
    """Vectorized :func:`validated_estimate` over one block of candidates.

    Checks the whole array at once and, when something is wrong, raises
    the *identical* :class:`SearchError` :func:`validated_estimate` raises
    at the first offending candidate in ``configs`` order.
    """
    arr = np.asarray(values, dtype=float)
    bad = np.isnan(arr) | (arr < 0)
    if not allow_unestimable:
        bad |= np.isinf(arr)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        validated_estimate(
            float(arr[index]), configs[index], n, allow_unestimable
        )
        raise AssertionError("validated_estimate must have raised")
    return arr


def key_ranks_of(configs: Sequence[ClusterConfig]) -> np.ndarray:
    """Ordinal of each configuration's canonical key in sorted-key order.

    Sorting by ``(estimate, key_rank)`` equals sorting by
    ``(estimate, key)``: the ranks are a strictly monotone relabeling of
    the keys (equal keys get distinct ranks in original-index order,
    which is exactly a stable sort's tie-break)."""
    keys = [config.key() for config in configs]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[np.asarray(order, dtype=np.int64)] = np.arange(len(order), dtype=np.int64)
    return ranks


def rank_block(
    n: int,
    configs: Sequence[ClusterConfig],
    values: "np.ndarray",
    key_ranks: "np.ndarray",
    started: float,
    stats: Optional[SearchStats] = None,
    complete: bool = True,
) -> SearchOutcome:
    """Assemble a :class:`SearchOutcome` ranking ``configs`` by their
    ``values`` — the one ranking rule of every backend.

    Ordering is ``(estimate, config.key())`` — a ``np.lexsort`` on the
    estimate and the :func:`key_ranks_of` — so ties break on the
    canonical configuration key, which is what makes exact backends
    bitwise-reproducible regardless of evaluation order.  Raises when the
    best entry is not finite: for a complete run with the exhaustive
    optimizer's error, and for a run that may have left candidates
    unvisited with one that says only the evaluated candidates are out
    of the models' domain.
    """
    order = np.lexsort((key_ranks, values))
    if not math.isfinite(values[order[0]]):
        if complete:
            raise SearchError(
                f"no candidate could be estimated at N={n} "
                "(all models out of domain)"
            )
        raise SearchError(
            f"no candidate could be estimated among the {len(configs)} "
            f"evaluated at N={n} (each is outside the models' domain); "
            "an exact backend searches every candidate"
        )
    return SearchOutcome(
        n=n,
        ranking=Ranking(n, configs, values, order),
        search_seconds=time.perf_counter() - started,
        stats=stats,
        complete=complete,
    )


def rank_evaluations(
    n: int,
    entries: Sequence[Tuple[ClusterConfig, float]],
    started: float,
    stats: Optional[SearchStats] = None,
    complete: bool = True,
) -> SearchOutcome:
    """:func:`rank_block` over ``(config, estimate)`` pairs."""
    if not entries:
        raise SearchError(f"no candidate was evaluated at N={n}")
    configs = [config for config, _ in entries]
    values = np.array([value for _, value in entries], dtype=float)
    return rank_block(
        n, configs, values, key_ranks_of(configs), started, stats, complete
    )


# -- the problem bundle -------------------------------------------------------


@dataclass
class SearchProblem:
    """Everything a backend needs to search one configuration space.

    ``grid_estimator`` is the objective; backends evaluate candidate
    blocks through it (exhaustive: the full grid; local searchers: each
    round's neighbor frontier; branch-and-bound: leaf blocks).  Either
    ``candidates`` (an explicit list — the paper's grid) or
    ``space`` (a product space) must be provided; backends that need the
    missing form derive it via :meth:`resolved_space` /
    :meth:`resolved_candidates`.

    One problem may serve many runs (the pipeline's search engine hands
    one to every backend it builds over its default pool).  What the
    backends derive from the candidates alone — the candidate tuple, the
    product space, the exact-cover verdict, the key ranks, the lattice
    states — is derived on first use and kept, so ``candidates``, ``space``
    and ``kinds`` must not change once the problem is in use.  A bound oracle memoizes
    per-size profiles, so ``bounds`` builds one per backend
    (:meth:`resolved_bounds`).
    """

    grid_estimator: GridEstimator
    candidates: Optional[Sequence[ClusterConfig]] = None
    space: Optional[SearchSpace] = None
    kinds: Optional[Sequence[str]] = None
    #: Builds the lower-bound oracle for branch-and-bound over the
    #: problem's space (``space -> KindTimeBound``, duck-typed
    #: :class:`repro.core.search.bounds.KindTimeBound`); without one,
    #: branch-and-bound cannot prune and refuses to run.
    bounds: Optional[Callable[[SearchSpace], object]] = None
    #: Rate card for the cost-aware backends (duck-typed
    #: :class:`repro.cost.model.CostModel`); None means every kind is
    #: free and the frontier degenerates to the minimum-time point.
    cost: Optional[object] = None
    allow_unestimable: bool = True
    #: Seed for the stochastic backends (hill climbing, annealing).
    seed: int = 0
    _space: Optional[SearchSpace] = field(
        default=None, init=False, repr=False, compare=False
    )
    _covers: Optional[bool] = field(
        default=None, init=False, repr=False, compare=False
    )
    _key_ranks: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _candidates: Optional[Tuple[ClusterConfig, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _states: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def resolved_space(self) -> SearchSpace:
        if self.space is not None:
            return self.space
        if self._space is None:
            if self.candidates is None:
                raise SearchError(
                    "search problem has neither candidates nor space"
                )
            self._space = SearchSpace.from_candidates(self.candidates, self.kinds)
        return self._space

    def covers_space(self) -> bool:
        """True when the candidates are exactly :meth:`resolved_space`'s
        configurations (always, for a problem given only a space) — the
        precondition of the tree searches, which enumerate the space."""
        if self.candidates is None:
            return True
        if self._covers is None:
            self._covers = self.resolved_space().is_exact_cover_of(self.candidates)
        return self._covers

    def key_ranks(self) -> np.ndarray:
        """:func:`key_ranks_of` the :meth:`resolved_candidates`, read-only."""
        if self._key_ranks is None:
            ranks = key_ranks_of(self.resolved_candidates())
            ranks.flags.writeable = False
            self._key_ranks = ranks
        return self._key_ranks

    def pool_positions(self, states: Sequence[int]) -> Optional[np.ndarray]:
        """The position in :meth:`resolved_candidates` of the first
        candidate at each :class:`~repro.core.search.space.Lattice` state
        (``-1`` where none is), or None for a problem given only a space;
        the candidates' states are derived on first use."""
        if self.candidates is None:
            return None
        if self._states is None:
            lattice = self.resolved_space().lattice
            pool = self.resolved_candidates()
            # Off-lattice candidates and one extra key sort last as lattice.size.
            keys = np.fromiter(
                chain((lattice.size if (i := lattice.index(c)) is None else i for c in pool),
                      [lattice.size]),
                dtype=np.min_scalar_type(lattice.size),
                count=len(pool) + 1,
            )
            order = np.argsort(keys, kind="stable")
            self._states = (keys[order], order.astype(np.min_scalar_type(-1 - len(pool))))
        keys, positions = self._states
        query = np.array(states, dtype=keys.dtype)
        at = np.searchsorted(keys, query)
        return np.where(keys[at] == query, positions[at], -1)

    def resolved_bounds(self) -> Optional[object]:
        """A fresh bound oracle over :meth:`resolved_space`, or None."""
        return None if self.bounds is None else self.bounds(self.resolved_space())

    def resolved_candidates(self) -> Tuple[ClusterConfig, ...]:
        """The candidates as one tuple (the space's configurations for a
        problem given only a space), the same object on every call."""
        if self._candidates is None:
            if self.candidates is not None:
                self._candidates = tuple(self.candidates)
            elif self.space is not None:
                self._candidates = tuple(self.space.configs())
            else:
                raise SearchError(
                    "search problem has neither candidates nor space"
                )
        return self._candidates

    def resolved_kinds(self) -> List[str]:
        if self.kinds is not None:
            return list(self.kinds)
        return list(self.resolved_space().kinds)


# -- the backend protocol -----------------------------------------------------


class SearchBackend:
    """Base class of every registered search backend.

    A backend is constructed from a :class:`SearchProblem` (plus
    backend-specific options) via :meth:`from_problem` and answers
    :meth:`optimize` — everything else has shared default behavior.
    The class attribute :attr:`backend_type` is assigned by the
    ``@register_search(tag)`` decorator.
    """

    backend_type: str = ""

    #: Stats of the most recent :meth:`optimize` call (for callers that
    #: hold the backend; the outcome itself carries the same object).
    stats: Optional[SearchStats] = None

    @classmethod
    def from_problem(cls, problem: SearchProblem, **options) -> "SearchBackend":
        raise NotImplementedError

    def optimize(self, n: int) -> SearchOutcome:
        raise NotImplementedError

    def optimize_many(self, ns: Sequence[int]) -> List[SearchOutcome]:
        """Rank for every size; backends with a vectorized grid path
        override this (the exhaustive optimizer does)."""
        sizes = problem_orders(ns)
        if not sizes:
            raise SearchError("optimize_many needs at least one size")
        return [self.optimize(n) for n in sizes]

    def best(self, n: int) -> RankedEstimate:
        return self.optimize(n).best


def actual_best(
    measured: Sequence[Tuple[ClusterConfig, float]],
) -> Tuple[ClusterConfig, float]:
    """The measured-optimal configuration among (config, seconds) pairs —
    the ground truth the paper's Tables 4/7/9 compare against."""
    if not measured:
        raise SearchError("no measurements to choose from")
    best_config, best_time = min(measured, key=lambda item: (item[1], item[0].key()))
    return best_config, best_time
