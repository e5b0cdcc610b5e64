"""Explicit pipeline stages: measure → fit → compose → adjust → search → verify.

:class:`~repro.core.pipeline.EstimationPipeline` used to be one 484-line
class where every step was a lazily-memoizing property with hand-wired
``perf.stage(...)`` blocks and ad-hoc "force my dependencies first so
their time is not billed to me" dances.  This module makes the steps
first-class:

* a :class:`Stage` names one step, declares what it ``requires`` and
  builds one typed **artifact** (a :class:`CampaignResult`, a
  :class:`FitArtifact`, a :class:`~repro.core.estimator.Estimator`, ...);
* the :class:`StageGraph` resolves dependencies, runs each stage at most
  once, and handles two cross-cutting concerns *generically* instead of
  per-property:

  - **timing** — a timed stage's build is wrapped in
    ``perf.stage(name)`` *after* its dependencies are resolved, so a
    lazily-triggered campaign is charged to ``"campaign"``, never to the
    stage that happened to ask for it first;
  - **estimate invalidation** — injecting an artifact (:meth:`StageGraph.set`)
    drops every artifact downstream of it.  The search engine is
    downstream of fit, compose and adjust, so replacing any of them drops
    the engine and its :class:`~repro.perf.cache.RowCache` with it: the
    cache stays bound to the current model generation without the
    pipeline micro-managing it.

Stage names match :data:`repro.perf.report.PIPELINE_STAGES`
(``"campaign"``, ``"evaluation"``, ``"fit"``, ``"compose"``,
``"adjust"``; the ``"search"`` stage's artifact is the
:class:`SearchEngine`, whose optimize calls record the ``"search"``
timing), so existing perf reports read unchanged.

The stages hold no pipeline state: everything they need arrives through
the :class:`PipelineContext`, and artifact injection via
:meth:`StageGraph.set` is how :mod:`repro.core.persistence` restores a
saved pipeline without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.spec import ClusterSpec
from repro.core.adjustment import LinearAdjustment
from repro.core.binning import ModelSelector
from repro.core.estimator import Estimator
from repro.core.memory_guard import MemoryGuard, split_dataset
from repro.core.model_store import ModelStore
from repro.core.search import (
    DEFAULT_BACKEND,
    CandidateBlock,
    SearchBackend,
    SearchOutcome,
    SearchProblem,
    create_search,
    estimator_bounds,
)
from repro.core.search import actual_best as _actual_best
from repro.core.grid_kernel import GridKernel, Routes
from repro.errors import SearchError
from repro.hpl.schedule import walker_stats
from repro.measure.campaign import (
    CampaignResult,
    run_campaign,
    run_counts,
    run_evaluation,
)
from repro.measure.dataset import Dataset
from repro.perf.cache import RowCache, model_fingerprint
from repro.perf.report import GridKernelStats, PerfReport


# -- context ------------------------------------------------------------------


@dataclass
class PipelineContext:
    """Everything a stage may consult: the run's inputs plus callables the
    pipeline supplies (so stages never import or hold a pipeline).

    ``config`` is the :class:`~repro.core.pipeline.PipelineConfig` (typed
    loosely here to keep this module below the pipeline in the import
    graph)."""

    spec: ClusterSpec
    config: object
    plan: object
    perf: PerfReport
    #: Default candidate set for the optimizer.
    candidates: Callable[[], List[ClusterConfig]]
    #: The :class:`repro.workloads.Workload` family being measured; owns
    #: the simulator, phase decomposition and memory model (unit-test
    #: graphs whose stages never ask for it leave it ``None``).
    workload: object = None
    graph: "StageGraph" = field(init=False, repr=False, default=None)  # type: ignore[assignment]

    def artifact(self, name: str):
        """Resolve another stage's artifact (building it if needed)."""
        return self.graph.get(name)


# -- typed artifacts ----------------------------------------------------------


@dataclass(frozen=True)
class FitArtifact:
    """Output of the fit stage: the fitted store plus what the memory
    guard excluded from fitting (empty when the guard is off)."""

    store: ModelStore
    excluded_paging: Dataset


@dataclass(frozen=True)
class ComposeArtifact:
    """Output of the compose stage: the (mutated-in-place) store and which
    ``kind -> [Mi...]`` P-T models were composed rather than measured."""

    store: ModelStore
    composed: Dict[str, List[int]]


# -- stage protocol -----------------------------------------------------------


class Stage:
    """One named pipeline step producing one artifact.

    Subclasses set :attr:`name` and implement :meth:`build`;
    :meth:`requires` and :meth:`timed` may depend on the context (the
    adjust stage, for example, only needs the evaluation dataset — and
    only deserves a timing entry — when adjustment is enabled)."""

    name: str = ""

    def requires(self, ctx: PipelineContext) -> Tuple[str, ...]:
        return ()

    def timed(self, ctx: PipelineContext) -> bool:
        return True

    def build(self, ctx: PipelineContext):
        raise NotImplementedError


class StageGraph:
    """Resolves stages on demand, each at most once, dependencies first.

    The graph is the one place that knows about timing and invalidation;
    stages only declare (``requires``, ``timed``) and the graph applies
    the policy uniformly."""

    def __init__(self, stages: Sequence[Stage], ctx: PipelineContext):
        self._stages: Dict[str, Stage] = {}
        for stage in stages:
            if not stage.name:
                raise ValueError(f"{type(stage).__name__} has no name")
            if stage.name in self._stages:
                raise ValueError(f"duplicate stage {stage.name!r}")
            self._stages[stage.name] = stage
        self.ctx = ctx
        ctx.graph = self
        self._artifacts: Dict[str, object] = {}
        self._building: List[str] = []

    # -- resolution --------------------------------------------------------

    def stage(self, name: str) -> Stage:
        try:
            return self._stages[name]
        except KeyError:
            raise KeyError(
                f"unknown stage {name!r} (have: {', '.join(self._stages)})"
            ) from None

    def has(self, name: str) -> bool:
        return name in self._artifacts

    def get(self, name: str):
        """The stage's artifact, building it (and its requirements) first.

        Requirements are resolved *before* the stage's timing context
        opens, so lazily-triggered upstream work is billed to its own
        stage name."""
        if name in self._artifacts:
            return self._artifacts[name]
        stage = self.stage(name)
        if name in self._building:
            cycle = " -> ".join(self._building + [name])
            raise RuntimeError(f"stage dependency cycle: {cycle}")
        self._building.append(name)
        try:
            for dep in stage.requires(self.ctx):
                self.get(dep)
            if stage.timed(self.ctx):
                with self.ctx.perf.stage(stage.name):
                    artifact = stage.build(self.ctx)
            else:
                artifact = stage.build(self.ctx)
        finally:
            self._building.pop()
        self._artifacts[name] = artifact
        return artifact

    # -- injection ---------------------------------------------------------

    def set(self, name: str, artifact) -> None:
        """Inject an artifact (e.g. loaded from disk) instead of building.

        Anything downstream of ``name`` is dropped, transitively, so it
        rebuilds against the injected artifact; inject in dependency order."""
        self.stage(name)  # validate the name
        self._artifacts[name] = artifact
        self._drop_dependents(name)

    def _drop_dependents(self, name: str) -> None:
        for other in self._stages.values():
            if name in other.requires(self.ctx):
                self._artifacts.pop(other.name, None)
                self._drop_dependents(other.name)


# -- concrete stages ----------------------------------------------------------


def _measure(ctx: PipelineContext, stage: str, measure: Callable):
    """Run ``measure`` (:func:`run_campaign` or :func:`run_evaluation`) on
    the context's inputs, and record on the perf report the walker
    counters it moved and the runs it simulated and reused."""
    walked, runs = walker_stats().snapshot(), run_counts()
    artifact = measure(
        ctx.spec,
        ctx.plan,
        params=ctx.config.hpl_params,
        noise=ctx.config.noise,
        seed=ctx.config.seed,
        batch_runner=ctx.workload.batch_runner(),
    )
    ctx.perf.record_walker(walker_stats().delta(walked))
    ctx.perf.record_runs(stage, run_counts() - runs)
    return artifact


class MeasureStage(Stage):
    """Run the construction campaign (the paper's measurement step)."""

    name = "campaign"

    def build(self, ctx: PipelineContext) -> CampaignResult:
        return _measure(ctx, self.name, run_campaign)


class EvaluationStage(Stage):
    """Measure the ground truth of the evaluation grid."""

    name = "evaluation"

    def build(self, ctx: PipelineContext) -> Dataset:
        return _measure(ctx, self.name, run_evaluation)


class FitStage(Stage):
    """Fit every N-T and P-T model the construction dataset supports
    (after the optional memory-guard split)."""

    name = "fit"

    def requires(self, ctx: PipelineContext) -> Tuple[str, ...]:
        return ("campaign",)

    def build(self, ctx: PipelineContext) -> FitArtifact:
        dataset = ctx.artifact("campaign").dataset
        excluded = Dataset()
        if ctx.config.memory_guard:
            guard = MemoryGuard(
                ctx.spec, ctx.workload, threshold=ctx.config.guard_threshold
            )
            dataset, excluded = split_dataset(dataset, guard)
        store = ModelStore.fit_dataset(dataset, weighting=ctx.config.nt_weighting)
        return FitArtifact(store=store, excluded_paging=excluded)


class ComposeStage(Stage):
    """Compose P-T models for kinds without enough measured PEs, using the
    kind with the most measured P-T models as the source (Section 3.5)."""

    name = "compose"

    def requires(self, ctx: PipelineContext) -> Tuple[str, ...]:
        return ("fit",)

    def build(self, ctx: PipelineContext) -> ComposeArtifact:
        store = ctx.artifact("fit").store
        composed: Dict[str, List[int]] = {}
        measured_counts = {
            kind: sum(
                1
                for (k, _), model in store.pt.items()
                if k == kind and not model.is_composed
            )
            for kind in store.kinds()
        }
        if measured_counts:
            source = max(measured_counts, key=lambda k: (measured_counts[k], k))
            if measured_counts[source] > 0:
                for kind in store.kinds():
                    if kind == source:
                        continue
                    new_mis = ctx.config.composition.compose_missing(
                        store, kind, source
                    )
                    if new_mis:
                        composed[kind] = new_mis
        return ComposeArtifact(store=store, composed=composed)


class EstimatorStage(Stage):
    """Build the :class:`~repro.core.estimator.Estimator` facade over the
    fitted-and-composed store (untimed: it only wires objects)."""

    name = "estimator"

    def requires(self, ctx: PipelineContext) -> Tuple[str, ...]:
        return ("compose",)

    def timed(self, ctx: PipelineContext) -> bool:
        return False

    def build(self, ctx: PipelineContext) -> Estimator:
        selector = ModelSelector(
            ctx.artifact("compose").store, memory_bins=ctx.config.memory_bins
        )
        selector.memory_ratio_fn = partial(ctx.workload.memory_ratio, ctx.spec)
        return selector


class AdjustStage(Stage):
    """Calibrate the linear adjustment on the calibration family (paper
    Section 4.1.2) — or return the identity when adjustment is off."""

    name = "adjust"

    def requires(self, ctx: PipelineContext) -> Tuple[str, ...]:
        # The calibration fit needs models and ground truth; when
        # adjustment is off nothing is needed (and nothing is timed).
        return ("estimator", "evaluation") if ctx.config.adjust else ()

    def timed(self, ctx: PipelineContext) -> bool:
        return bool(ctx.config.adjust)

    def build(self, ctx: PipelineContext) -> LinearAdjustment:
        if not ctx.config.adjust:
            return LinearAdjustment(mi_threshold=ctx.config.adjustment_threshold)
        facade: Estimator = ctx.artifact("estimator")
        evaluation: Dataset = ctx.artifact("evaluation")
        n_cal = calibration_size(ctx.plan, ctx.config)
        triples = []
        for config in calibration_configs(ctx.spec, ctx.plan, ctx.config):
            per_kind = facade.estimate_kinds(config, n_cal)
            raw_total = max(estimate.total for estimate in per_kind)
            max_mi = max(a.procs_per_pe for a in config.active)
            record = evaluation.lookup(
                config.as_flat_tuple(ctx.plan.kinds), n_cal
            )
            triples.append((max_mi, raw_total, record.wall_time_s))
        return LinearAdjustment.fit(
            triples, mi_threshold=ctx.config.adjustment_threshold
        )


class SearchStage(Stage):
    """Build the :class:`SearchEngine` (untimed: the engine itself charges
    its optimize calls to the ``"search"`` timing)."""

    name = "search"

    def requires(self, ctx: PipelineContext) -> Tuple[str, ...]:
        return ("estimator", "adjust")

    def timed(self, ctx: PipelineContext) -> bool:
        return False

    def build(self, ctx: PipelineContext) -> "SearchEngine":
        spec = ctx.spec
        return SearchEngine(
            facade=ctx.artifact("estimator"),
            adjustment=ctx.artifact("adjust"),
            workload=ctx.workload.tag,
            candidates=ctx.candidates,
            validate=lambda config: config.validate_against(spec),
            perf=ctx.perf,
            default_backend=getattr(ctx.config, "search_backend", DEFAULT_BACKEND),
            seed=getattr(ctx.config, "seed", 0),
            cost_model=(
                getattr(ctx.config, "cost", None)
                if getattr(ctx.config, "cost", None) is not None
                else getattr(ctx.spec, "cost", None)
            ),
        )


class VerifyStage(Stage):
    """Expose the ground-truth comparisons (untimed; the evaluation
    measurements themselves are charged to ``"evaluation"``)."""

    name = "verify"

    def requires(self, ctx: PipelineContext) -> Tuple[str, ...]:
        return ("evaluation",)

    def timed(self, ctx: PipelineContext) -> bool:
        return False

    def build(self, ctx: PipelineContext) -> "Verifier":
        return Verifier(evaluation=ctx.artifact("evaluation"), plan=ctx.plan)


def default_stages() -> Tuple[Stage, ...]:
    """The standard protocol pipeline, in dependency order."""
    return (
        MeasureStage(),
        EvaluationStage(),
        FitStage(),
        ComposeStage(),
        EstimatorStage(),
        AdjustStage(),
        SearchStage(),
        VerifyStage(),
    )


# -- calibration helpers ------------------------------------------------------


def calibration_size(plan, config) -> int:
    """The paper calibrates at N = 6400; clamp into the eval grid."""
    if config.calibration_n is not None:
        return config.calibration_n
    sizes = plan.evaluation_sizes
    return 6400 if 6400 in sizes else max(sizes)


def calibration_configs(spec: ClusterSpec, plan, config) -> List[ClusterConfig]:
    """The calibration family: evaluation configurations that use every
    kind at full PE count and reach the adjustment threshold (the
    paper's ``M1 >= 3`` at ``P2 = 8``)."""
    available = spec.pe_counts()
    threshold = config.adjustment_threshold
    out = []
    for candidate in plan.evaluation_configs:
        if any(a.pe_count != available[a.kind_name] for a in candidate.active):
            continue
        if len(candidate.active) != len(available):
            continue
        if max(a.procs_per_pe for a in candidate.active) < threshold:
            continue
        out.append(candidate)
    return out


# -- search engine ------------------------------------------------------------


class SearchEngine:
    """The search stage's artifact: grid kernel + estimate cache + optimizer.

    Owns the one :class:`~repro.perf.cache.RowCache` of a model
    generation — its fingerprint is built from the estimator facade's
    :meth:`~repro.core.estimator.Estimator.fingerprint` (which already
    covers every model and the memory bins) plus the adjustment and the
    workload tag (whose memory model feeds the bins), so any change that
    could alter an estimate yields a fresh fingerprint.  The engine is
    itself dropped by the stage graph whenever an estimate-determining
    stage changes, which is the generic invalidation path.

    It also owns the one :attr:`problem` over the default candidate pool,
    which keeps what every search call would otherwise derive again from
    that pool, and addresses that pool by row: the pool's keys take the
    cache's first rows, and the kernel routes each pool row once into one
    :class:`~repro.core.grid_kernel.Routes` table (see DESIGN.md §13).
    """

    def __init__(
        self,
        facade: Estimator,
        adjustment: LinearAdjustment,
        workload: str,
        candidates: Callable[[], List[ClusterConfig]],
        perf: PerfReport,
        validate: Optional[Callable[[ClusterConfig], None]] = None,
        default_backend: str = DEFAULT_BACKEND,
        seed: int = 0,
        cost_model: Optional[object] = None,
    ):
        self.facade = facade
        self.adjustment = adjustment
        self.workload = workload
        self._candidates = candidates
        self.perf = perf
        self._validate = validate
        self.default_backend = default_backend
        self.seed = seed
        #: Duck-typed :class:`repro.cost.model.CostModel` (None = unpriced).
        self.cost_model = cost_model
        self._cache: Optional[RowCache] = None
        self._grid_kernel: Optional[GridKernel] = None
        self._problem: Optional[SearchProblem] = None
        # The default pool, its rows in the cache, and the kernel's
        # routing of those rows (set with the cache).
        self._pool: Sequence[ClusterConfig] = ()
        self._pool_rows = np.empty(0, dtype=np.intp)
        self._pool_routes = Routes(())

    @property
    def estimate_cache(self) -> RowCache:
        """Memoized ``(config, N) -> adjusted total`` store, bound to the
        current models by fingerprint (see DESIGN.md for the invalidation
        rule)."""
        if self._cache is None:
            fingerprint = model_fingerprint(
                self.facade.fingerprint(),
                self.adjustment.to_dict(),
                self.workload,
            )
            cache = RowCache(fingerprint)
            # The pool's distinct keys take rows 0..D-1, so a row below D
            # is a pool member and the routing table is indexed by row.
            self._pool = self.problem.resolved_candidates()
            self._pool_rows = cache.rows_of(self._pool)
            first = np.unique(self._pool_rows, return_index=True)[1]
            self._pool_routes = Routes([self._pool[i] for i in first.tolist()])
            self._cache = cache
            self.perf.cache = cache
        return self._cache

    @property
    def grid_kernel(self) -> GridKernel:
        """The candidate-axis vectorized kernel of this model generation.

        Built once per engine — and the engine is dropped by the stage
        graph whenever an estimate-determining stage changes, so the
        kernel's packed coefficient tensors live exactly as long as the
        pipeline fingerprint they were routed from.  Its
        :class:`~repro.perf.report.GridKernelStats` are published on the
        perf report (rendered by ``--profile``).
        """
        if self._grid_kernel is None:
            stats = GridKernelStats()
            self._grid_kernel = GridKernel(
                self.facade, self.adjustment, validate=self._validate, stats=stats
            )
            self.perf.grid = stats
        return self._grid_kernel

    def estimate_grid(
        self, configs: Sequence[ClusterConfig], ns: Sequence[int]
    ) -> np.ndarray:
        """Adjusted estimates of every ``(config, n)`` cell as a
        ``(C, S)`` array, bitwise the scalar estimates: the kernel's
        blocks served through :attr:`estimate_cache`.  This is the
        objective every search backend takes.

        The pool itself (or a :class:`CandidateBlock` of it) is addressed
        by its rows, other configurations through the cache's key -> row
        map.  A block of pool rows goes through the pool's routing table;
        any other block is routed for this call."""
        cache = self.estimate_cache
        if isinstance(configs, CandidateBlock) and configs.pool is self._pool:
            rows = self._pool_rows[configs.positions]
        else:
            rows = self._pool_rows if configs is self._pool else cache.rows_of(configs)
        kernel, routes = self.grid_kernel, self._pool_routes

        def evaluate(positions: np.ndarray) -> np.ndarray:
            block = rows[positions]
            if block.max() < len(routes):
                return kernel.evaluate_rows(routes, block, ns)
            return kernel.evaluate([configs[i] for i in positions.tolist()], ns)

        return cache.get_rows(rows, ns, evaluate)

    @property
    def problem(self) -> SearchProblem:
        """The :class:`SearchProblem` over the default candidate pool,
        built on first use and handed to every backend :meth:`optimizer`
        builds.  The pool (the plan's evaluation grid) and the cluster
        spec are immutable, so the product space, exact-cover verdict,
        key ranks, cache rows and routing derived from it hold for the
        engine's lifetime; backends — which carry per-run stats and RNG
        state — and bound oracles stay per call."""
        if self._problem is None:
            self._problem = self._problem_over(tuple(self._candidates()))
        return self._problem

    def _problem_over(self, pool: Sequence[ClusterConfig]) -> SearchProblem:
        facade, adjustment = self.facade, self.adjustment
        return SearchProblem(
            self.estimate_grid,
            candidates=pool,
            bounds=lambda space: estimator_bounds(
                facade, adjustment, p_max=space.max_total_processes
            ),
            cost=self.cost_model,
            seed=self.seed,
        )

    def optimizer(
        self,
        candidates: Optional[Sequence[ClusterConfig]] = None,
        backend: Optional[str] = None,
        budget: Optional[int] = None,
        **options,
    ) -> SearchBackend:
        """A ready-to-run search backend over the candidate grid.

        ``backend=None`` uses the engine's default (the pipeline config's
        ``search_backend``).  Every tag goes through the search registry
        with a :class:`SearchProblem` — :attr:`problem`, or a fresh one
        over an explicit ``candidates`` pool — carrying the model-derived
        bound oracle (so ``branch-bound`` can prune), the rate card (so
        ``budget-frontier`` can price), and the pipeline seed (so
        stochastic backends are reproducible).  Extra ``options`` go to
        the backend's ``from_problem`` (e.g. ``max_cost=``/``alpha=`` for
        ``budget-frontier``); a backend that rejects one raises
        :class:`~repro.errors.SearchError`.
        """
        tag = backend if backend is not None else self.default_backend
        problem = (
            self.problem
            if candidates is None
            else self._problem_over(list(candidates))
        )
        return create_search(tag, problem, budget=budget, **options)

    @staticmethod
    def _cost_options(
        backend: Optional[str],
        max_cost: Optional[float],
        alpha: Optional[float],
    ) -> tuple:
        """Resolve (tag, options) for a possibly cost-constrained call.

        A ``max_cost`` or ``alpha`` needs the multi-objective backend;
        combining either with an explicitly different backend is a typed
        error rather than a silently ignored constraint.
        """
        if max_cost is None and alpha is None:
            return backend, {}
        if backend is not None and backend != "budget-frontier":
            raise SearchError(
                f"max_cost/alpha need the 'budget-frontier' backend, "
                f"not {backend!r}"
            )
        options = {}
        if max_cost is not None:
            options["max_cost"] = max_cost
        if alpha is not None:
            options["alpha"] = alpha
        return "budget-frontier", options

    def _record(self, outcome: SearchOutcome) -> SearchOutcome:
        self.perf.record_search(outcome.stats)
        return outcome

    def optimize(
        self,
        n: int,
        backend: Optional[str] = None,
        budget: Optional[int] = None,
        max_cost: Optional[float] = None,
        alpha: Optional[float] = None,
    ) -> SearchOutcome:
        tag, options = self._cost_options(backend, max_cost, alpha)
        with self.perf.stage("search"):
            return self._record(
                self.optimizer(backend=tag, budget=budget, **options).optimize(n)
            )

    def optimize_many(
        self,
        ns: Sequence[int],
        backend: Optional[str] = None,
        budget: Optional[int] = None,
        max_cost: Optional[float] = None,
        alpha: Optional[float] = None,
    ) -> List[SearchOutcome]:
        tag, options = self._cost_options(backend, max_cost, alpha)
        with self.perf.stage("search"):
            outcomes = self.optimizer(
                backend=tag, budget=budget, **options
            ).optimize_many(ns)
            return [self._record(outcome) for outcome in outcomes]

    # -- Pareto frontiers ----------------------------------------------------

    def _frontier_backend(
        self, budget: Optional[int], max_cost: Optional[float]
    ):
        options = {} if max_cost is None else {"max_cost": max_cost}
        return self.optimizer(
            backend="budget-frontier", budget=budget, **options
        )

    def pareto(
        self,
        n: int,
        budget: Optional[int] = None,
        max_cost: Optional[float] = None,
    ):
        """The exact (time, dollars) frontier at order ``n`` (a
        :class:`repro.cost.pareto.FrontierOutcome`)."""
        with self.perf.stage("search"):
            outcome = self._frontier_backend(budget, max_cost).frontier(n)
            self.perf.record_search(outcome.stats)
            self.perf.record_frontier(outcome)
            return outcome

    def pareto_many(
        self,
        ns: Sequence[int],
        budget: Optional[int] = None,
        max_cost: Optional[float] = None,
    ) -> List:
        """One frontier per size, sharing a single backend construction."""
        with self.perf.stage("search"):
            backend = self._frontier_backend(budget, max_cost)
            outcomes = backend.frontier_many(ns)
            for outcome in outcomes:
                self.perf.record_search(outcome.stats)
                self.perf.record_frontier(outcome)
            return outcomes


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class Verifier:
    """Ground-truth comparisons over the evaluation grid."""

    evaluation: Dataset
    plan: object

    def measured_time(self, config: ClusterConfig, n: int) -> float:
        record = self.evaluation.lookup(config.as_flat_tuple(self.plan.kinds), n)
        return record.wall_time_s

    def actual_best(self, n: int) -> Tuple[ClusterConfig, float]:
        """Ground-truth optimum over the evaluation grid at order ``n``."""
        measured = [
            (config, self.measured_time(config, n))
            for config in self.plan.evaluation_configs
        ]
        return _actual_best(measured)
