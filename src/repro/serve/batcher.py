"""Async micro-batching over the vectorized estimation paths.

The service's data-plane ops (``estimate``, ``optimize``, ``whatif``)
funnel through one :class:`MicroBatcher`.  Concurrent requests queue up;
a single worker drains the queue in *micro-batches*, groups the batch's
requests by what can share one vectorized model evaluation, and fans the
results back out to per-request futures:

* ``estimate`` requests grouping on ``(pipeline, configuration)`` merge
  their problem orders into one
  :meth:`~repro.serve.registry.RegistryEntry.cached_totals` lookup (the
  misses go to the grid kernel as one block over the union instead of
  one call per request — element-wise, so each request's numbers are
  bitwise those of a direct call);
* ``optimize`` requests grouping on ``(pipeline, backend, budget,
  max_cost, alpha)`` merge their orders into one
  :meth:`~repro.core.pipeline.EstimationPipeline.optimize_many` batched
  search under that backend (requests asking different backends,
  budgets or cost constraints never share a search run) — and that
  search rides the candidate-axis grid kernel
  (:mod:`repro.core.grid_kernel`), so a micro-batch of optimize
  requests turns into a handful of block evaluations instead of
  thousands of scalar model calls;
* ``pareto`` requests grouping on ``(pipeline, budget, max_cost)``
  merge their orders into one
  :meth:`~repro.core.pipeline.EstimationPipeline.pareto_many` frontier
  sweep, each reply carrying the full (untruncated) frontier with its
  provenance fingerprint;
* ``whatif`` requests evaluate one configuration across *every*
  registered pipeline, reusing the same per-entry cached path.

Every group key also carries the request's optional ``workload``
assertion; a request whose workload does not match the addressed
pipeline's family fails with a typed ``InvalidRequest`` instead of
returning numbers from the wrong simulator's models, and a ``whatif``
with a workload sweeps only the pipelines of that family.

**Admission control.**  The pending queue is bounded; :meth:`submit`
never blocks.  When the queue is full the request is shed immediately
with a typed :class:`~repro.serve.protocol.Overloaded` — under overload
the service degrades into fast, honest rejections instead of unbounded
latency.  The suggested ``retry_after_ms`` is a constant 10 ms.

**Batching.**  A micro-batch is what queued while the previous one ran:
the worker takes the first waiting request plus everything else already
queued, up to ``max_batch``, and executes them — no timer.  An idle
server therefore dispatches a lone request at once.  Under load batches
still form, because a batch executes synchronously on the event loop:
request lines that arrive meanwhile are read and submitted in the next
loop passes, and the next drain takes them together.  ``max_batch=1``
turns micro-batching off entirely — the configuration benchmarked as the
"batching off" baseline.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (
    ERROR_INVALID_REQUEST,
    ERROR_SHUTTING_DOWN,
    Overloaded,
    ProtocolError,
    Request,
    finite_or_none,
)
from repro.serve.registry import ModelRegistry, RegistryEntry


@dataclass
class _WorkItem:
    request: Request
    future: "asyncio.Future[Dict[str, object]]"
    enqueued: float = field(default_factory=time.perf_counter)


class MicroBatcher:
    """Bounded-queue micro-batching dispatcher over a model registry."""

    def __init__(
        self,
        registry: ModelRegistry,
        metrics: Optional[ServeMetrics] = None,
        max_pending: int = 256,
        max_batch: int = 64,
    ):
        if max_pending < 1:
            raise ReproError(f"max_pending must be >= 1, got {max_pending}")
        if max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {max_batch}")
        self.registry = registry
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.max_pending = max_pending
        self.max_batch = max_batch
        self._queue: "asyncio.Queue[Optional[_WorkItem]]" = asyncio.Queue()
        self._worker: Optional[asyncio.Task] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(self._run())

    async def drain_and_stop(self) -> None:
        """Refuse new work, answer everything already admitted, stop.

        The sentinel is enqueued *after* the last admitted request, and
        the worker processes the queue strictly in order, so every
        in-flight request gets its reply before the worker exits.
        """
        if self._closed:
            return
        self._closed = True
        await self._queue.put(None)
        if self._worker is not None:
            await self._worker
            self._worker = None

    @property
    def pending(self) -> int:
        return self._queue.qsize()

    # -- admission ----------------------------------------------------------

    def submit(self, request: Request) -> "asyncio.Future[Dict[str, object]]":
        """Admit one request; returns the future holding its result dict.

        Raises :class:`Overloaded` (load shed) when the pending queue is
        full and :class:`ProtocolError` (``ShuttingDown``) once draining
        has begun.  Never blocks.
        """
        if self._closed:
            raise ProtocolError(
                "service is shutting down", ERROR_SHUTTING_DOWN
            )
        if self._queue.qsize() >= self.max_pending:
            raise Overloaded(self._queue.qsize(), self.max_pending, retry_after_ms=10.0)
        future: "asyncio.Future[Dict[str, object]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._queue.put_nowait(_WorkItem(request, future))
        return future

    # -- worker -------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                return
            batch = [item]
            while len(batch) < self.max_batch and not self._queue.empty():
                extra = self._queue.get_nowait()
                if extra is None:
                    # Sentinel: finish this batch, then stop.
                    self._execute(batch)
                    return
                batch.append(extra)
            self._execute(batch)

    # -- execution ----------------------------------------------------------

    def _execute(self, batch: List[_WorkItem]) -> None:
        groups = self._group(batch)
        self.metrics.record_batch(size=len(batch), groups=len(groups))
        for items, runner in groups:
            try:
                results = runner()
            except Exception as exc:  # typed per-group failure, not a crash
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(exc)
                continue
            for item, result in zip(items, results):
                if not item.future.done():
                    item.future.set_result(result)

    def _group(self, batch: List[_WorkItem]):
        """Partition a batch into (items, runner) work groups."""
        estimate_groups: Dict[Tuple[str, tuple], List[_WorkItem]] = {}
        optimize_groups: Dict[Tuple, List[_WorkItem]] = {}
        pareto_groups: Dict[
            Tuple[str, Optional[int], Optional[float]], List[_WorkItem]
        ] = {}
        out = []
        for item in batch:
            op = item.request.op
            if op == "estimate":
                key = (
                    item.request.pipeline,
                    item.request.config,
                    item.request.workload,
                )
                estimate_groups.setdefault(key, []).append(item)
            elif op == "optimize":
                search_key = (
                    item.request.pipeline,
                    item.request.backend,
                    item.request.budget,
                    item.request.max_cost,
                    item.request.alpha,
                    item.request.workload,
                )
                optimize_groups.setdefault(search_key, []).append(item)
            elif op == "pareto":
                pareto_key = (
                    item.request.pipeline,
                    item.request.budget,
                    item.request.max_cost,
                    item.request.workload,
                )
                pareto_groups.setdefault(pareto_key, []).append(item)
            elif op == "whatif":
                out.append(([item], lambda it=item: [self._run_whatif(it.request)]))
            else:
                out.append(
                    (
                        [item],
                        lambda it=item: (_ for _ in ()).throw(
                            ProtocolError(f"op {it.request.op!r} is not batchable")
                        ),
                    )
                )
        for items in estimate_groups.values():
            out.append((items, lambda group=items: self._run_estimates(group)))
        for items in optimize_groups.values():
            out.append((items, lambda group=items: self._run_optimizes(group)))
        for items in pareto_groups.values():
            out.append((items, lambda group=items: self._run_paretos(group)))
        return out

    def _check_workload(self, request: Request, entry: RegistryEntry) -> None:
        """Enforce a request's workload assertion against the entry's
        family — a typed ``InvalidRequest``, because the caller addressed
        a pipeline whose models answer a different workload."""
        if request.workload is None:
            return
        actual = entry.workload
        if request.workload != actual:
            raise ProtocolError(
                f"pipeline {entry.name!r} serves workload {actual!r}, "
                f"not {request.workload!r}",
                ERROR_INVALID_REQUEST,
                extra={
                    "field": "workload",
                    "pipeline": entry.name,
                    "pipeline_workload": actual,
                    "requested_workload": request.workload,
                },
            )

    def _run_estimates(self, items: List[_WorkItem]) -> List[Dict[str, object]]:
        """One vectorized evaluation for every request of one
        ``(pipeline, config, workload)`` group, scattered back per
        request."""
        first = items[0].request
        entry = self.registry.get(first.pipeline)
        self._check_workload(first, entry)
        config = entry.parse_config(first.config)
        union: List[int] = []
        seen = set()
        for item in items:
            for n in item.request.ns:
                if n not in seen:
                    seen.add(n)
                    union.append(n)
        totals = entry.cached_totals(config, union)
        by_n = {n: float(t) for n, t in zip(union, totals)}
        results = []
        for item in items:
            request_ns = list(item.request.ns)
            results.append(
                {
                    "pipeline": entry.name,
                    "fingerprint": entry.fingerprint,
                    "config": list(first.config),
                    "ns": request_ns,
                    "totals": [by_n[n] for n in request_ns],
                }
            )
        return results

    def _run_optimizes(self, items: List[_WorkItem]) -> List[Dict[str, object]]:
        """One batched ``optimize_many`` for every request of one
        ``(pipeline, backend, budget)`` group (orders merged, rankings
        scattered back; all requests of the group asked for the same
        search backend, so they legitimately share its run)."""
        first = items[0].request
        entry = self.registry.get(first.pipeline)
        self._check_workload(first, entry)
        union: List[int] = []
        seen = set()
        for item in items:
            for n in item.request.ns:
                if n not in seen:
                    seen.add(n)
                    union.append(n)
        outcomes = entry.pipeline.optimize_many(
            union,
            backend=first.backend,
            budget=first.budget,
            max_cost=first.max_cost,
            alpha=first.alpha,
        )
        entry.bound_engine_cache()
        by_n = {n: outcome for n, outcome in zip(union, outcomes)}
        for outcome in outcomes:
            self.metrics.record_search(outcome.stats)
        kinds = entry.pipeline.plan.kinds
        results = []
        for item in items:
            sizes = []
            for n in item.request.ns:
                outcome = by_n[n]
                stats = outcome.stats
                size_result = {
                    "n": n,
                    "candidates": len(outcome.ranking),
                    "ranking": [
                        {
                            "config": list(e.config.as_flat_tuple(kinds)),
                            "estimate_s": e.estimate_s,
                        }
                        for e in outcome.top(item.request.top)
                    ],
                }
                if stats is not None:
                    size_result["search"] = {
                        "backend": stats.backend,
                        "evaluations": stats.evaluations,
                        "pruned_candidates": stats.pruned_candidates,
                        "exhausted": stats.exhausted,
                        "complete": outcome.complete,
                    }
                sizes.append(size_result)
            results.append(
                {
                    "pipeline": entry.name,
                    "fingerprint": entry.fingerprint,
                    "sizes": sizes,
                }
            )
        return results

    def _run_paretos(self, items: List[_WorkItem]) -> List[Dict[str, object]]:
        """One batched ``pareto_many`` for every request of one
        ``(pipeline, budget, max_cost)`` group.  Each reply carries its
        sizes' *entire* frontiers — truncation would silently drop
        non-dominated points, so the protocol does not offer ``top``
        here — plus the serving fingerprint as per-point provenance."""
        first = items[0].request
        entry = self.registry.get(first.pipeline)
        self._check_workload(first, entry)
        union: List[int] = []
        seen = set()
        for item in items:
            for n in item.request.ns:
                if n not in seen:
                    seen.add(n)
                    union.append(n)
        outcomes = entry.pipeline.pareto_many(
            union, budget=first.budget, max_cost=first.max_cost
        )
        entry.bound_engine_cache()
        by_n = {n: outcome for n, outcome in zip(union, outcomes)}
        for outcome in outcomes:
            self.metrics.record_search(outcome.stats)
            self.metrics.record_frontier(outcome)
        kinds = entry.pipeline.plan.kinds
        results = []
        for item in items:
            results.append(
                {
                    "pipeline": entry.name,
                    "fingerprint": entry.fingerprint,
                    "sizes": [by_n[n].to_dict(kinds) for n in item.request.ns],
                }
            )
        return results

    def _run_whatif(self, request: Request) -> Dict[str, object]:
        """One configuration's totals under every registered pipeline —
        the serving form of the what-if study: same question, every
        loaded model generation answers.  A ``workload`` field restricts
        the sweep to pipelines of that family (comparing a sorting model
        against an HPL model answers nothing)."""
        entries = self.registry.entries()
        if not entries:
            raise ProtocolError("no pipelines registered")
        if request.workload is not None:
            entries = [e for e in entries if e.workload == request.workload]
            if not entries:
                raise ProtocolError(
                    f"no pipelines registered for workload {request.workload!r} "
                    f"(serving: {', '.join(self.registry.names())})",
                    ERROR_INVALID_REQUEST,
                    extra={"field": "workload", "requested_workload": request.workload},
                )
        ns = list(request.ns)
        per_pipeline: Dict[str, Dict[str, object]] = {}
        totals_by_name: Dict[str, List[float]] = {}
        for entry in entries:
            try:
                config = entry.parse_config(request.config)
                totals = [float(t) for t in entry.cached_totals(config, ns)]
            except ReproError as exc:
                per_pipeline[entry.name] = {"error": str(exc)}
                continue
            per_pipeline[entry.name] = {
                "fingerprint": entry.fingerprint,
                "workload": entry.workload,
                "totals": totals,
            }
            totals_by_name[entry.name] = totals
        best = []
        for i in range(len(ns)):
            candidates = [
                (totals[i], name)
                for name, totals in totals_by_name.items()
                if finite_or_none(totals[i]) is not None
            ]
            best.append(min(candidates)[1] if candidates else None)
        return {
            "config": list(request.config),
            "ns": ns,
            "pipelines": per_pipeline,
            "best": best,
        }
