#!/usr/bin/env python
"""Search smoke check: every registered backend on the paper's grid.

Fast CI guard for the Search protocol.  It fits the paper's NS pipeline
(seed 7), then runs **every** backend in the registry over the full
62-candidate evaluation grid at every evaluation size and asserts:

* exact backends (``exhaustive``, ``branch-bound``) agree **bitwise** on
  the winning configuration and its estimate — same key, same float,
  ``==`` with no tolerances;
* branch-and-bound actually prunes (fewer evaluations than candidates,
  evaluations + pruned candidates cover the grid);
* heuristic backends return a finite, validly-ranked answer and respect
  an evaluation budget when given one;
* every backend called twice on the same pipeline — the second call on
  the search engine's shared problem and a warm estimate cache — gives
  bitwise the same outcome and ``SearchStats``.

Exit status is non-zero on any failure.  Run it as::

    PYTHONPATH=src python tools/search_smoke.py
"""

from __future__ import annotations

import math
import sys

from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.search import iter_search_registry

SEED = 7
#: Exact backends must reproduce the exhaustive winner bitwise; the rest
#: are anytime heuristics judged on validity, not optimality.
EXACT_BACKENDS = ("exhaustive", "branch-bound")
SMOKE_BUDGET = 40


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def signature(outcome) -> tuple:
    """Everything observable about an outcome, floats bit-for-bit."""
    return (
        outcome.n,
        outcome.complete,
        [(e.config.key(), e.estimate_s) for e in outcome.ranking],
        outcome.stats.to_dict(include_trace=True),
    )


def check_backend(pipeline, tag: str, n: int, reference) -> str:
    outcome = pipeline.optimize(n, backend=tag)
    stats = outcome.stats
    if signature(pipeline.optimize(n, backend=tag)) != signature(outcome):
        fail(f"{tag}: a second call differs from the first at N={n}")
    if not math.isfinite(outcome.best.estimate_s):
        fail(f"{tag} returned a non-finite best at N={n}")
    if tag in EXACT_BACKENDS:
        if outcome.best.config.key() != reference.best.config.key():
            fail(
                f"{tag} winner {outcome.best.config.label()} differs from "
                f"exhaustive {reference.best.config.label()} at N={n}"
            )
        if outcome.best.estimate_s != reference.best.estimate_s:
            fail(
                f"{tag} estimate {outcome.best.estimate_s!r} is not bitwise "
                f"{reference.best.estimate_s!r} at N={n}"
            )
    if tag == "branch-bound":
        total = len(reference.ranking)
        if stats.evaluations + stats.pruned_candidates != total:
            fail(
                f"branch-bound accounting broken at N={n}: "
                f"{stats.evaluations} evaluated + {stats.pruned_candidates} "
                f"pruned != {total} candidates"
            )
        if stats.evaluations >= total:
            fail(f"branch-bound pruned nothing at N={n}")
    return (
        f"{stats.evaluations} evals"
        + (f", {stats.pruned_candidates} pruned" if stats.pruned_candidates else "")
        + ", repeat identical"
    )


def check_budget(pipeline, tag: str, n: int) -> None:
    try:
        outcome = pipeline.optimize(n, backend=tag, budget=SMOKE_BUDGET)
    except Exception as exc:  # exhaustive rejects budgets by design
        if tag == "exhaustive":
            return
        fail(f"{tag} rejected budget={SMOKE_BUDGET}: {exc}")
    if outcome.stats.evaluations > SMOKE_BUDGET:
        fail(
            f"{tag} spent {outcome.stats.evaluations} evaluations over "
            f"its budget of {SMOKE_BUDGET} at N={n}"
        )


def main() -> None:
    from repro.cluster.presets import kishimoto_cluster

    pipeline = EstimationPipeline(
        kishimoto_cluster(), PipelineConfig(protocol="ns", seed=SEED)
    )
    _ = pipeline.store, pipeline.adjustment
    sizes = pipeline.plan.evaluation_sizes
    grid = len(pipeline.plan.evaluation_configs)
    tags = [tag for tag, _ in iter_search_registry()]
    print(
        f"search smoke: {len(tags)} backends x {len(sizes)} sizes "
        f"on the {grid}-candidate paper grid"
    )
    for n in sizes:
        reference = pipeline.optimize(n, backend="exhaustive")
        for tag in tags:
            detail = check_backend(pipeline, tag, n, reference)
            print(f"ok: {tag:<12} N={n}  {detail}")
    for tag in tags:
        check_budget(pipeline, tag, sizes[0])
    print(f"ok: budgets honored (budget={SMOKE_BUDGET})")
    print("search smoke passed")


if __name__ == "__main__":
    main()
