"""Synthetic datacenter-scale search problems (no measurements needed).

The paper's cluster has 2 kinds and 9 PEs; the ROADMAP north-star asks
what the search layer does at 10 kinds and hundreds of PEs, where the
space has ~10^23 configurations and exhaustive enumeration is physically
impossible.  No fitted pipeline exists at that scale (there is nothing
to measure), so the benchmarks and smoke tests use an *analytic*
objective with exactly the paper's structure:

    t_kind(kind, Mi, N, P) = Ta + Tc
    Ta = (2/3 N^3 / P) * Mi / rate_kind * (1 + alpha_kind * (Mi - 1))
    Tc = lat_kind * P + bw_kind * N^2 / sqrt(P)
    T(config, N)          = max over active kinds of t_kind

— per-kind time depends only on ``(kind, Mi, N, P)``, the configuration
total is the bottleneck kind, and the compute/communication tension puts
the optimum in the interior of the space.  Because the structure matches
the fitted models', the same :class:`~repro.core.search.bounds.
KindTimeBound` oracle drives branch-and-bound here, and every backend
can be exercised at any scale with zero measurement cost.

Parameters are drawn deterministically from :func:`repro.rng.stream`, so
a given ``(n_kinds, pes_per_kind, max_procs, seed)`` names one exact
problem instance forever.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.core.search.base import SearchProblem
from repro.core.search.bounds import KindTimeBound
from repro.core.search.space import SearchSpace
from repro.rng import stream


def synthetic_kind_params(
    n_kinds: int, seed: int = 2004
) -> Dict[str, Tuple[float, float, float, float]]:
    """Per-kind ``(rate_gflops, alpha, lat_s, bw_s)`` parameters.

    Rates climb a geometric ladder (the heterogeneity that makes kind
    choice matter) with a deterministic ±10% jitter; the multiprocessing
    penalty ``alpha`` and the communication coefficients get the same
    treatment.
    """
    params: Dict[str, Tuple[float, float, float, float]] = {}
    for index in range(n_kinds):
        rng = stream(seed, "synthetic-search", index)
        rate = 1.0 * (1.45**index) * float(rng.uniform(0.9, 1.1))
        alpha = float(rng.uniform(0.05, 0.15))
        lat = 2e-4 * float(rng.uniform(0.8, 1.2))
        bw = 6e-9 * float(rng.uniform(0.8, 1.2))
        params[f"kind{index}"] = (rate, alpha, lat, bw)
    return params


def synthetic_kind_time(
    params: Dict[str, Tuple[float, float, float, float]],
) -> Callable[[str, int, int, np.ndarray], np.ndarray]:
    """The vectorized ``kind_time(kind, mi, n, p_array)`` of the model
    above — both the bound oracle's profile source and the building block
    of :func:`synthetic_estimator`."""

    def kind_time(kind: str, mi: int, n: int, p_arr: np.ndarray) -> np.ndarray:
        rate, alpha, lat, bw = params[kind]
        p = np.maximum(np.asarray(p_arr, dtype=float), 1.0)
        flops = (2.0 / 3.0) * float(n) ** 3 / 1e9
        ta = (flops / p) * mi / rate * (1.0 + alpha * (mi - 1))
        tc = lat * p + bw * float(n) ** 2 / np.sqrt(p)
        return ta + tc

    return kind_time


def synthetic_estimator(
    n_kinds: int = 10, seed: int = 2004
) -> Callable[[ClusterConfig, int], float]:
    """The per-cell reference objective ``(config, n) -> seconds`` of the
    instance :func:`synthetic_problem` builds for the same ``n_kinds`` and
    ``seed``: the bottleneck ``kind_time`` over ``config.active``.

    The instance's grid objective is its vectorized form, cell for cell
    bitwise; brute-force references (``enumerate_frontier``) and the
    grid-vs-pointwise checks use this one.
    """
    kind_time = synthetic_kind_time(synthetic_kind_params(n_kinds, seed=seed))

    def estimator(config: ClusterConfig, n: int) -> float:
        p = np.array([config.total_processes])
        return float(
            max(
                kind_time(alloc.kind_name, alloc.procs_per_pe, n, p)[0]
                for alloc in config.active
            )
        )

    return estimator


def synthetic_problem(
    n_kinds: int = 10,
    pes_per_kind: int = 50,
    max_procs: int = 4,
    seed: int = 2004,
) -> SearchProblem:
    """A ready-to-search synthetic instance: space + objective + bounds.

    The default is the ROADMAP's 10-kind / 500-PE datacenter (space size
    ``(1 + 50*4)^10 - 1 ~ 1.1e23``); ``n_kinds=4, pes_per_kind=4,
    max_procs=3`` gives the 28 560-candidate instance small enough for
    the exhaustive baseline in the benchmarks.
    """
    params = synthetic_kind_params(n_kinds, seed=seed)
    kinds = list(params)
    choices: List[Tuple[Tuple[int, int], ...]] = []
    for _ in kinds:
        options: List[Tuple[int, int]] = [(0, 0)]
        for pe in range(1, pes_per_kind + 1):
            for m in range(1, max_procs + 1):
                options.append((pe, m))
        choices.append(tuple(sorted(options)))
    space = SearchSpace(kinds=tuple(kinds), choices=tuple(choices))
    # Per-kind parameter vectors for the grid estimator's gather.
    kind_ordinal = {kind: k for k, kind in enumerate(kinds)}
    rate_of, alpha_of, lat_of, bw_of = (
        np.asarray([params[kind][field] for kind in kinds], dtype=float)
        for field in range(4)
    )

    def grid_estimator(configs, ns) -> np.ndarray:
        # Candidate-axis form of ``synthetic_estimator``: flatten every active
        # allocation into parallel arrays (one row per (candidate, kind)
        # pair, with its kind's parameters gathered alongside), evaluate
        # the model as one elementwise ufunc chain per size — the exact
        # ``kind_time`` expression, operation for operation — and scatter
        # the bottleneck with ``np.maximum.at``.  All times are positive
        # float64s, so the scatter max is bitwise the scalar ``max`` over
        # ``config.active``.
        sizes = [int(n) for n in ns]
        out = np.full((len(configs), len(sizes)), -np.inf)
        counts: List[int] = []
        p_of: List[int] = []
        mi_list: List[int] = []
        kind_list: List[int] = []
        mi_append = mi_list.append
        kind_append = kind_list.append
        for config in configs:
            # Single raw pass over the allocations (the property-based
            # ``total_processes``/``active`` pair costs ~3x as much and
            # this loop is the kernel's only per-candidate Python work).
            # Only per-(candidate, kind) facts are appended row-wise; the
            # candidate index and process total expand via ``np.repeat``.
            p = 0
            rows = 0
            for alloc in config.allocations:
                pe = alloc.pe_count
                if pe > 0:
                    mi = alloc.procs_per_pe
                    p += pe * mi
                    mi_append(mi)
                    kind_append(kind_ordinal[alloc.kind_name])
                    rows += 1
            counts.append(rows)
            p_of.append(p)
        counts_arr = np.asarray(counts)
        cand = np.repeat(np.arange(len(configs)), counts_arr)
        gather = np.asarray(kind_list)
        rate_arr = rate_of[gather]
        alpha_arr = alpha_of[gather]
        lat_arr = lat_of[gather]
        bw_arr = bw_of[gather]
        p_arr = np.maximum(
            np.repeat(np.asarray(p_of, dtype=float), counts_arr), 1.0
        )
        mi_arr = np.asarray(mi_list, dtype=float)
        sqrt_p = np.sqrt(p_arr)
        penalty = 1.0 + alpha_arr * (mi_arr - 1)
        for j, n in enumerate(sizes):
            flops = (2.0 / 3.0) * float(n) ** 3 / 1e9
            ta = flops / p_arr * mi_arr / rate_arr * penalty
            tc = lat_arr * p_arr + bw_arr * float(n) ** 2 / sqrt_p
            np.maximum.at(out[:, j], cand, ta + tc)
        return out

    return SearchProblem(
        grid_estimator,
        space=space,
        kinds=kinds,
        bounds=lambda space: KindTimeBound(
            synthetic_kind_time(params), p_max=space.max_total_processes
        ),
        allow_unestimable=False,
        seed=seed,
    )
