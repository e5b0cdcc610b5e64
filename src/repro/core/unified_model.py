"""A unified two-variable model — the paper's future-work item (1).

Section 5: "Our aim remains (1) to make the estimation model more elegant
and unified...".  The Basic/NL/NS machinery fits a *family* of N-T models
and then integrates them into P-T models, with binning to switch between
the two.  This module provides the obvious unification: fit **one** model
per ``(kind, Mi)`` directly on the raw ``(N, P)`` measurements::

    Ta(N, P) = u0 * N^3 / P  +  u1 * N^2 / P  +  u2 * N^2  +  u3 * N  +  u4
    Tc(N, P) = u5 * P * N^2  +  u6 * N^2 / P  +  u7 * N^2  +  u8 * N  +  u9

The terms mirror the algorithm analysis of Section 3.2 (the ``update``
O(N^3/P) and O(N^2) parts, the ring broadcast's ``(P-1)·O(N^2)``, the
``laswp`` ``O(N^2)/P``) — but everything is extracted in a *single* least
squares per kind, with no reference-shape plumbing, no two-stage error
accumulation, and one model covering single-PE and multi-PE configurations
alike (no binning).

Trade-off (quantified by ``benchmarks/bench_unified.py``): the unified
model is simpler and at least as accurate *inside* the measured (N, P)
envelope, but it shares polynomial extrapolation's fragility — fitted on
the NS grid it fails exactly like the N-T/P-T stack, because the problem
is the data, not the plumbing.

:class:`UnifiedModel` satisfies the
:class:`~repro.core.model_api.TimeModel` protocol, and
:class:`UnifiedEstimator` is now a thin constructor over the
:class:`~repro.core.estimator.Estimator` facade with a
:class:`~repro.core.estimator.UnifiedBackend` — proof that a whole
alternative estimation method plugs in behind the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core import lsq
from repro.core.estimator import Estimator
from repro.core.model_api import ModelDomain, TimeModelMixin, register_model
from repro.core.search.base import pointwise
from repro.errors import FitError, ModelError
from repro.measure.dataset import Dataset


def _design_ta(n: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.column_stack(
        [n**3 / p, n**2 / p, n**2, n, np.ones_like(n)]
    )


def _design_tc(n: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.column_stack(
        [p * n**2, n**2 / p, n**2, n, np.ones_like(n)]
    )


@register_model("unified")
@dataclass(frozen=True)
class UnifiedModel(TimeModelMixin):
    """One direct ``(N, P) -> (Ta, Tc)`` model for a ``(kind, Mi)`` pair."""

    kind_name: str
    mi: int
    ua: Tuple[float, float, float, float, float]
    uc: Tuple[float, float, float, float, float]
    n_range: Tuple[int, int]
    p_range: Tuple[int, int]
    #: fit diagnostics; excluded from equality so serialization round-trips
    chisq_ta: float = field(default=0.0, compare=False)
    chisq_tc: float = field(default=0.0, compare=False)
    composed_from: str = ""  # source kind when built by model composition

    def __post_init__(self) -> None:
        if self.mi < 1:
            raise ModelError(f"invalid Mi={self.mi}")
        if len(self.ua) != 5 or len(self.uc) != 5:
            raise ModelError("unified model needs 5 + 5 coefficients")

    # -- prediction ---------------------------------------------------------

    def predict_ta(self, n, p=None):
        n_arr = np.asarray(n, dtype=float)
        self._check_p(p)
        p_arr = np.asarray(p, dtype=float)
        out = _design_ta(np.atleast_1d(n_arr), np.atleast_1d(p_arr)) @ np.asarray(self.ua)
        return out if n_arr.ndim or p_arr.ndim else float(out[0])

    def predict_tc(self, n, p=None):
        n_arr = np.asarray(n, dtype=float)
        self._check_p(p)
        p_arr = np.asarray(p, dtype=float)
        out = _design_tc(np.atleast_1d(n_arr), np.atleast_1d(p_arr)) @ np.asarray(self.uc)
        return out if n_arr.ndim or p_arr.ndim else float(out[0])

    @property
    def domain(self) -> ModelDomain:
        return ModelDomain(n_range=self.n_range, p_range=self.p_range)

    # -- construction ------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        kind_name: str,
        mi: int,
        sizes: Sequence[float],
        procs: Sequence[float],
        ta: Sequence[float],
        tc: Sequence[float],
    ) -> "UnifiedModel":
        """Fit from raw samples; needs at least 5 observations with at
        least 2 distinct ``P`` and 4 distinct ``N`` (else the design is
        structurally rank-deficient for the terms we care about)."""
        n_arr = np.asarray(sizes, dtype=float)
        p_arr = np.asarray(procs, dtype=float)
        if n_arr.shape != p_arr.shape:
            raise FitError("sizes and procs must align")
        if len(set(n_arr.tolist())) < 4:
            raise FitError(
                f"unified model for ({kind_name}, Mi={mi}) needs >= 4 "
                "distinct N"
            )
        if len(set(p_arr.tolist())) < 2:
            raise FitError(
                f"unified model for ({kind_name}, Mi={mi}) needs >= 2 "
                "distinct P"
            )
        fit_a = lsq.multifit_linear(_design_ta(n_arr, p_arr), np.asarray(ta, dtype=float))
        fit_c = lsq.multifit_linear(_design_tc(n_arr, p_arr), np.asarray(tc, dtype=float))
        return cls(
            kind_name=kind_name,
            mi=mi,
            ua=tuple(fit_a.coefficients.tolist()),
            uc=tuple(fit_c.coefficients.tolist()),
            n_range=(int(n_arr.min()), int(n_arr.max())),
            p_range=(int(p_arr.min()), int(p_arr.max())),
            chisq_ta=fit_a.chisq,
            chisq_tc=fit_c.chisq,
        )

    @classmethod
    def fit_dataset(cls, dataset: Dataset, kind_name: str, mi: int) -> "UnifiedModel":
        """Fit from every single-kind record of ``(kind, Mi)`` in a
        construction dataset, across all its (N, P) combinations at once."""
        sizes, procs, ta, tc = [], [], [], []
        for record in dataset.single_kind(kind_name):
            if record.procs_per_pe(kind_name) != mi:
                continue
            km = record.kind(kind_name)
            sizes.append(float(record.n))
            procs.append(float(record.total_processes))
            ta.append(km.ta)
            tc.append(km.tc)
        if not sizes:
            raise FitError(f"no measurements for ({kind_name}, Mi={mi})")
        return cls.fit(kind_name, mi, sizes, procs, ta, tc)

    def scaled(self, kind_name: str, ta_factor: float, tc_factor: float) -> "UnifiedModel":
        """Model composition, as for P-T models (Section 3.5)."""
        self._check_scale_factors(ta_factor, tc_factor)
        return UnifiedModel(
            kind_name=kind_name,
            mi=self.mi,
            ua=tuple(c * ta_factor for c in self.ua),
            uc=tuple(c * tc_factor for c in self.uc),
            n_range=self.n_range,
            p_range=self.p_range,
            composed_from=self.kind_name,
        )

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind_name,
            "mi": self.mi,
            "ua": list(self.ua),
            "uc": list(self.uc),
            "n_range": list(self.n_range),
            "p_range": list(self.p_range),
        }
        if self.composed_from:
            out["composed_from"] = self.composed_from
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "UnifiedModel":
        return cls(
            kind_name=str(data["kind"]),
            mi=int(data["mi"]),
            ua=tuple(float(v) for v in data["ua"]),  # type: ignore[union-attr]
            uc=tuple(float(v) for v in data["uc"]),  # type: ignore[union-attr]
            n_range=tuple(int(v) for v in data["n_range"]),  # type: ignore[union-attr,arg-type]
            p_range=tuple(int(v) for v in data["p_range"]),  # type: ignore[union-attr,arg-type]
            composed_from=str(data.get("composed_from", "")),
        )


class UnifiedEstimator:
    """Drop-in estimator over unified models: composes per-kind times with
    the same bottleneck (max) rule as the binned pipeline, via the
    :class:`~repro.core.estimator.Estimator` facade.

    Build with :meth:`fit_dataset`; kinds without enough (N, P) coverage
    are composed from the richest kind with the same constant-factor
    scaling used for P-T composition.
    """

    def __init__(self, models: Dict[Tuple[str, int], UnifiedModel]):
        self._facade = Estimator.for_unified(dict(models))
        self.models = self._facade.backend.by_key  # type: ignore[attr-defined]

    @classmethod
    def fit_dataset(
        cls,
        dataset: Dataset,
        composition_factors: Mapping[str, Tuple[float, float]] | None = None,
    ) -> "UnifiedEstimator":
        """Fit every (kind, Mi) with enough data; compose the rest.

        ``composition_factors`` maps a target kind name to its (Ta, Tc)
        scale relative to the source kind (the kind with the most fitted
        models).  Kinds missing from the mapping use the ratio of their
        single-PE measurements at the largest common size.
        """
        models: Dict[Tuple[str, int], UnifiedModel] = {}
        kinds: Dict[str, List[int]] = {}
        for record in dataset:
            if not record.is_single_kind:
                continue
            km = next(k for k in record.per_kind if k.pe_count > 0)
            kinds.setdefault(km.kind_name, [])
            if km.procs_per_pe not in kinds[km.kind_name]:
                kinds[km.kind_name].append(km.procs_per_pe)
        for kind_name, mi_values in kinds.items():
            for mi in mi_values:
                try:
                    models[(kind_name, mi)] = UnifiedModel.fit_dataset(
                        dataset, kind_name, mi
                    )
                except FitError:
                    continue
        if not models:
            raise FitError("dataset supports no unified models")

        # Compose for kinds with missing Mi coverage.
        fitted_counts = {
            kind: sum(1 for (k, _) in models if k == kind) for kind in kinds
        }
        source = max(fitted_counts, key=lambda k: (fitted_counts[k], k))
        for kind_name, mi_values in kinds.items():
            if kind_name == source:
                continue
            for mi in mi_values:
                if (kind_name, mi) in models or (source, mi) not in models:
                    continue
                factors = (
                    composition_factors.get(kind_name)
                    if composition_factors
                    else None
                )
                if factors is None:
                    factors = _derive_factors(dataset, kind_name, source, mi)
                models[(kind_name, mi)] = models[(source, mi)].scaled(
                    kind_name, *factors
                )
        return cls(models)

    def estimate(self, config, n: int) -> float:
        """Estimated execution time of a configuration (bottleneck kind).

        Returns ``inf`` when any kind's prediction is non-positive — the
        model is out of its domain for that configuration and must not
        make it look cheap (same semantics as the binned pipeline).
        """
        return self._facade.estimate_total(config, n)

    def estimator(self):
        """Objective form for the search backends: :meth:`estimate` lifted
        cell by cell to the ``(configs, ns) -> (C, S)`` grid form."""
        return pointwise(self.estimate)


def _derive_factors(
    dataset: Dataset, target: str, source: str, mi: int
) -> Tuple[float, float]:
    """Ta factor from the kinds' single-PE measurements at the largest
    common size (same logic as CompositionPolicy's auto mode); Tc factor
    1.0 (no usable single-PE communication signal)."""
    target_records = [
        r
        for r in dataset.single_kind(target)
        if r.total_processes == mi and r.procs_per_pe(target) == mi
    ]
    source_records = [
        r
        for r in dataset.single_kind(source)
        if r.total_processes == mi and r.procs_per_pe(source) == mi
    ]
    common = sorted(
        {r.n for r in target_records} & {r.n for r in source_records}
    )
    if not common:
        raise FitError(
            f"cannot derive composition factors {target} <- {source} "
            f"(Mi={mi}): no common single-PE sizes"
        )
    n_ref = common[-1]
    t_target = next(r for r in target_records if r.n == n_ref).kind(target).ta
    t_source = next(r for r in source_records if r.n == n_ref).kind(source).ta
    if t_source <= 0 or t_target <= 0:
        raise FitError("non-positive Ta in composition reference")
    return (t_target / t_source, 1.0)
