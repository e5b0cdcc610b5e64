"""The N-T model (paper Section 3.2).

For one fixed configuration — a PE kind, a total process count ``P`` and a
per-PE process count ``Mi`` — the execution time of that kind's processes
is approximated as polynomials in the problem order ``N``::

    Ta(N) = k0 N^3 + k1 N^2 + k2 N + k3        (computation)
    Tc(N) = k4 N^2 + k5 N + k6                 (communication)

The polynomial orders follow the algorithm analysis: the ``update`` phase
is O(N^3/P) and dominates ``Ta``; every communication item is O(N^2) or
lower.  Coefficients are extracted by least squares
(:func:`repro.core.lsq.multifit_linear`), which needs at least four
distinct ``N`` for ``Ta`` and three for ``Tc`` — the paper's minimum
measurement requirement.

:class:`NTModel` satisfies the :class:`~repro.core.model_api.TimeModel`
protocol; it is fitted at fixed ``P``, so the protocol's ``p`` argument
is accepted and ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.core import lsq
from repro.core.model_api import ModelDomain, TimeModelMixin, register_model
from repro.errors import FitError, ModelError
from repro.measure.dataset import Dataset


@register_model("nt")
@dataclass(frozen=True)
class NTModel(TimeModelMixin):
    """Fitted N-T model for one ``(kind, P, Mi)`` configuration."""

    kind_name: str
    p: int  # total processes in the fitted configuration
    mi: int  # processes per PE of this kind
    ka: Tuple[float, float, float, float]  # k0..k3, highest power first
    kc: Tuple[float, float, float]  # k4..k6, highest power first
    n_range: Tuple[int, int]  # [min, max] N used for fitting
    chisq_ta: float = 0.0
    chisq_tc: float = 0.0
    composed_from: str = ""  # source kind when built by model composition

    def __post_init__(self) -> None:
        if self.p < 1 or self.mi < 1:
            raise ModelError(f"invalid configuration P={self.p}, Mi={self.mi}")
        if self.p < self.mi:
            raise ModelError(
                f"P={self.p} < Mi={self.mi}: total processes cannot be fewer "
                "than one PE's processes"
            )
        if len(self.ka) != 4 or len(self.kc) != 3:
            raise ModelError("N-T model needs 4 Ta and 3 Tc coefficients")

    @property
    def is_single_pe(self) -> bool:
        """True when the fitted configuration ran on one PE (``P == Mi``)."""
        return self.p == self.mi

    # -- prediction ---------------------------------------------------------

    def predict_ta(self, n, p=None):
        """Computation time at order ``n`` (scalar or array; the model is
        bound to its fitted ``P``, so ``p`` is ignored)."""
        return lsq.polyval(self.ka, n)

    def predict_tc(self, n, p=None):
        """Communication time at order ``n`` (scalar or array)."""
        return lsq.polyval(self.kc, n)

    @property
    def domain(self) -> ModelDomain:
        return ModelDomain(n_range=self.n_range)

    # -- construction ------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        kind_name: str,
        p: int,
        mi: int,
        sizes: Sequence[float],
        ta: Sequence[float],
        tc: Sequence[float],
        weighting: str = "uniform",
    ) -> "NTModel":
        """Extract k0..k6 from measurements of one configuration.

        ``weighting`` selects the least-squares objective:

        * ``"uniform"`` (the paper; GSL's default) minimizes absolute
          residuals — the largest sizes dominate, small-N accuracy is
          sacrificed;
        * ``"relative"`` weights each observation by ``1/t^2``, minimizing
          *relative* residuals — the paper's future-work item (3) "reduce
          the errors in estimation" in its simplest effective form (see
          ``benchmarks/bench_weighted_fit.py`` for what it buys).

        Raises :class:`FitError` with an explanatory message when fewer
        than 4 (Ta) / 3 (Tc) distinct sizes are supplied — the paper's
        Section 3.2 minimum — or when either design is rank-deficient at
        these sizes (too close together, or too large, for the cubic's
        columns to stay independent in double precision).
        """
        n_arr = np.asarray(sizes, dtype=float)
        if len(set(n_arr.tolist())) < 4:
            raise FitError(
                f"N-T model for {kind_name} (P={p}, Mi={mi}) needs >= 4 "
                f"distinct N values, got {sorted(set(n_arr.tolist()))}"
            )
        ta_arr = np.asarray(ta, dtype=float)
        tc_arr = np.asarray(tc, dtype=float)
        if weighting == "uniform":
            fit_a = lsq.multifit_linear(lsq.design_cubic(n_arr), ta_arr)
            fit_c = lsq.multifit_linear(lsq.design_quadratic(n_arr), tc_arr)
        elif weighting == "relative":
            w_a = 1.0 / np.maximum(ta_arr, 1e-12) ** 2
            w_c = 1.0 / np.maximum(tc_arr, 1e-12) ** 2
            fit_a = lsq.multifit_wlinear(lsq.design_cubic(n_arr), w_a, ta_arr)
            fit_c = lsq.multifit_wlinear(lsq.design_quadratic(n_arr), w_c, tc_arr)
        else:
            raise FitError(f"unknown weighting {weighting!r}")
        at = ", ".join(f"{n:.15g}" for n in n_arr)
        for part, fit in (("Ta", fit_a), ("Tc", fit_c)):
            fit.require_full_rank(
                f"N-T model for {kind_name} (P={p}, Mi={mi}) {part} at N = [{at}]"
            )
        return cls(
            kind_name=kind_name,
            p=p,
            mi=mi,
            ka=tuple(fit_a.coefficients.tolist()),
            kc=tuple(fit_c.coefficients.tolist()),
            n_range=(int(n_arr.min()), int(n_arr.max())),
            chisq_ta=fit_a.chisq,
            chisq_tc=fit_c.chisq,
        )

    @classmethod
    def fit_dataset(
        cls,
        dataset: Dataset,
        kind_name: str,
        config_tuple: Sequence[int],
        weighting: str = "uniform",
    ) -> "NTModel":
        """Fit from every record of ``config_tuple`` in ``dataset``."""
        subset = dataset.for_config(config_tuple)
        if len(subset) == 0:
            raise FitError(f"no measurements for configuration {tuple(config_tuple)}")
        sizes, ta, tc = [], [], []
        p = subset[0].total_processes
        mi = subset[0].procs_per_pe(kind_name)
        for record in subset:
            km = record.kind(kind_name)
            sizes.append(record.n)
            ta.append(km.ta)
            tc.append(km.tc)
        return cls.fit(kind_name, p, mi, sizes, ta, tc, weighting=weighting)

    def scaled(self, kind_name: str, ta_factor: float, tc_factor: float) -> "NTModel":
        """Model composition (paper Section 3.5): derive another kind's
        N-T model by scaling Ta and Tc by constant factors."""
        self._check_scale_factors(ta_factor, tc_factor)
        return NTModel(
            kind_name=kind_name,
            p=self.p,
            mi=self.mi,
            ka=tuple(c * ta_factor for c in self.ka),
            kc=tuple(c * tc_factor for c in self.kc),
            n_range=self.n_range,
            composed_from=self.kind_name,
        )

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind_name,
            "p": self.p,
            "mi": self.mi,
            "ka": list(self.ka),
            "kc": list(self.kc),
            "n_range": list(self.n_range),
            "chisq_ta": self.chisq_ta,
            "chisq_tc": self.chisq_tc,
        }
        if self.composed_from:
            out["composed_from"] = self.composed_from
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "NTModel":
        return cls(
            kind_name=str(data["kind"]),
            p=int(data["p"]),
            mi=int(data["mi"]),
            ka=tuple(float(v) for v in data["ka"]),  # type: ignore[union-attr]
            kc=tuple(float(v) for v in data["kc"]),  # type: ignore[union-attr]
            n_range=tuple(int(v) for v in data["n_range"]),  # type: ignore[union-attr,arg-type]
            chisq_ta=float(data.get("chisq_ta", 0.0)),
            chisq_tc=float(data.get("chisq_tc", 0.0)),
            composed_from=str(data.get("composed_from", "")),
        )
