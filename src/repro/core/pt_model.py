"""The P-T model (paper Section 3.3).

Managing one N-T model per ``(P, Mi)`` pair does not scale, so the paper
integrates the N-T family of a kind (at fixed per-PE process count ``Mi``)
into one model with the total process count ``P`` as a variable::

    Ta(N, P) = k7 * Ta_ref(N) / P + k8
    Tc(N, P) = k9 * P * Tc_ref(N) + k10 * Tc_ref(N) / P + k11

The ``1/P`` computation scaling comes from the O(N^3/P) ``update`` term;
the communication has a ``P``-proportional part (the ring broadcast grows
with the process count) and a ``1/P`` part (``laswp`` shrinks with it).

**Reference shapes.**  The paper writes ``Ta(N)|P,Mi`` inside the formula
without pinning down which N-T model supplies it; we resolve the ambiguity
as documented in DESIGN.md:

* ``Ta_ref(N)`` is the *total-work* shape: the N-T ``Ta`` polynomial of the
  reference (smallest measured ``P``) configuration rescaled by its own
  ``P``, so that ``Ta_ref(N)/P`` reads "1/P-th of the whole problem's
  computation".
* ``Tc_ref(N)`` is the N-T ``Tc`` polynomial of the smallest measured
  *multi-PE* configuration — single-PE configurations carry no inter-PE
  traffic and would make the reference degenerate.

Coefficients are extracted by least squares against the N-T family's
predictions over the construction grid (the paper fits "from the
corresponding N-T models"), which requires at least three measured ``P``
(two coefficients for Ta, three for Tc — Section 3.3).

:class:`PTModel` satisfies the :class:`~repro.core.model_api.TimeModel`
protocol; unlike the N-T model it genuinely depends on ``P``, so its
``predict_*`` require the ``p`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.core import lsq
from repro.core.model_api import ModelDomain, TimeModelMixin, register_model
from repro.core.nt_model import NTModel
from repro.errors import FitError, ModelError


@register_model("pt")
@dataclass(frozen=True)
class PTModel(TimeModelMixin):
    """Fitted P-T model for one ``(kind, Mi)`` pair."""

    kind_name: str
    mi: int
    #: total-work Ta reference polynomial (highest power first, degree 3)
    ta_ref: Tuple[float, float, float, float]
    #: Tc reference polynomial (highest power first, degree 2)
    tc_ref: Tuple[float, float, float]
    k7: float
    k8: float
    k9: float
    k10: float
    k11: float
    n_range: Tuple[int, int]
    p_range: Tuple[int, int]
    composed_from: str = ""  # source kind when built by model composition

    def __post_init__(self) -> None:
        if self.mi < 1:
            raise ModelError(f"invalid Mi={self.mi}")
        if len(self.ta_ref) != 4 or len(self.tc_ref) != 3:
            raise ModelError("P-T reference polynomials have wrong degree")

    # -- prediction ---------------------------------------------------------

    def predict_ta(self, n, p=None):
        """Computation time of this kind's processes at ``(N, P)``."""
        self._check_p(p)
        ref = lsq.polyval(self.ta_ref, n)
        return self.k7 * np.asarray(ref) / np.asarray(p, dtype=float) + self.k8 \
            if np.ndim(ref) or np.ndim(p) else self.k7 * ref / float(p) + self.k8

    def predict_tc(self, n, p=None):
        """Communication time of this kind's processes at ``(N, P)``."""
        self._check_p(p)
        ref = lsq.polyval(self.tc_ref, n)
        if not (np.ndim(ref) or np.ndim(p)):
            p = float(p)
            return self.k9 * p * ref + self.k10 * ref / p + self.k11
        ref, p_arr = np.asarray(ref, dtype=float), np.asarray(p, dtype=float)
        return self.k9 * p_arr * ref + self.k10 * ref / p_arr + self.k11

    @property
    def domain(self) -> ModelDomain:
        return ModelDomain(n_range=self.n_range, p_range=self.p_range)

    # -- construction ------------------------------------------------------------

    @classmethod
    def fit_from_nt_family(
        cls,
        nt_models: Sequence[NTModel],
        sizes: Sequence[float],
    ) -> "PTModel":
        """Integrate an N-T family (same kind, same Mi, different P) into a
        P-T model, sampling each N-T model at ``sizes``.

        Raises :class:`FitError` unless at least three distinct ``P`` are
        present (the paper's minimum for the three Tc coefficients), and
        when the Ta or Tc design is rank-deficient.
        """
        if not nt_models:
            raise FitError("empty N-T family")
        kind = nt_models[0].kind_name
        mi = nt_models[0].mi
        for model in nt_models:
            if model.kind_name != kind or model.mi != mi:
                raise FitError(
                    "N-T family must share kind and Mi: "
                    f"({model.kind_name}, Mi={model.mi}) vs ({kind}, Mi={mi})"
                )
        p_values = sorted({model.p for model in nt_models})
        if len(p_values) < 3:
            raise FitError(
                f"P-T model for ({kind}, Mi={mi}) needs >= 3 distinct P, "
                f"got {p_values} — use model composition instead "
                "(paper Section 3.5)"
            )
        n_arr = np.asarray(sizes, dtype=float)
        if n_arr.size < 2:
            raise FitError("need at least two sampling sizes")

        by_p = {model.p: model for model in sorted(nt_models, key=lambda m: m.p)}
        ref_model = by_p[p_values[0]]
        ta_ref = tuple(float(c) * ref_model.p for c in ref_model.ka)

        multi_pe = [model for model in nt_models if not model.is_single_pe]
        tc_source = min(multi_pe, key=lambda m: m.p) if multi_pe else ref_model
        tc_ref = tuple(float(c) for c in tc_source.kc)

        # Assemble the (N, P) -> Ta / Tc samples from the N-T predictions.
        rows_ta, y_ta, rows_tc, y_tc = [], [], [], []
        ta_ref_vals = np.asarray(lsq.polyval(ta_ref, n_arr), dtype=float)
        tc_ref_vals = np.asarray(lsq.polyval(tc_ref, n_arr), dtype=float)
        for p in p_values:
            model = by_p[p]
            rows_ta.append(np.column_stack([ta_ref_vals / p, np.ones_like(n_arr)]))
            y_ta.append(np.asarray(model.predict_ta(n_arr), dtype=float))
            rows_tc.append(
                np.column_stack(
                    [p * tc_ref_vals, tc_ref_vals / p, np.ones_like(n_arr)]
                )
            )
            y_tc.append(np.asarray(model.predict_tc(n_arr), dtype=float))
        fit_ta = lsq.multifit_linear(np.vstack(rows_ta), np.concatenate(y_ta))
        fit_tc = lsq.multifit_linear(np.vstack(rows_tc), np.concatenate(y_tc))
        at = ", ".join(f"{n:.15g}" for n in n_arr)
        for part, fit in (("Ta", fit_ta), ("Tc", fit_tc)):
            fit.require_full_rank(
                f"P-T model for ({kind}, Mi={mi}) {part} over P = {p_values} at N = [{at}]"
            )

        return cls(
            kind_name=kind,
            mi=mi,
            ta_ref=ta_ref,
            tc_ref=tc_ref,
            k7=float(fit_ta.coefficients[0]),
            k8=float(fit_ta.coefficients[1]),
            k9=float(fit_tc.coefficients[0]),
            k10=float(fit_tc.coefficients[1]),
            k11=float(fit_tc.coefficients[2]),
            n_range=(int(n_arr.min()), int(n_arr.max())),
            p_range=(min(p_values), max(p_values)),
        )

    def scaled(
        self, kind_name: str, ta_factor: float, tc_factor: float
    ) -> "PTModel":
        """Model composition (paper Section 3.5): derive another kind's P-T
        model by scaling this one's Ta and Tc by constant factors."""
        self._check_scale_factors(ta_factor, tc_factor)
        return PTModel(
            kind_name=kind_name,
            mi=self.mi,
            ta_ref=tuple(c * ta_factor for c in self.ta_ref),
            tc_ref=tuple(c * tc_factor for c in self.tc_ref),
            k7=self.k7,
            k8=self.k8 * ta_factor,
            k9=self.k9,
            k10=self.k10,
            k11=self.k11 * tc_factor,
            n_range=self.n_range,
            p_range=self.p_range,
            composed_from=self.kind_name,
        )

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind_name,
            "mi": self.mi,
            "ta_ref": list(self.ta_ref),
            "tc_ref": list(self.tc_ref),
            "k": [self.k7, self.k8, self.k9, self.k10, self.k11],
            "n_range": list(self.n_range),
            "p_range": list(self.p_range),
            "composed_from": self.composed_from,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PTModel":
        k = [float(v) for v in data["k"]]  # type: ignore[union-attr]
        return cls(
            kind_name=str(data["kind"]),
            mi=int(data["mi"]),
            ta_ref=tuple(float(v) for v in data["ta_ref"]),  # type: ignore[union-attr]
            tc_ref=tuple(float(v) for v in data["tc_ref"]),  # type: ignore[union-attr]
            k7=k[0],
            k8=k[1],
            k9=k[2],
            k10=k[3],
            k11=k[4],
            n_range=tuple(int(v) for v in data["n_range"]),  # type: ignore[union-attr,arg-type]
            p_range=tuple(int(v) for v in data["p_range"]),  # type: ignore[union-attr,arg-type]
            composed_from=str(data.get("composed_from", "")),
        )
