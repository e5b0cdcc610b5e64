"""The candidate-axis vectorized estimation kernel.

Every search backend used to pay one Python-level estimator call per
candidate configuration; only the size axis was vectorized.  This module
vectorizes the *candidate* axis too: :class:`GridKernel` packs the
coefficients of every routed N-T / P-T model into tensors (grown lazily
as new ``(kind, P, Mi)`` queries appear, re-packed only when a new model
is routed) and evaluates the polynomial fits, the memory bins, the
max-over-kinds composition and the linear adjustment for a whole
``(C, S)`` block of candidates x sizes in a handful of NumPy passes.  It
is the only vectorized evaluator of a fitted model: search backends,
``estimate_totals`` (a 1 x k block) and the served estimate cache all
go through it.

**Bitwise-equivalence contract.**  Cell ``[i, j]`` of
:meth:`GridKernel.evaluate` is bitwise the value of
``EstimationPipeline.estimate(configs[i], ns[j]).total``:

* polynomial rows use the same Horner recurrence as
  :func:`repro.core.lsq.polyval` (``np.polyval``), evaluated per packed
  row — elementwise float64 ops, identical bits;
* the P-T formulas replicate :meth:`repro.core.pt_model.PTModel.predict_ta`
  / ``predict_tc`` operation-for-operation, association order included;
* memory bins scale ``Ta`` / ``Tc`` per cell by the bin
  :meth:`~repro.core.estimator.Estimator.bin_for` picks for
  ``memory_ratio_fn(config, n, kind)``, before the validity test and the
  clamp — :meth:`~repro.core.estimator.Estimator.estimate_kind`'s order;
* per-kind validity is checked on the *pre-clamp* sum ``(Ta + Tc) > 0``
  and the phases are clamped with ``np.maximum(x, 0.0)``;
* composition scatters with ``np.maximum.at`` / ``np.logical_and.at``
  from identities (``-inf`` / ``True``) — max over non-negative
  (or NaN/inf) values is order-independent bitwise, so the scatter
  equals the scalar path's ``max`` over ``config.active``;
* the adjustment multiplies ``scale_for(max Mi)`` per candidate row and
  invalid cells become ``+inf``.

Only the paper's binned backend is vectorized; a kernel over any other
facade (:class:`~repro.core.estimator.UnifiedBackend`) is a
:class:`~repro.errors.ModelError`.

Errors surface exactly as the scalar path would: candidates are
validated and routed in block order, so the first failing candidate
raises the same :class:`~repro.errors.ConfigurationError` /
:class:`~repro.errors.ModelError` the scalar estimator would have raised
when it reached that candidate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import BinnedBackend, Estimator
from repro.errors import ModelError


def polyval_rows(coeffs: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Horner evaluation of many highest-power-first polynomials over one
    shared size axis: row ``k`` is bitwise ``np.polyval(coeffs[k], sizes)``
    (the same ``y = y * x + c`` recurrence, elementwise float64)."""
    out = np.zeros((coeffs.shape[0], sizes.size), dtype=float)
    for k in range(coeffs.shape[1]):
        out = out * sizes[None, :] + coeffs[:, k][:, None]
    return out


class GridKernel:
    """Vectorized ``(configs, sizes) -> (C, S)`` adjusted-estimate block.

    Parameters
    ----------
    facade:
        The :class:`~repro.core.estimator.Estimator` whose models answer
        the queries; it must route through a :class:`BinnedBackend`.
    adjustment:
        The pipeline's :class:`~repro.core.adjustment.LinearAdjustment`.
    validate:
        Optional per-configuration validation hook (the pipeline passes
        ``config.validate_against(spec)``), called in block order so
        validation errors match the scalar path's.
    stats:
        Optional :class:`~repro.perf.report.GridKernelStats` sink.
    """

    def __init__(
        self,
        facade: Estimator,
        adjustment,
        validate: Optional[Callable[[object], None]] = None,
        stats=None,
    ):
        if not isinstance(facade.backend, BinnedBackend):
            raise ModelError(
                "grid kernel vectorizes the binned N-T/P-T backend only, "
                f"not the {facade.backend.name!r} backend"
            )
        self.facade = facade
        self.adjustment = adjustment
        self.validate = validate
        self.stats = stats
        # Memory bins apply only when the facade can compute a ratio —
        # the same condition under which estimate_kind applies them.
        self._binned = bool(facade.memory_bins) and (
            facade.memory_ratio_fn is not None
        )
        # Routing memo: (kind, P, Mi) -> ("nt" | "pt", packed row index).
        # Routing goes through facade.select once per distinct query, so a
        # routing failure raises the authentic ModelError in block order.
        self._routes: Dict[Tuple[str, int, int], Tuple[str, int]] = {}
        self._pt_keys: Dict[Tuple[str, int], int] = {}
        self._nt_models: List[object] = []
        self._pt_models: List[object] = []
        # Packed coefficient tensors, rebuilt only when a new model routes.
        self._nt_pack: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._pt_pack: Optional[Tuple[np.ndarray, ...]] = None
        self._scales: Dict[int, float] = {}

    # -- routing & packing -------------------------------------------------

    def _route(self, kind: str, p: int, mi: int) -> Tuple[str, int]:
        key = (kind, p, mi)
        hit = self._routes.get(key)
        if hit is not None:
            return hit
        label, model = self.facade.select(kind, p, mi)
        if label == "nt":
            row = len(self._nt_models)
            self._nt_models.append(model)
            self._nt_pack = None
        else:
            # One P-T model serves every P > Mi of a (kind, Mi) pair —
            # share its packed row across those routes.
            pt_key = (kind, mi)
            row = self._pt_keys.get(pt_key, -1)
            if row < 0:
                row = len(self._pt_models)
                self._pt_models.append(model)
                self._pt_keys[pt_key] = row
                self._pt_pack = None
        self._routes[key] = (label, row)
        return label, row

    def _nt_tensors(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._nt_pack is None:
            count = len(self._nt_models)
            self._nt_pack = (
                np.array(
                    [m.ka for m in self._nt_models], dtype=float
                ).reshape(count, 4),
                np.array(
                    [m.kc for m in self._nt_models], dtype=float
                ).reshape(count, 3),
            )
        return self._nt_pack

    def _pt_tensors(self) -> Tuple[np.ndarray, ...]:
        if self._pt_pack is None:
            count = len(self._pt_models)
            self._pt_pack = (
                np.array(
                    [m.ta_ref for m in self._pt_models], dtype=float
                ).reshape(count, 4),
                np.array(
                    [m.tc_ref for m in self._pt_models], dtype=float
                ).reshape(count, 3),
                np.array([m.k7 for m in self._pt_models], dtype=float),
                np.array([m.k8 for m in self._pt_models], dtype=float),
                np.array([m.k9 for m in self._pt_models], dtype=float),
                np.array([m.k10 for m in self._pt_models], dtype=float),
                np.array([m.k11 for m in self._pt_models], dtype=float),
            )
        return self._pt_pack

    def _scale_for(self, max_mi: int) -> float:
        scale = self._scales.get(max_mi)
        if scale is None:
            scale = self.adjustment.scale_for(max_mi)
            self._scales[max_mi] = scale
        return scale

    # -- evaluation --------------------------------------------------------

    def evaluate(self, configs: Sequence[object], ns: Sequence[int]) -> np.ndarray:
        """Adjusted estimates of every ``(config, n)`` cell, ``(C, S)``."""
        sizes = np.asarray([float(n) for n in ns], dtype=float)
        count, width = len(configs), sizes.size

        nt_cand: List[int] = []
        nt_row: List[int] = []
        nt_owner: List[Tuple[object, str]] = []
        pt_cand: List[int] = []
        pt_row: List[int] = []
        pt_p: List[int] = []
        pt_owner: List[Tuple[object, str]] = []
        scale = np.empty(count, dtype=float)
        binned = self._binned
        for i, config in enumerate(configs):
            if self.validate is not None:
                self.validate(config)
            p = config.total_processes
            max_mi = 0
            for alloc in config.active:
                label, row = self._route(alloc.kind_name, p, alloc.procs_per_pe)
                if label == "nt":
                    nt_cand.append(i)
                    nt_row.append(row)
                    if binned:
                        nt_owner.append((config, alloc.kind_name))
                else:
                    pt_cand.append(i)
                    pt_row.append(row)
                    pt_p.append(p)
                    if binned:
                        pt_owner.append((config, alloc.kind_name))
                if alloc.procs_per_pe > max_mi:
                    max_mi = alloc.procs_per_pe
            scale[i] = self._scale_for(max_mi)

        # Composition identities: max over clamped (>= 0) kind totals and
        # AND over validity — scatter order cannot change a single bit.
        total = np.full((count, width), -np.inf)
        valid = np.ones((count, width), dtype=bool)

        if nt_cand:
            ka, kc = self._nt_tensors()
            # Every packed model once (a handful of rows), gathered per
            # (candidate, kind) row.
            rows = np.asarray(nt_row)
            ta = polyval_rows(ka, sizes)[rows]
            tc = polyval_rows(kc, sizes)[rows]
            self._compose(total, valid, nt_cand, nt_owner, ta, tc, ns)

        if pt_cand:
            ta_ref, tc_ref, k7, k8, k9, k10, k11 = self._pt_tensors()
            rows = np.asarray(pt_row)
            ta_rows = polyval_rows(ta_ref, sizes)[rows]
            tc_rows = polyval_rows(tc_ref, sizes)[rows]
            p_col = np.asarray(pt_p, dtype=float)[:, None]
            k7c = k7[rows][:, None]
            k8c = k8[rows][:, None]
            k9c = k9[rows][:, None]
            k10c = k10[rows][:, None]
            k11c = k11[rows][:, None]
            # Operation-for-operation PTModel.predict_ta / predict_tc:
            # ((k7 * ref) / P) + k8 and ((k9 * P) * ref) + ((k10 * ref) / P) + k11.
            ta = k7c * ta_rows / p_col + k8c
            tc = k9c * p_col * tc_rows + k10c * tc_rows / p_col + k11c
            self._compose(total, valid, pt_cand, pt_owner, ta, tc, ns)

        adjusted = scale[:, None] * total
        out = np.where(valid, adjusted, np.inf)
        if self.stats is not None:
            self.stats.record_block(count, width)
        return out

    def _compose(self, total, valid, cand, owners, ta, tc, ns) -> None:
        """Fold per-(candidate, kind) rows into the candidate block:
        memory-bin scaling (``owners[r]`` is row ``r``'s ``(config, kind)``
        when bins apply), validity on the pre-clamp sum, clamp, max."""
        if self._binned:
            ratio_fn, bin_for = self.facade.memory_ratio_fn, self.facade.bin_for
            bins = [
                [bin_for(ratio_fn(config, int(n), kind)) for n in ns]
                for config, kind in owners
            ]
            ta = ta * np.array([[b.ta_scale for b in row] for row in bins])
            tc = tc * np.array([[b.tc_scale for b in row] for row in bins])
        kind_valid = (ta + tc) > 0.0
        kind_total = np.maximum(ta, 0.0) + np.maximum(tc, 0.0)
        idx = np.asarray(cand)
        np.maximum.at(total, idx, kind_total)
        np.logical_and.at(valid, idx, kind_valid)
