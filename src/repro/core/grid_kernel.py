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
* composition reduces over the active-kind slots with a max and an AND
  — max over non-negative (or NaN/inf) values is order-independent
  bitwise, so it equals the scalar path's ``max`` over
  ``config.active`` (an empty slot reads a row that changes neither,
  see ``GridKernel._query_times``);
* the adjustment multiplies ``scale_for(max Mi)`` per candidate row and
  invalid cells become ``+inf``.

Only the paper's binned backend is vectorized; a kernel over any other
facade (:class:`~repro.core.estimator.UnifiedBackend`) is a
:class:`~repro.errors.ModelError`.

**Routing tables.**  Routing a configuration (validate it, then map
each active kind's ``(kind, P, Mi)`` query to a packed model row) is the
per-candidate Python work; a :class:`Routes` table keeps its result as
arrays — per ``(candidate, active kind)`` slot the query id, per
candidate the adjustment scale — so the numeric pass over any row
subset of a routed table runs no Python per candidate: it evaluates each
routed query once and gathers the results per slot.  A table routes each
row the first time a call evaluates it and keeps it: the search engine
holds one table over its candidate pool for its lifetime, and
:meth:`GridKernel.evaluate` builds a table per call for any other
configurations (served estimates, explicit candidate pools).  Both feed
the same numeric pass.

Errors surface exactly as the scalar path would: a call routes the rows
it evaluates that are not routed yet in block order, so the first
failing candidate raises the same :class:`~repro.errors.ConfigurationError`
/ :class:`~repro.errors.ModelError` the scalar estimator would have
raised when it reached that candidate.  A row that failed stays
unrouted, so a later call that evaluates it raises again, and a row no
call evaluates never raises.
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
    x = sizes[None, :]
    for column in coeffs.T[:, :, None]:
        out *= x
        out += column
    return out


def _stacked_phases(ta: Sequence[Sequence[float]], tc: Sequence[Sequence[float]]) -> np.ndarray:
    """One ``(2M, 4)`` coefficient matrix for :func:`polyval_rows`: the M
    cubic ``Ta`` rows, then the M quadratic ``Tc`` rows behind a leading
    zero (Horner starts from zero, so ``0 * x + 0`` leaves every later
    step's bits unchanged)."""
    count = len(ta)
    out = np.zeros((2 * count, 4))
    out[:count] = np.array(ta, dtype=float).reshape(count, 4)
    out[count:, 1:] = np.array(tc, dtype=float).reshape(count, 3)
    return out


#: ``Ta`` of the row empty slots read (see ``GridKernel._query_times``).
_EMPTY_SLOT_TA = np.nextafter(0.0, 1.0)


class Routes:
    """The routing of one configuration list, row ``i`` for ``configs[i]``.

    ``query[i, j]`` is the kernel's id of the ``(kind, P, Mi)`` query of
    row ``i``'s ``j``-th active kind (``-1`` for an empty slot),
    ``labels[i]`` has bit 1 set when the row routes an N-T query and bit
    2 when it routes a P-T one (0 until the row is routed: every
    configuration has an active kind), and ``scale[i]`` is the row's
    adjustment scale.  :meth:`GridKernel.evaluate_rows` routes rows on
    first use."""

    def __init__(self, configs: Sequence[object]):
        count = len(configs)
        # A row's active kinds are among its allocations.
        slots = max((len(config.allocations) for config in configs), default=1)
        self.configs = configs
        self.query = np.full((count, slots), -1, dtype=np.intp)
        self.labels = np.zeros(count, dtype=np.uint8)
        self.scale = np.zeros(count)

    def __len__(self) -> int:
        return len(self.configs)


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
        ``config.validate_against(spec)``), called when a row is routed,
        in block order, so validation errors match the scalar path's.
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
        # Query memo: (kind, P, Mi) -> query id.  Routing goes through
        # facade.select once per distinct query, so a routing failure
        # raises the authentic ModelError in block order.  Query q reads
        # packed model row _query_rows[q] (a P-T row when _query_pt[q])
        # at P = _query_procs[q].
        self._queries: Dict[Tuple[str, int, int], int] = {}
        self._query_pt: List[bool] = []
        self._query_rows: List[int] = []
        self._query_procs: List[int] = []
        self._pt_keys: Dict[Tuple[str, int], int] = {}
        self._nt_models: List[object] = []
        self._pt_models: List[object] = []
        # Packed tensors, rebuilt only when a new query or model routes.
        self._query_pack: Optional[Tuple[np.ndarray, ...]] = None
        self._nt_pack: Optional[np.ndarray] = None
        self._pt_pack: Optional[Tuple[np.ndarray, ...]] = None
        self._scales: Dict[int, float] = {}

    # -- routing & packing -------------------------------------------------

    def _route(self, kind: str, p: int, mi: int) -> int:
        key = (kind, p, mi)
        query = self._queries.get(key)
        if query is not None:
            return query
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
        query = self._queries[key] = len(self._query_rows)
        self._query_pt.append(label != "nt")
        self._query_rows.append(row)
        self._query_procs.append(p)
        self._query_pack = None
        return query

    def _route_row(self, routes: Routes, row: int) -> None:
        """Validate and route one configuration into ``routes``."""
        config = routes.configs[row]
        if self.validate is not None:
            self.validate(config)
        p = config.total_processes
        max_mi = labels = 0
        for slot, alloc in enumerate(config.active):
            query = self._route(alloc.kind_name, p, alloc.procs_per_pe)
            routes.query[row, slot] = query
            labels |= 2 if self._query_pt[query] else 1
            if alloc.procs_per_pe > max_mi:
                max_mi = alloc.procs_per_pe
        routes.scale[row] = self._scale_for(max_mi)
        routes.labels[row] = labels

    def _query_tensors(self) -> Tuple[np.ndarray, ...]:
        """Per label, the query ids and their packed rows; per P-T query
        also ``P`` and ``k7..k11``, as columns."""
        if self._query_pack is None:
            is_pt = np.array(self._query_pt, dtype=bool)
            packed = np.array(self._query_rows, dtype=np.intp)
            pt_rows = packed[is_pt]
            _, k7, k8, k9, k10, k11 = self._pt_tensors()
            self._query_pack = (
                np.flatnonzero(~is_pt),
                packed[~is_pt],
                np.flatnonzero(is_pt),
                pt_rows,
                np.array(self._query_procs, dtype=float)[is_pt][:, None],
            ) + tuple(k[pt_rows][:, None] for k in (k7, k8, k9, k10, k11))
        return self._query_pack

    def _nt_tensors(self) -> np.ndarray:
        """The N-T models' :func:`_stacked_phases`."""
        if self._nt_pack is None:
            models = self._nt_models
            self._nt_pack = _stacked_phases(
                [m.ka for m in models], [m.kc for m in models]
            )
        return self._nt_pack

    def _pt_tensors(self) -> Tuple[np.ndarray, ...]:
        """The P-T models' reference :func:`_stacked_phases`, then their
        ``k7..k11`` vectors."""
        if self._pt_pack is None:
            models = self._pt_models
            self._pt_pack = (
                _stacked_phases([m.ta_ref for m in models], [m.tc_ref for m in models]),
            ) + tuple(
                np.array([getattr(m, k) for m in models], dtype=float)
                for k in ("k7", "k8", "k9", "k10", "k11")
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
        """Adjusted estimates of every ``(config, n)`` cell, ``(C, S)``,
        routing ``configs`` for this call only."""
        routes = Routes(configs)
        for row in range(len(configs)):
            self._route_row(routes, row)
        return self._evaluate_routed(routes, np.arange(len(configs)), ns)

    def evaluate_rows(
        self, routes: Routes, rows: np.ndarray, ns: Sequence[int]
    ) -> np.ndarray:
        """Adjusted estimates of ``routes.configs[rows[i]]`` at ``ns[j]``,
        ``(len(rows), S)``.  Rows not routed yet are routed first, in
        block order; the rest is one numeric pass over the table."""
        for row in rows[routes.labels[rows] == 0].tolist():
            if not routes.labels[row]:
                self._route_row(routes, row)
        return self._evaluate_routed(routes, rows, ns)

    def _evaluate_routed(
        self, routes: Routes, rows: np.ndarray, ns: Sequence[int]
    ) -> np.ndarray:
        """The numeric pass over routed rows."""
        sizes = np.asarray([float(n) for n in ns], dtype=float)
        # Slot-major (K, C): the composition below reduces over whole
        # (C, S) planes.
        query = routes.query[rows].T
        # Every routed query of the labels the block uses, once, gathered
        # per (slot, candidate); an empty slot reads the trailing row.
        labels = int(np.bitwise_or.reduce(routes.labels[rows], initial=0))
        ta, tc = self._query_times(labels, sizes)[:, query]
        if self._binned:
            ta, tc = self._bin(ta, tc, routes.configs, rows, query, ns)
        # Validity on the pre-clamp sum, then clamp; a max or an AND over
        # the slots cannot depend on their order.
        kind_valid = (ta + tc) > 0.0
        kind_total = np.maximum(ta, 0.0, out=ta)
        kind_total += np.maximum(tc, 0.0, out=tc)
        adjusted = routes.scale[rows][:, None] * kind_total.max(axis=0)
        out = np.where(kind_valid.all(axis=0), adjusted, np.inf)
        if self.stats is not None:
            self.stats.record_block(rows.size, sizes.size)
        return out

    def _query_times(self, labels: int, sizes: np.ndarray) -> np.ndarray:
        """``[Ta, Tc]`` at ``sizes`` of every routed query whose label bit
        is set in ``labels`` (zero rows for the others) plus a trailing
        row for empty slots, as one ``(2, queries + 1, S)`` array.

        The trailing row is ``Ta`` = the smallest positive double, ``Tc``
        = 0: it is valid, and its clamped total never exceeds a valid
        kind's (``Ta + Tc > 0`` makes the clamped sum a positive double),
        so an empty slot changes neither a valid candidate's max nor any
        candidate's validity."""
        nt, nt_rows, pt, pt_rows, p_col, k7, k8, k9, k10, k11 = (
            self._query_tensors()
        )
        times = np.zeros((2, len(self._query_rows) + 1, sizes.size))
        times[0, -1] = _EMPTY_SLOT_TA
        if labels & 1:
            phases = polyval_rows(self._nt_tensors(), sizes)
            times[:, nt] = phases.reshape(2, -1, sizes.size)[:, nt_rows]
        if labels & 2:
            refs = polyval_rows(self._pt_tensors()[0], sizes)
            ta_rows, tc_rows = refs.reshape(2, -1, sizes.size)[:, pt_rows]
            # Operation-for-operation PTModel.predict_ta / predict_tc:
            # ((k7 * ref) / P) + k8 and ((k9 * P) * ref) + ((k10 * ref) / P) + k11.
            times[0, pt] = k7 * ta_rows / p_col + k8
            times[1, pt] = k9 * p_col * tc_rows + k10 * tc_rows / p_col + k11
        return times

    def _bin(self, ta, tc, configs, rows, query, ns):
        """Memory-bin scaling of each (slot, candidate) pair's phases, per
        cell, in the scalar path's (candidate, active kind) order."""
        ratio_fn, bin_for = self.facade.memory_ratio_fn, self.facade.bin_for
        ta_scale, tc_scale = np.ones(ta.shape), np.ones(tc.shape)
        for cand, slot in zip(*np.nonzero(query.T >= 0)):
            config = configs[rows[cand]]
            kind = config.active[slot].kind_name
            bins = [bin_for(ratio_fn(config, int(n), kind)) for n in ns]
            ta_scale[slot, cand] = [b.ta_scale for b in bins]
            tc_scale[slot, cand] = [b.tc_scale for b in bins]
        return ta * ta_scale, tc * tc_scale
