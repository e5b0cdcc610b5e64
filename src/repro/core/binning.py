"""Binning: selecting the right model for a query (paper Section 3.4).

Two bin dimensions appear in the paper:

* **Process structure** (Figure 5): when HPL runs on a single PE
  (``P == Mi``) there is no inter-PE communication, so the directly fitted
  N-T model is used; with multiple PEs (``P > Mi``) the P-T model is used.
  ``P < Mi`` cannot occur (``P = sum Mi``).
* **Memory pressure**: the memory requirement is predictable from
  ``(N, P)``, so a different model can be selected when a node would page
  (Figure 3(a)'s cliff).  :class:`MemoryBin` implements that piecewise
  selection; the standard protocols run without it (as the paper does),
  and the ablation bench quantifies what it buys.

The actual machinery lives in :mod:`repro.core.estimator`: the Figure-5
routing is :class:`~repro.core.estimator.BinnedBackend`, and the
estimation semantics (memory bins, clamping, validity, batching) are the
:class:`~repro.core.estimator.Estimator` facade.  :class:`ModelSelector`
remains as the store-plus-bins constructor for that facade.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.estimator import (
    BinnedBackend,
    Estimator,
    KindEstimate,
    MemoryBin,
)
from repro.core.model_store import ModelStore

__all__ = ["KindEstimate", "MemoryBin", "ModelSelector"]


class ModelSelector(Estimator):
    """The binned estimator of the paper: Figure-5 routing over a fitted
    :class:`ModelStore`, with optional memory-pressure bins.

    A thin constructor over :class:`~repro.core.estimator.Estimator`;
    every query method (``select``, ``estimate_kind``,
    ``estimate_kinds``, ...) is the facade's.
    """

    def __init__(
        self,
        store: ModelStore,
        memory_bins: Optional[Sequence[MemoryBin]] = None,
    ):
        super().__init__(BinnedBackend(store), memory_bins=memory_bins)
        self.store = store
