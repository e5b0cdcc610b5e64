"""Phase vectors and their wire-format dispatch.

Every workload family splits a measurement into named phases and groups
them into computation (``Ta``) and communication (``Tc``).  For HPL that
vector is :class:`repro.hpl.timing.PhaseTimes` (six fields, paper
Figure 4); sample-sort has partition/scatter/local_sort/merge and
synchronous Monte Carlo has sweep/barrier/rebalance.  Each one is a
:class:`~repro.runs.PhaseVector` subclass registered with
:func:`~repro.runs.register_phases`, so validation, the Ta/Tc grouping,
the algebra and the dict round-trip are shared.

:func:`phases_from_dict` is the deserialization dispatcher: a serialized
``{"partition": ..., "scatter": ...}`` mapping routes to the class whose
registered field-name set matches exactly.  Key sets that match no
registered schema but are a subset of HPL's phase names fall back to
:class:`~repro.hpl.timing.PhaseTimes` (missing fields default to 0.0) —
exactly the permissive read the pre-workload datasets relied on, so every
old artifact keeps loading bit-identically.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import MeasurementError
from repro.hpl.timing import PHASE_NAMES as HPL_PHASE_NAMES
from repro.hpl.timing import PhaseTimes
from repro.runs import _PHASE_SCHEMAS, registered_phase_schemas


def phases_from_dict(data: Mapping[str, float]):
    """Reconstruct the right phase class from a serialized mapping.

    Exact schema match wins; a strict subset of HPL's phase names keeps
    the historical permissive :class:`PhaseTimes` read (missing fields are
    0.0), so pre-workload datasets deserialize unchanged.
    """
    key = frozenset(data)
    cls = _PHASE_SCHEMAS.get(key)
    if cls is not None:
        return cls.from_dict(data)
    if key <= frozenset(HPL_PHASE_NAMES):
        return PhaseTimes.from_dict(data)
    raise MeasurementError(
        f"phase mapping {sorted(key)} matches no registered workload schema "
        f"(known: {', '.join('/'.join(s) for s in registered_phase_schemas())})"
    )
