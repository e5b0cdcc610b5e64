"""Detailed timing records, mirroring ``-DHPL_DETAILED_TIMING``.

The paper's Figure 4 decomposes HPL's wall time into items; the model then
groups them (Section 3.2)::

    Ta = (rfact - mxswp) + (update - laswp) + uptrsv     # computation
    Tc = mxswp + laswp + bcast                           # communication

In our records ``pfact`` already *excludes* ``mxswp`` (they are separate
fields; the paper's ``rfact = pfact + mxswp``) and ``update`` *excludes*
``laswp``, so the groupings reduce to sums of disjoint fields — the
identity ``total == ta + tc`` holds exactly and is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runs import PhaseVector, register_phases

PHASE_NAMES = ("pfact", "mxswp", "bcast", "update", "laswp", "uptrsv")

#: Phases the paper counts as computation and as communication, in the
#: order ``ta`` and ``tc`` sum them (the paper's order above).
COMPUTE_PHASES = ("pfact", "update", "uptrsv")
COMM_PHASES = ("mxswp", "laswp", "bcast")


@register_phases
@dataclass(frozen=True)
class PhaseTimes(PhaseVector):
    """Seconds spent in each HPL phase by one process (or an aggregate)."""

    pfact: float = 0.0
    mxswp: float = 0.0
    bcast: float = 0.0
    update: float = 0.0
    laswp: float = 0.0
    uptrsv: float = 0.0

    PHASE_NAMES = PHASE_NAMES
    COMPUTE_PHASES = COMPUTE_PHASES
    COMM_PHASES = COMM_PHASES

    @property
    def rfact(self) -> float:
        """Recursive panel factorization incl. pivot communication
        (the paper's ``rfact = pfact + mxswp``)."""
        return self.pfact + self.mxswp
