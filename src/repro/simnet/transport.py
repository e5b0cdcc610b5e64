"""Link resolution between placed processes, and vectorized hop costs.

Three link classes exist in the model, matching the paper's environment:

* ``SAME_CPU`` — two processes time-sharing one processor; messages go
  through the MPI library's shared-memory device (MPICH version curve).
* ``SAME_NODE`` — two processes on different CPUs of one node (the dual
  Pentium-II boxes); also the shared-memory device.
* ``NETWORK`` — processes on different nodes; the cluster interconnect.

The paper's modelling assumptions (homogeneous network, sender-independent
cost) mean a link's cost depends only on its class and the message size.
:class:`Transport` classifies the ring edges of a placement and evaluates
their hop times; the schedule simulator's grid walker takes the edge
classes from it and evaluates each link model once per panel table.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.errors import SimulationError

if TYPE_CHECKING:  # imported lazily to avoid a cluster <-> simnet import cycle
    from repro.cluster.placement import ProcessSlot
    from repro.cluster.spec import ClusterSpec


class LinkKind(enum.Enum):
    """Classification of the channel between two processes."""

    SAME_CPU = "same-cpu"
    SAME_NODE = "same-node"
    NETWORK = "network"


def classify(a: "ProcessSlot", b: "ProcessSlot") -> LinkKind:
    """Link class between two placed processes."""
    if a.same_cpu(b):
        return LinkKind.SAME_CPU
    if a.same_node(b):
        return LinkKind.SAME_NODE
    return LinkKind.NETWORK


class Transport:
    """Message costs over a specific cluster + placement.

    Parameters
    ----------
    spec:
        The cluster (supplies the network and intra-node models).
    slots:
        Placement produced by :func:`repro.cluster.placement.place_processes`.
    """

    def __init__(self, spec: "ClusterSpec", slots: Sequence["ProcessSlot"]):
        if not slots:
            raise SimulationError("transport needs at least one process")
        self.spec = spec
        self.slots = list(slots)
        self.size = len(slots)

    # -- pairwise -------------------------------------------------------------

    def link_kind(self, rank_a: int, rank_b: int) -> LinkKind:
        return classify(self.slots[rank_a], self.slots[rank_b])

    def message_time(self, rank_a: int, rank_b: int, nbytes: float) -> float:
        """Seconds to move ``nbytes`` from ``rank_a`` to ``rank_b``."""
        if rank_a == rank_b:
            return 0.0
        kind = self.link_kind(rank_a, rank_b)
        if kind is LinkKind.NETWORK:
            return float(self.spec.network.message_time(nbytes))
        return float(self.spec.intranode.message_time(nbytes))

    # -- ring structure (HPL broadcast path) ------------------------------------

    def ring_link_kinds(self) -> List[LinkKind]:
        """Link class of each directed ring edge ``rank -> rank+1 (mod P)``."""
        return [
            classify(self.slots[i], self.slots[(i + 1) % self.size])
            for i in range(self.size)
        ]

    def ring_hop_times(self, nbytes: float) -> np.ndarray:
        """Per-edge transfer time for a message of ``nbytes`` along the ring.

        Returns an array of length ``P`` where entry ``i`` is the cost of
        the edge ``i -> i+1``.  Vectorized over edges; the (at most three)
        distinct link classes are evaluated once each.
        """
        kinds = self.ring_link_kinds()
        times = np.empty(self.size, dtype=float)
        network_time = None
        intranode_time = None
        for i, kind in enumerate(kinds):
            if kind is LinkKind.NETWORK:
                if network_time is None:
                    network_time = float(self.spec.network.message_time(nbytes))
                times[i] = network_time
            else:
                if intranode_time is None:
                    intranode_time = float(self.spec.intranode.message_time(nbytes))
                times[i] = intranode_time
        return times

    def describe_ring(self) -> str:
        """Human-readable ring path, for debugging placements."""
        parts = []
        kinds = self.ring_link_kinds()
        for i in range(self.size):
            nxt = (i + 1) % self.size
            parts.append(f"{i}->{nxt}[{kinds[i].value}]")
        return " ".join(parts)
