"""Whole-cluster description: nodes + network + intra-node transport.

:class:`ClusterSpec` is the immutable "hardware inventory" object passed to
the simulator, the measurement campaigns and (indirectly, via calibration)
the estimation models.  It validates structural invariants once at
construction so the rest of the code can assume a well-formed cluster.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.cluster.network import NetworkSpec
from repro.cluster.node import Node
from repro.cluster.pe import PEKind
from repro.errors import ClusterError
from repro.simnet.mpich import MPICHVersion

if TYPE_CHECKING:  # repro.cost imports the cluster layer, never the reverse
    from repro.cost.model import CostModel


@dataclass(frozen=True)
class ClusterSpec:
    """A heterogeneous cluster.

    Parameters
    ----------
    name:
        Human-readable cluster name.
    nodes:
        The machines, in deterministic order (this order also determines
        MPI rank placement, like a machinefile).
    network:
        Inter-node interconnect model.
    intranode:
        MPI shared-memory transport model (per-MPICH-version curves); used
        for messages between processes on the same *node*.
    cost:
        Optional rate card (:class:`repro.cost.model.CostModel`) pricing
        the cluster's PE kinds; ``None`` means the cluster is unpriced
        and behaves exactly as before the cost subsystem existed.
    """

    name: str
    nodes: Tuple[Node, ...]
    network: NetworkSpec
    intranode: MPICHVersion
    cost: Optional["CostModel"] = None

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ClusterError(f"{self.name}: cluster must have at least one node")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ClusterError(f"{self.name}: duplicate node names: {names}")
        # A PE kind name must map to exactly one PEKind object.
        seen: Dict[str, PEKind] = {}
        counts: Dict[str, int] = {}
        for node in self.nodes:
            prior = seen.get(node.kind.name)
            if prior is not None and prior != node.kind:
                raise ClusterError(
                    f"{self.name}: kind {node.kind.name!r} has two different "
                    "definitions across nodes"
                )
            seen[node.kind.name] = node.kind
            counts[node.kind.name] = counts.get(node.kind.name, 0) + node.cpus
        # The spec is frozen, so its inventory is counted once here
        # (``replace`` builds a new spec and counts again): configuration
        # validation reads it for every candidate the grid kernel routes.
        object.__setattr__(self, "_pe_counts", counts)
        # Configurations placed on this spec, memoized by
        # :func:`repro.cluster.placement.place_processes`, and runs
        # measured on it, memoized by :mod:`repro.measure.campaign`.  Not
        # fields: ``==``, ``hash``, ``repr`` and pickles ignore them.
        object.__setattr__(self, "_placements", OrderedDict())
        object.__setattr__(self, "_runs", OrderedDict())
        if self.cost is not None:
            # Duck-typed: anything with kind_names() naming a subset of
            # this cluster's kinds (a rate for hardware the cluster does
            # not have is a description error, not a free default).
            for kind_name in self.cost.kind_names():
                if kind_name not in seen:
                    raise ClusterError(
                        f"{self.name}: rate card prices unknown kind "
                        f"{kind_name!r} (cluster kinds: {sorted(seen)})"
                    )

    def __getstate__(self) -> Dict[str, object]:
        """Pickled state: the fields and the PE counts, with empty
        placement and run memos (a copy or another process places and
        measures again)."""
        return {**self.__dict__, "_placements": OrderedDict(), "_runs": OrderedDict()}

    # -- inventory queries ---------------------------------------------------

    @property
    def kinds(self) -> Tuple[PEKind, ...]:
        """Distinct PE kinds in first-appearance order."""
        out = []
        seen = set()
        for node in self.nodes:
            if node.kind.name not in seen:
                seen.add(node.kind.name)
                out.append(node.kind)
        return tuple(out)

    @property
    def kind_names(self) -> Tuple[str, ...]:
        return tuple(kind.name for kind in self.kinds)

    def kind(self, name: str) -> PEKind:
        """Look up a PE kind by name."""
        for k in self.kinds:
            if k.name == name:
                return k
        raise ClusterError(f"{self.name}: unknown PE kind {name!r}")

    def nodes_of_kind(self, name: str) -> Tuple[Node, ...]:
        return tuple(node for node in self.nodes if node.kind.name == name)

    def pe_count(self, name: str) -> int:
        """Total processors of a kind across all nodes (0 for a kind the
        cluster does not have)."""
        return self._pe_counts.get(name, 0)

    @property
    def total_pes(self) -> int:
        return sum(node.cpus for node in self.nodes)

    def pe_counts(self) -> Mapping[str, int]:
        """Read-only mapping kind name -> available processor count, in
        first-appearance order."""
        return MappingProxyType(self._pe_counts)

    # -- derivation ----------------------------------------------------------

    def with_network(self, network: NetworkSpec) -> "ClusterSpec":
        """Same cluster on a different interconnect (what-if studies)."""
        return replace(self, network=network)

    def with_intranode(self, intranode: MPICHVersion) -> "ClusterSpec":
        """Same cluster with a different MPI shared-memory transport."""
        return replace(self, intranode=intranode)

    def with_cost(self, cost: Optional["CostModel"]) -> "ClusterSpec":
        """Same cluster under a different rate card (None = unpriced)."""
        return replace(self, cost=cost)

    def describe(self) -> str:
        """Multi-line human-readable inventory (the paper's Table 1 analog)."""
        lines = [f"Cluster {self.name!r}"]
        for node in self.nodes:
            lines.append(
                f"  {node.name}: {node.cpus} x {node.kind.name} "
                f"({node.kind.peak_gflops:.2f} Gflops peak/CPU), "
                f"{node.memory_bytes // (1024 * 1024)} MB"
            )
        lines.append(f"  network: {self.network.name}")
        lines.append(f"  intranode MPI: {self.intranode.name}")
        if self.cost is not None:
            for line in self.cost.describe().splitlines():
                lines.append(f"  {line}")
        return "\n".join(lines)
