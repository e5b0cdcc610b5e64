"""Run configurations: which PEs participate and with how many processes.

The paper denotes a configuration of its two-kind cluster by the tuple
``(P1, M1, P2, M2)``: ``P1`` Athlons each running ``M1`` processes and
``P2`` Pentium-IIs each running ``M2`` processes.  :class:`ClusterConfig`
generalizes this to any number of kinds while preserving the paper's
assumption that *PEs of the same kind get the same process count*
(Section 3.1, fourth assumption) — the constructor simply cannot express
anything else.

The total process count ``P = sum_i P_i * M_i`` is what enters the models;
HPL runs the problem on a 1-by-P process grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.cluster.spec import ClusterSpec
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class KindAllocation:
    """Participation of one PE kind: ``pe_count`` PEs x ``procs_per_pe`` each."""

    kind_name: str
    pe_count: int
    procs_per_pe: int

    def __post_init__(self) -> None:
        if not self.kind_name:
            raise ConfigurationError("kind_name must be non-empty")
        if self.pe_count < 0:
            raise ConfigurationError(f"{self.kind_name}: pe_count must be >= 0")
        if self.pe_count > 0 and self.procs_per_pe < 1:
            raise ConfigurationError(
                f"{self.kind_name}: procs_per_pe must be >= 1 when PEs participate"
            )
        if self.pe_count == 0 and self.procs_per_pe != 0:
            raise ConfigurationError(
                f"{self.kind_name}: an unused kind must have procs_per_pe == 0"
            )

    @property
    def processes(self) -> int:
        return self.pe_count * self.procs_per_pe


@dataclass(frozen=True)
class ClusterConfig:
    """A full run configuration across all kinds, in kind order.

    Kinds with ``pe_count == 0`` may be included explicitly (to keep labels
    aligned with the paper's 4-tuples) or omitted entirely; both forms
    compare equal through :meth:`canonical`.
    """

    allocations: Tuple[KindAllocation, ...]

    def __post_init__(self) -> None:
        names = [a.kind_name for a in self.allocations]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate kind in configuration: {names}")
        if self.total_processes < 1:
            raise ConfigurationError("configuration must run at least one process")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def of(cls, **kind_to_pair: Tuple[int, int]) -> "ClusterConfig":
        """Build from keyword pairs, e.g. ``ClusterConfig.of(athlon=(1, 2), pentium2=(8, 1))``."""
        allocs = tuple(
            KindAllocation(name, pe, procs if pe > 0 else 0)
            for name, (pe, procs) in kind_to_pair.items()
        )
        return cls(allocs)

    @classmethod
    def from_tuple(
        cls, kinds: Sequence[str], values: Sequence[int]
    ) -> "ClusterConfig":
        """Build from the paper's flat tuple form ``(P1, M1, P2, M2, ...)``."""
        if len(values) != 2 * len(kinds):
            raise ConfigurationError(
                f"need 2 values per kind: {len(kinds)} kinds, {len(values)} values"
            )
        allocs = []
        for i, kind in enumerate(kinds):
            pe, procs = int(values[2 * i]), int(values[2 * i + 1])
            allocs.append(KindAllocation(kind, pe, procs if pe > 0 else 0))
        return cls(tuple(allocs))

    # -- queries ---------------------------------------------------------------

    @property
    def total_processes(self) -> int:
        """The paper's ``P``."""
        return sum(a.processes for a in self.allocations)

    @property
    def total_pes(self) -> int:
        return sum(a.pe_count for a in self.allocations)

    @property
    def active(self) -> Tuple[KindAllocation, ...]:
        """Allocations that actually contribute PEs."""
        return tuple(a for a in self.allocations if a.pe_count > 0)

    @property
    def is_single_kind(self) -> bool:
        return len(self.active) == 1

    @property
    def is_single_pe(self) -> bool:
        """True when one physical processor runs the whole job (``P == Mi``)."""
        return self.total_pes == 1

    def allocation(self, kind_name: str) -> KindAllocation:
        for a in self.allocations:
            if a.kind_name == kind_name:
                return a
        return KindAllocation(kind_name, 0, 0)

    def pe_count(self, kind_name: str) -> int:
        return self.allocation(kind_name).pe_count

    def procs_per_pe(self, kind_name: str) -> int:
        return self.allocation(kind_name).procs_per_pe

    def canonical(self) -> "ClusterConfig":
        """Drop zero allocations; canonical form for equality across labels."""
        return ClusterConfig(self.active)

    def as_flat_tuple(self, kinds: Optional[Sequence[str]] = None) -> Tuple[int, ...]:
        """The paper's ``(P1, M1, P2, M2, ...)`` rendering."""
        names = kinds if kinds is not None else [a.kind_name for a in self.allocations]
        out: list[int] = []
        for name in names:
            a = self.allocation(name)
            out.extend((a.pe_count, a.procs_per_pe))
        return tuple(out)

    def label(self, kinds: Optional[Sequence[str]] = None) -> str:
        """Compact label like the paper's ``"1,3,8,1"``."""
        return ",".join(str(v) for v in self.as_flat_tuple(kinds))

    def key(self) -> Tuple[Tuple[str, int, int], ...]:
        """Hashable canonical identity (kind, pe_count, procs) for active kinds.

        Memoized on the instance (the configuration is frozen), so the
        estimate cache's keys, the exhaustive key ranks and the
        exact-cover check share one tuple per configuration.  The memo is
        not a dataclass field: ``==``, ``hash`` and ``repr`` ignore it."""
        key = self.__dict__.get("_key")
        if key is None:
            key = tuple(
                (a.kind_name, a.pe_count, a.procs_per_pe) for a in self.active
            )
            object.__setattr__(self, "_key", key)
        return key

    # -- validation --------------------------------------------------------------

    def validate_against(self, spec: ClusterSpec) -> None:
        """Raise :class:`ConfigurationError` unless this config fits ``spec``."""
        available = spec.pe_counts()
        for a in self.active:
            if a.kind_name not in available:
                raise ConfigurationError(
                    f"kind {a.kind_name!r} not present in cluster {spec.name!r}"
                )
            if a.pe_count > available[a.kind_name]:
                raise ConfigurationError(
                    f"{a.kind_name}: requested {a.pe_count} PEs, cluster "
                    f"{spec.name!r} has {available[a.kind_name]}"
                )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClusterConfig({self.label()})"


def enumerate_configs(
    kinds: Sequence[str],
    pe_ranges: Mapping[str, Iterable[int]],
    proc_ranges: Mapping[str, Iterable[int]],
) -> Iterator[ClusterConfig]:
    """Enumerate the cross product of per-kind (PE count, procs/PE) choices.

    Configurations with zero total processes are skipped.  Kinds with
    ``pe_count == 0`` contribute a single degenerate choice regardless of
    their process range (``(0, 1)`` and ``(0, 6)`` are the same
    configuration), matching how the paper counts its 62 evaluation
    configurations.
    """
    choices_per_kind: list[list[Tuple[int, int]]] = []
    for kind in kinds:
        choices: list[Tuple[int, int]] = []
        for pe in pe_ranges[kind]:
            if pe == 0:
                choices.append((0, 0))
            else:
                for m in proc_ranges[kind]:
                    choices.append((pe, m))
        # de-duplicate while keeping order (multiple zero entries collapse)
        seen = set()
        unique = []
        for c in choices:
            if c not in seen:
                seen.add(c)
                unique.append(c)
        choices_per_kind.append(unique)

    def rec(i: int, acc: list[Tuple[int, int]]) -> Iterator[ClusterConfig]:
        if i == len(kinds):
            flat = [v for pair in acc for v in pair]
            if sum(pe * m for pe, m in acc) >= 1:
                yield ClusterConfig.from_tuple(kinds, flat)
            return
        for choice in choices_per_kind[i]:
            acc.append(choice)
            yield from rec(i + 1, acc)
            acc.pop()

    return rec(0, [])
