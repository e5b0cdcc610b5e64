"""Product-structured configuration spaces for the search backends.

The paper's candidate set — and every candidate grid
:func:`repro.cluster.config.enumerate_configs` produces — is a **cross
product** of per-kind ``(pe_count, procs_per_pe)`` choices (minus the
all-idle combination).  :class:`SearchSpace` makes that structure
explicit, because the scalable backends need it:

* branch-and-bound assigns kinds one at a time and prunes whole
  sub-products, which only makes sense over a product space;
* the local searchers move one kind's choice at a time, i.e. they walk
  the product lattice.

A space can be built from a cluster spec (every configuration up to
``max_procs`` processes per PE) or recovered from an explicit candidate
list (the paper's 62-configuration grid).  Recovery is exact when the
candidates *are* a product; :meth:`is_exact_cover_of` lets callers check
before relying on it.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig, KindAllocation
from repro.cluster.spec import ClusterSpec
from repro.errors import SearchError

#: One per-kind choice: ``(pe_count, procs_per_pe)``; ``(0, 0)`` = idle.
Choice = Tuple[int, int]


@dataclass(frozen=True)
class SearchSpace:
    """Cross product of per-kind ``(pe_count, procs_per_pe)`` choices."""

    kinds: Tuple[str, ...]
    choices: Tuple[Tuple[Choice, ...], ...]

    def __post_init__(self) -> None:
        if not self.kinds:
            raise SearchError("search space needs at least one kind")
        if len(self.kinds) != len(self.choices):
            raise SearchError(
                f"{len(self.kinds)} kinds but {len(self.choices)} choice lists"
            )
        if len(set(self.kinds)) != len(self.kinds):
            raise SearchError(f"duplicate kind in search space: {self.kinds}")
        for kind, options in zip(self.kinds, self.choices):
            if not options:
                raise SearchError(f"kind {kind!r} has no choices")
            if list(options) != sorted(set(options)):
                raise SearchError(
                    f"kind {kind!r} choices must be sorted and unique"
                )
            for pe, m in options:
                if pe < 0 or (pe == 0) != (m == 0) or (pe > 0 and m < 1):
                    raise SearchError(
                        f"kind {kind!r} has invalid choice ({pe}, {m})"
                    )
        if self.size < 1:
            raise SearchError("search space contains no runnable configuration")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: ClusterSpec, max_procs: int = 6) -> "SearchSpace":
        """Every configuration of ``spec`` with 1..``max_procs`` processes
        per participating PE (the heuristics' full space)."""
        if max_procs < 1:
            raise SearchError("max_procs must be >= 1")
        kinds = tuple(spec.kind_names)
        choices: List[Tuple[Choice, ...]] = []
        for kind in kinds:
            options: List[Choice] = [(0, 0)]
            for pe in range(1, spec.pe_count(kind) + 1):
                for m in range(1, max_procs + 1):
                    options.append((pe, m))
            choices.append(tuple(sorted(options)))
        return cls(kinds=kinds, choices=tuple(choices))

    @classmethod
    def from_candidates(
        cls,
        candidates: Sequence[ClusterConfig],
        kinds: Optional[Sequence[str]] = None,
    ) -> "SearchSpace":
        """The smallest product space containing every candidate.

        When the candidates are themselves a product grid (the paper's
        62 configurations are ``7 x 9 - 1``), the recovered space is that
        grid exactly — verify with :meth:`is_exact_cover_of` before
        treating product enumeration as equivalent to the list.
        """
        if not candidates:
            raise SearchError("empty candidate set")
        if kinds is None:
            names: List[str] = []
            for config in candidates:
                for alloc in config.allocations:
                    if alloc.kind_name not in names:
                        names.append(alloc.kind_name)
            kinds = names
        kinds = tuple(kinds)
        per_kind: List[set] = [set() for _ in kinds]
        for config in candidates:
            for alloc in config.active:
                if alloc.kind_name not in kinds:
                    raise SearchError(
                        f"candidate {config.label()} uses kind "
                        f"{alloc.kind_name!r} outside {kinds}"
                    )
            for i, kind in enumerate(kinds):
                alloc = config.allocation(kind)
                per_kind[i].add((alloc.pe_count, alloc.procs_per_pe))
        return cls(
            kinds=kinds,
            choices=tuple(tuple(sorted(options)) for options in per_kind),
        )

    # -- geometry -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of runnable configurations (the all-idle combination,
        when expressible, is not one)."""
        total = math.prod(len(options) for options in self.choices)
        idle = math.prod(
            sum(1 for pe, _ in options if pe == 0) for options in self.choices
        )
        return total - idle

    @property
    def max_total_processes(self) -> int:
        return sum(
            max(pe * m for pe, m in options) for options in self.choices
        )

    @property
    def max_procs_per_pe(self) -> int:
        """Largest ``procs_per_pe`` any choice uses (0 for an all-idle
        space, which the constructor rejects anyway)."""
        return max(
            (m for options in self.choices for _, m in options), default=0
        )

    # -- enumeration --------------------------------------------------------

    def config_of(self, assignment: Sequence[Choice]) -> ClusterConfig:
        """Materialize one per-kind assignment as a :class:`ClusterConfig`
        (zero allocations kept, so labels align with the kind order)."""
        return ClusterConfig(
            tuple(
                KindAllocation(kind, pe, m)
                for kind, (pe, m) in zip(self.kinds, assignment)
            )
        )

    def configs(self) -> Iterator[ClusterConfig]:
        """Every runnable configuration, in lexicographic choice order
        (the order :func:`repro.cluster.config.enumerate_configs` uses)."""
        return (
            self.config_of(assignment)
            for assignment in itertools.product(*self.choices)
            if sum(pe * m for pe, m in assignment) >= 1
        )

    def is_exact_cover_of(self, candidates: Sequence[ClusterConfig]) -> bool:
        """True when the candidates and this product space contain exactly
        the same configurations (by canonical key)."""
        keys = {config.key() for config in candidates}
        return len(keys) == self.size and all(
            config.key() in keys for config in self.configs()
        )

    @cached_property
    def lattice(self) -> "Lattice":
        """The local searchers' :class:`Lattice` over this space, built on
        first use."""
        return Lattice(self)


class Lattice:
    """The states the local searchers walk, one integer per state.

    A kind's points are idle ``(0, 0)``, then each ``(pe, m)`` of its
    positive PE counts x active process counts, sorted; an index has one
    digit per kind, the first most significant, so index order is the
    per-kind tuples' order and 0 is all-idle.  ``steps[k][d]`` holds the
    index deltas of kind ``k``'s moves from digit ``d`` (a PE more or
    less, the next or previous process count), in the order the
    stochastic searchers' draws index into; ``jumps[k][d]`` its jumps (all
    its PEs join, once per process count, or all leave), which cross the
    valley of a kind joining with too few PEs to stop being the
    bottleneck of the max over kinds."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.pe_values = [sorted({pe for pe, _ in c}) for c in space.choices]
        self.m_values = [sorted({m for pe, m in c if pe > 0}) for c in space.choices]
        self.points = [
            [(0, 0)] + [(pe, m) for pe in pes if pe > 0 for m in ms]
            for pes, ms in zip(self.pe_values, self.m_values)
        ]
        kinds = range(len(self.points))
        self.weights = [math.prod(map(len, self.points[k + 1:])) for k in kinds]
        self.size = self.weights[0] * len(self.points[0])
        self._slot = {kind: k for k, kind in enumerate(space.kinds)}
        self._digit = [{point: d for d, point in enumerate(p)} for p in self.points]
        self.steps = [self._deltas(k, self._steps_from) for k in kinds]
        self.jumps = [self._deltas(k, self._jumps_from) for k in kinds]
        self._tables = self.steps + self.jumps

    def _deltas(self, k: int, moves) -> List[Tuple[int, ...]]:
        return [
            tuple((self._digit[k][to] - d) * self.weights[k] for to in moves(k, pe, m))
            for d, (pe, m) in enumerate(self.points[k])
        ]

    def _steps_from(self, k: int, pe: int, m: int) -> List[Choice]:
        pes, ms = self.pe_values[k], self.m_values[k]
        up, down = bisect_right(pes, pe), bisect_left(pes, pe) - 1
        candidates = set()
        if up < len(pes):
            candidates.add((pes[up], m if m >= 1 else ms[0]))
        if down >= 0:
            candidates.add((pes[down], m if pes[down] > 0 else 0))
        if pe > 0:
            at = ms.index(m)
            candidates.update((pe, ms[to]) for to in (at + 1, at - 1) if 0 <= to < len(ms))
        return [(to_pe, to_m if to_pe > 0 else 0) for to_pe, to_m in candidates]

    def _jumps_from(self, k: int, pe: int, m: int) -> List[Choice]:
        if self.pe_values[k][-1] == 0:
            return []
        if pe == 0:
            return [(self.pe_values[k][-1], m_) for m_ in self.m_values[k]]
        return [(0, 0)]

    def digits(self, index: int) -> List[int]:
        out = [0] * len(self.points)
        for k in range(len(self.points) - 1, -1, -1):
            index, out[k] = divmod(index, len(self.points[k]))
        return out

    def place(self, k: int, pe: int, m: int) -> int:
        """The state with only kind ``k`` active, at ``(pe, m)``."""
        return self._digit[k][pe, m] * self.weights[k]

    def moves(self, index: int) -> List[int]:
        """Every step, then every jump, from ``index`` that keeps a
        process running."""
        return [new for table, d in zip(self._tables, self.digits(index) * 2)
                for delta in table[d] if (new := index + delta)]

    def config(self, index: int) -> ClusterConfig:
        return self.space.config_of([p[d] for p, d in zip(self.points, self.digits(index))])

    def index(self, config: ClusterConfig) -> Optional[int]:
        """The state of ``config``, or None when it is off the lattice."""
        try:
            return sum(self.place(self._slot[kind], pe, m) for kind, pe, m in config.key())
        except KeyError:
            return None
