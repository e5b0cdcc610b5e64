"""What one simulated run produces, for every workload family.

The paper's method never looks inside an application: it needs each
measurement split into named *phases* and a grouping of those phases into
computation (``Ta``) and communication (``Tc``), plus one number per PE
kind and run — the mean phase times of that kind's processes
(Section 3.2).  This module is that shared vocabulary:

* :class:`PhaseVector` — the base of every family's phase breakdown
  (HPL's :class:`~repro.hpl.timing.PhaseTimes`, sorting's, Monte
  Carlo's); :func:`register_phases` records its field-name schema so a
  serialized mapping can be routed back to its class;
* :class:`WorkloadResult` — one run as per-process phase arrays plus the
  rank-to-kind map; :meth:`WorkloadResult.rows` builds a batch's results
  as views of a walker's ``(S, P)`` phase matrices;
* :func:`kind_means` — the only per-kind mean, over a batch's
  ``(S, F, P)`` phase block (runs x phases x ranks);
* :func:`noise_grid` / :func:`normalize_groups` — the per-run noise draw
  of a whole grid of ``(configuration, sizes, trials)`` groups and the
  group normalization every grid runner shares (:func:`normalize_trials`
  is its one-group case).

It imports nothing from :mod:`repro.hpl`, :mod:`repro.measure` or
:mod:`repro.workloads`, so all three can build on it.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.errors import MeasurementError, SimulationError
from repro.rng import folded_keys, seeded
from repro.units import gflops as to_gflops


class PhaseVector:
    """Base for per-workload phase breakdowns.

    Subclasses are frozen dataclasses whose float fields *are* the phases;
    they set three unannotated class attributes:

    * ``PHASE_NAMES`` — the fields, in serialization order;
    * ``COMPUTE_PHASES`` — the subset summed into ``ta``, in summation order;
    * ``COMM_PHASES`` — the subset summed into ``tc``, in summation order.

    The two subsets must partition ``PHASE_NAMES`` so the identity
    ``total == ta + tc`` holds exactly.
    """

    PHASE_NAMES: Tuple[str, ...] = ()
    COMPUTE_PHASES: Tuple[str, ...] = ()
    COMM_PHASES: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # The fields are PHASE_NAMES, in order (checked by register_phases).
        for name in self.PHASE_NAMES:
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise SimulationError(f"phase {name} has invalid time {value!r}")

    # -- paper groupings ----------------------------------------------------

    @property
    def ta(self) -> float:
        """Computation time (the workload's compute-phase sum)."""
        return sum(getattr(self, name) for name in self.COMPUTE_PHASES)

    @property
    def tc(self) -> float:
        """Communication time (the workload's comm-phase sum)."""
        return sum(getattr(self, name) for name in self.COMM_PHASES)

    @property
    def total(self) -> float:
        return self.ta + self.tc

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "PhaseVector") -> "PhaseVector":
        return type(self)(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in self.PHASE_NAMES
            }
        )

    def scaled(self, factor: float) -> "PhaseVector":
        if factor < 0:
            raise SimulationError(f"negative scale factor {factor}")
        return type(self)(
            **{name: getattr(self, name) * factor for name in self.PHASE_NAMES}
        )

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.PHASE_NAMES}

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "PhaseVector":
        unknown = set(data) - set(cls.PHASE_NAMES)
        if unknown:
            raise SimulationError(f"unknown phases: {sorted(unknown)}")
        return cls(**{name: float(data.get(name, 0.0)) for name in cls.PHASE_NAMES})

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray], index: int) -> "PhaseVector":
        """Extract process ``index`` from per-phase arrays (simulator output)."""
        return cls(**{name: float(arrays[name][index]) for name in cls.PHASE_NAMES})


#: Exact field-name set -> phase class, filled by :func:`register_phases`.
_PHASE_SCHEMAS: Dict[frozenset, Type[PhaseVector]] = {}


def register_phases(cls):
    """Class decorator: make a phase vector deserializable by schema.

    The frozenset of ``PHASE_NAMES`` is the dispatch key — two workloads
    may not share an identical field-name set (the serialized mapping
    would be ambiguous).
    """
    key = frozenset(cls.PHASE_NAMES)
    if not key:
        raise MeasurementError(f"{cls.__name__} declares no PHASE_NAMES")
    registered = _PHASE_SCHEMAS.get(key)
    if registered is not None and registered is not cls:
        raise MeasurementError(
            f"phase schema {sorted(key)} already registered by "
            f"{registered.__name__}"
        )
    compute, comm = set(cls.COMPUTE_PHASES), set(cls.COMM_PHASES)
    if compute | comm != set(cls.PHASE_NAMES) or compute & comm:
        raise MeasurementError(
            f"{cls.__name__}: COMPUTE_PHASES and COMM_PHASES must "
            f"partition PHASE_NAMES"
        )
    if tuple(f.name for f in fields(cls)) != tuple(cls.PHASE_NAMES):
        raise MeasurementError(f"{cls.__name__}: fields must be PHASE_NAMES, in order")
    _PHASE_SCHEMAS[key] = cls
    return cls


def registered_phase_schemas() -> Tuple[Tuple[str, ...], ...]:
    """The known schemas as sorted name tuples (for error messages)."""
    return tuple(sorted(tuple(sorted(key)) for key in _PHASE_SCHEMAS))


def left_fold(values: np.ndarray) -> np.ndarray:
    """Sum the last axis strictly left to right (``((v0 + v1) + v2) ...``).

    ``ndarray.sum`` switches to pairwise summation on contiguous rows of
    more than eight values, so its bits depend on the memory layout — and
    therefore on how many runs share a batch.  A cumulative sum is always
    sequential.  An empty axis folds to zero.
    """
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1])
    return np.cumsum(values, axis=-1)[..., -1]


class WorkloadResult:
    """One simulated measurement of any workload family.

    Carries per-process phase arrays plus the rank→kind map, and exposes
    what the measurement layer consumes
    (:meth:`~repro.measure.record.MeasurementRecord.from_results`):
    ``config`` / ``n`` / ``total_processes`` / ``wall_time_s`` /
    ``gflops`` / ``kind_phases`` / ``kind_names`` / ``bottleneck_kind``.
    """

    def __init__(
        self,
        spec_name: str,
        config: ClusterConfig,
        n: int,
        wall_time_s: float,
        phase_arrays: Dict[str, np.ndarray],
        rank_kinds: Sequence[str],
        phase_class: type,
        benchmark_flops: float,
    ) -> None:
        self.spec_name = spec_name
        self.config = config
        self.n = int(n)
        self.wall_time_s = float(wall_time_s)
        self.phase_arrays = phase_arrays
        self.rank_kinds = tuple(rank_kinds)
        self.phase_class = phase_class
        self.benchmark_flops = float(benchmark_flops)
        self._kind_ranks: Optional[Dict[str, np.ndarray]] = None

    @classmethod
    def rows(cls, spec_name: str, config: ClusterConfig, ns: Sequence[int],
             walls: np.ndarray, phases: Mapping[str, np.ndarray],
             rank_kinds: Sequence[str], phase_class: type,
             benchmark_flops: Callable[[int], float]) -> List["WorkloadResult"]:
        """A walker's batch as results: run ``i`` holds row ``i`` of
        ``walls`` and of each ``(S, P)`` phase matrix — a view, not a copy."""
        rank_kinds = tuple(rank_kinds)
        return [
            cls(spec_name, config, n, wall,
                {name: phases[name][i] for name in phase_class.PHASE_NAMES},
                rank_kinds, phase_class, benchmark_flops(n))
            for i, (n, wall) in enumerate(zip(ns, walls.tolist()))
        ]

    def _rank_index(self) -> Dict[str, np.ndarray]:
        """Each kind's ranks, kinds in order of their first rank; built on
        first use, once per result."""
        if self._kind_ranks is None:
            kind_ranks: Dict[str, List[int]] = {}
            for rank, name in enumerate(self.rank_kinds):
                kind_ranks.setdefault(name, []).append(rank)
            self._kind_ranks = {name: np.array(r) for name, r in kind_ranks.items()}
        return self._kind_ranks

    @property
    def total_processes(self) -> int:
        return len(self.rank_kinds)

    @property
    def gflops(self) -> float:
        return to_gflops(self.benchmark_flops, self.wall_time_s)

    def kind_names(self) -> List[str]:
        """Kinds in order of their first rank."""
        return list(self._rank_index())

    def kind_phases(self, kind_name: str):
        """Mean phase breakdown over the processes of one kind: the one-run
        case of :func:`kind_means`."""
        return next(kind_means([self], [kind_name]))[0]

    def bottleneck_kind(self) -> str:
        """Kind whose mean busy time is largest (drives the wall time)."""
        return max(self.kind_names(), key=lambda k: self.kind_phases(k).total)


def kind_means(
    results: Sequence[WorkloadResult], kind_names: Sequence[str]
) -> Iterator[Tuple[PhaseVector, ...]]:
    """Per-kind mean phase vectors of runs of one configuration, run by run.

    The runs' phase arrays form one ``(S, F, P)`` block (runs x phases x
    ranks), checked in one pass: every value must be finite and
    non-negative.  Each kind's ``(S, F, k)`` slice is folded left to right
    over its ranks and the sum multiplied by ``1/k`` — the order HPL's
    golden data pins — never ``np.mean``.  Yields one tuple per run, in
    ``kind_names`` order; at the first run holding an invalid value it
    raises instead, naming the phase and that run's lowest invalid rank,
    so records built run by run fail where a run-by-run path would.
    """
    first = results[0]
    phase_class = first.phase_class
    names = phase_class.PHASE_NAMES
    shared = (first.config, first.rank_kinds, phase_class)
    if any((r.config, r.rank_kinds, r.phase_class) != shared for r in results):
        raise SimulationError("kind means need runs of one configuration")
    index = first._rank_index()
    for kind_name in kind_names:
        if kind_name not in index:
            raise SimulationError(
                f"kind {kind_name!r} has no processes in config {first.config.label()}"
            )
    block = np.array([[r.phase_arrays[name] for name in names] for r in results],
                     dtype=float)
    bad = ~np.isfinite(block) | (block < 0)
    run, rank, phase = np.argwhere(bad.transpose(0, 2, 1))[0] if bad.any() else (-1, 0, 0)
    means = [
        (left_fold(block[..., index[k]]) * (1.0 / len(index[k]))).tolist()
        for k in kind_names
    ]
    for s in range(len(results)):
        if s == run:
            raise SimulationError(
                f"phase {names[phase]} has invalid time "
                f"{float(block[s, phase, rank])!r} on rank {int(rank)}"
            )
        yield tuple(phase_class(*rows[s]) for rows in means)


#: One group of a measurement grid: a configuration, its problem orders
#: and one trial index per order (or one index shared by every order).
RunGroup = Tuple[ClusterConfig, Sequence[int], Union[int, Sequence[int]]]


def normalize_groups(
    groups: Sequence[RunGroup],
) -> List[Tuple[ClusterConfig, List[int], List[int]]]:
    """A grid's groups with integer orders and one trial index per order."""
    out = []
    for config, sizes, trials in groups:
        sizes = [int(n) for n in sizes]
        out.append((config, sizes, normalize_trials(sizes, trials)))
    return out


def noise_grid(label: str, groups: Sequence[RunGroup], noise, seed: int):
    """Per-run log-normal noise rows for every run of a grid.

    Run ``(config, N, trial)`` draws from ``stream(seed, label,
    config.key(), N, trial)``: compute jitter, comm jitter, then the
    outlier roll.  The draw depends only on its own run, so a run gets
    the same noise alone, in its configuration's batch or in any grid.
    The whole grid is seeded in one pass (:func:`repro.rng.seeded`; each
    group's ``(label, config.key())`` prefix is hashed once), and its
    rows are scaled and exponentiated together.  Returns one
    ``(compute_rows, comm_rows)`` pair of ``(len(sizes), P)`` arrays per
    group, or ``(None, None)`` pairs when noise is disabled.
    """
    groups = normalize_groups(groups)
    if noise is None or not noise.enabled:
        return [(None, None)] * len(groups)
    keys: List[int] = []
    widths: List[int] = []
    for config, sizes, trials in groups:
        keys += folded_keys((label, config.key()), zip(sizes, trials))
        widths += [2 * config.total_processes] * len(sizes)
    ends = np.cumsum(widths, dtype=np.int64).tolist()
    draws = np.empty(ends[-1] if ends else 0)
    rolls = np.ones(len(keys))
    roll = noise.outlier_probability > 0
    start = 0
    for run, (generator, end) in enumerate(zip(seeded(seed, keys), ends)):
        generator.standard_normal(out=draws[start:end])
        if roll:
            rolls[run] = generator.random()
        start = end
    outliers = rolls < noise.outlier_probability
    rows = []
    run = start = 0
    for config, sizes, _ in groups:
        p, count = config.total_processes, len(sizes)
        block = draws[start:start + 2 * p * count].reshape(count, 2, p)
        # ``normal(0, sigma)`` is ``0.0 + sigma * z``; the sign of a zero
        # does not survive ``exp``.
        compute_rows = np.exp(noise.sigma_compute * block[:, 0])
        comm_rows = np.exp(noise.sigma_comm * block[:, 1])
        hit = outliers[run:run + count]
        compute_rows[hit] *= noise.outlier_factor
        comm_rows[hit] *= noise.outlier_factor
        rows.append((compute_rows, comm_rows))
        run += count
        start += 2 * p * count
    return rows


def normalize_trials(sizes: Sequence[int], trial) -> List[int]:
    """Expand a batch's ``trial`` argument (int or per-entry sequence)."""
    if isinstance(trial, (int, np.integer)):
        return [int(trial)] * len(sizes)
    trials = [int(t) for t in trial]
    if len(trials) != len(sizes):
        raise SimulationError(f"{len(sizes)} sizes but {len(trials)} trial indices")
    return trials
