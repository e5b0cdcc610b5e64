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
  rank-to-kind map, and the only per-kind mean (:meth:`kind_phases`);
* :func:`noise_rows` / :func:`normalize_trials` — the per-run noise draw
  and ``trial`` expansion every batch runner shares.

It imports nothing from :mod:`repro.hpl`, :mod:`repro.measure` or
:mod:`repro.workloads`, so all three can build on it.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.errors import MeasurementError, SimulationError
from repro.rng import stream
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
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value) or value < 0:
                raise SimulationError(f"phase {f.name} has invalid time {value!r}")

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
    (:meth:`~repro.measure.record.MeasurementRecord.from_result`):
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
        """Mean phase breakdown over the processes of one kind.

        Every rank's every phase must be finite and non-negative.  The
        kind's ranks are folded left to right and the sum multiplied by
        ``1/k`` — the order HPL's golden data pins — never ``np.mean``.
        """
        ranks = self._rank_index().get(kind_name)
        if ranks is None:
            raise SimulationError(
                f"kind {kind_name!r} has no processes in config {self.config.label()}"
            )
        names = self.phase_class.PHASE_NAMES
        values = np.stack([self.phase_arrays[name] for name in names])  # (F, P)
        bad = ~np.isfinite(values) | (values < 0)
        if bad.any():
            rank, phase = np.argwhere(bad.T)[0]
            raise SimulationError(
                f"phase {names[phase]} has invalid time "
                f"{float(values[phase, rank])!r} on rank {int(rank)}"
            )
        means = left_fold(values[:, ranks]) * (1.0 / len(ranks))
        return self.phase_class(**dict(zip(names, means.tolist())))

    def bottleneck_kind(self) -> str:
        """Kind whose mean busy time is largest (drives the wall time)."""
        return max(self.kind_names(), key=lambda k: self.kind_phases(k).total)


def noise_rows(
    label: str,
    config: ClusterConfig,
    sizes: Sequence[int],
    trials: Sequence[int],
    noise,
    seed: int,
):
    """Per-run log-normal noise rows, one independent stream per row.

    Each row draws from ``stream(seed, label, config.key(), N, trial)``:
    compute jitter, comm jitter, then the outlier roll.  The draw depends
    only on its own ``(config, N, trial)``, so a run gets the same noise
    alone or in any batch.  Returns ``(compute_rows, comm_rows)`` of shape
    ``(len(sizes), P)``, or ``(None, None)`` when noise is disabled.
    """
    if noise is None or not noise.enabled:
        return None, None
    p = config.total_processes
    compute_rows = np.empty((len(sizes), p))
    comm_rows = np.empty((len(sizes), p))
    for i, (n, trial) in enumerate(zip(sizes, trials)):
        rng = stream(seed, label, config.key(), n, trial)
        compute = np.exp(rng.normal(0.0, noise.sigma_compute, size=p))
        comm = np.exp(rng.normal(0.0, noise.sigma_comm, size=p))
        if noise.outlier_probability > 0 and rng.random() < noise.outlier_probability:
            compute = compute * noise.outlier_factor
            comm = comm * noise.outlier_factor
        compute_rows[i] = compute
        comm_rows[i] = comm
    return compute_rows, comm_rows


def normalize_trials(sizes: Sequence[int], trial) -> List[int]:
    """Expand a batch's ``trial`` argument (int or per-entry sequence)."""
    if isinstance(trial, (int, np.integer)):
        return [int(trial)] * len(sizes)
    trials = [int(t) for t in trial]
    if len(trials) != len(sizes):
        raise SimulationError(f"{len(sizes)} sizes but {len(trials)} trial indices")
    return trials
