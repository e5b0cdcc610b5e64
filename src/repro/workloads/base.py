"""The type-tagged :class:`Workload` protocol and its registry.

A *workload family* bundles everything the estimation pipeline needs to
know about one phase-structured parallel application:

* the deterministic simulator (a grid runner with the signature of
  :func:`~repro.hpl.driver.run_hpl_grid`, measuring every run of a grid of
  ``(configuration, sizes, trials)`` groups in one call and returning one
  shared :class:`~repro.runs.WorkloadResult` per run) — the one way
  campaigns choose the application;
* the phase decomposition used for fitting (a phase-vector class, see
  :mod:`repro.workloads.phases`);
* the measurement-grid shape (a :class:`~repro.measure.grids.CampaignPlan`
  per protocol name);
* the memory-footprint model feeding the memory guard and memory bins;
* the benchmark flop count behind the campaign advisor's cost bound.

Tags are serializable strings stored in pipeline artifacts and served
requests.  The registry mirrors the PR-2 model registry
(:mod:`repro.core.model_api`) and the PR-7 search registry:
``@register_workload("tag")`` on the class, :func:`create_workload` to
resolve, unknown tags raise :class:`~repro.errors.ModelError` naming the
known tags.  Unlike model classes, workloads are stateless singletons —
the registry stores one shared instance per tag.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Type

from repro.cluster.config import ClusterConfig
from repro.errors import ModelError
from repro.measure.grids import CampaignPlan

_WORKLOADS: Dict[str, "Workload"] = {}


def register_workload(tag: str) -> Callable[[Type["Workload"]], Type["Workload"]]:
    """Class decorator registering a :class:`Workload` under ``tag``.

    Sets ``cls.tag`` and stores a singleton instance.  Re-registering the
    same class is a no-op (idempotent re-imports); a different class under
    an existing tag is an error.
    """

    def decorate(cls: Type["Workload"]) -> Type["Workload"]:
        existing = _WORKLOADS.get(tag)
        if existing is not None and type(existing) is not cls:
            raise ModelError(f"workload tag {tag!r} already registered")
        cls.tag = tag
        _WORKLOADS[tag] = cls()
        return cls

    return decorate


def create_workload(tag: str) -> "Workload":
    """Resolve a workload tag to its shared instance.

    Raises :class:`~repro.errors.ModelError` for unknown tags, listing
    what *is* registered — the error a stale artifact or a typoed
    ``--workload`` surfaces as.
    """
    try:
        return _WORKLOADS[tag]
    except KeyError:
        known = ", ".join(sorted(_WORKLOADS)) or "none"
        raise ModelError(f"unknown workload {tag!r} (known: {known})") from None


def registered_workloads() -> Tuple[str, ...]:
    """Sorted tuple of registered workload tags."""
    return tuple(sorted(_WORKLOADS))


def iter_workloads() -> Tuple[Tuple[str, "Workload"], ...]:
    """``(tag, workload)`` pairs in sorted tag order (CLI inventory)."""
    return tuple(sorted(_WORKLOADS.items()))


class Workload:
    """Base class for workload families.

    Subclasses override the hooks below; the defaults implement the
    behavior shared by every family (no memory pressure, the standard
    grid kernel).  ``tag`` is set by :func:`register_workload`;
    ``display`` is a short human-readable family name.
    """

    tag: str = ""
    display: str = ""
    #: The family's :class:`~repro.runs.PhaseVector` subclass.
    phase_class: type = None  # type: ignore[assignment]

    # -- phase decomposition ------------------------------------------------

    @property
    def phase_names(self) -> Tuple[str, ...]:
        return tuple(self.phase_class.PHASE_NAMES)

    @property
    def compute_phases(self) -> Tuple[str, ...]:
        return tuple(self.phase_class.COMPUTE_PHASES)

    @property
    def comm_phases(self) -> Tuple[str, ...]:
        return tuple(self.phase_class.COMM_PHASES)

    # -- simulator entry point ----------------------------------------------

    def batch_runner(self) -> Callable:
        """The family's grid runner (``run_hpl_grid``-shaped): one call
        measures a whole grid of ``(config, sizes, trials)`` groups."""
        raise NotImplementedError

    # -- measurement grid ---------------------------------------------------

    def plan(self, protocol: str) -> CampaignPlan:
        """The measurement plan for a protocol name (``basic``/``nl``/``ns``)."""
        raise NotImplementedError

    # -- memory model -------------------------------------------------------

    def memory_ratio(self, spec, config: ClusterConfig, n: int, kind_name: str) -> float:
        """Worst-node memory-pressure ratio (memory guard, memory bins,
        advisor); 0.0 = no model."""
        return 0.0

    # -- work model ---------------------------------------------------------

    def benchmark_flops(self, n: int) -> float:
        """The flop count a run of order ``n`` reports its Gflops against."""
        raise NotImplementedError

    # -- inventory ----------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Serializable inventory entry (``repro workloads``)."""
        plan = self.plan("basic")
        return {
            "tag": self.tag,
            "display": self.display,
            "phases": list(self.phase_names),
            "compute_phases": list(self.compute_phases),
            "comm_phases": list(self.comm_phases),
            "construction_sizes": [int(n) for n in plan.construction_sizes],
            "evaluation_sizes": [int(n) for n in plan.evaluation_sizes],
            "construction_configs": len(plan.construction_configs),
            "evaluation_configs": len(plan.evaluation_configs),
        }
