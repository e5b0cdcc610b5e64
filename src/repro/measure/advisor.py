"""Campaign advisor: will this measurement plan produce a trustworthy model?

The paper's NS protocol is a cautionary tale that is entirely *predictable
before spending any cluster time*: every one of its failure conditions is
visible in the plan itself.  The advisor inspects a
:class:`~repro.measure.grids.CampaignPlan` against a cluster and reports:

* **extrapolation risk** — evaluation sizes far above the construction
  range (the NS trap: deciding about N = 9600 from fits on N <= 1600);
* **interpolation-only fits** — exactly 4 sizes per N-T model (noise flows
  straight into the coefficients; the Basic grid oversamples for a reason);
* **un-measurable P-T models** — kinds whose grid offers fewer than 3 PE
  counts (they will be composed, which is weaker);
* **paging construction runs** — runs whose predicted memory footprint
  overflows a node (they would poison the fits; see the memory guard);
* a **cost estimate** for the whole campaign from the kinds' peak rates —
  a deliberately crude ``work / aggregate-peak`` bound over the workload
  family's own flop count (no simulator involved, because on a real
  cluster you could not simulate either).

``severity`` is ``"fatal"`` (the model will be wrong), ``"warning"``
(fragile), or ``"info"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cluster.spec import ClusterSpec
from repro.core.memory_guard import MemoryGuard
from repro.measure.grids import CampaignPlan
from repro.units import GFLOPS, pretty_seconds
from repro.workloads import create_workload

#: Construction must reach at least this fraction of the largest evaluation
#: size.  The paper's data calibrates the boundary: NL (6400/9600 = 0.67)
#: extrapolated fine; NS (1600/9600 = 0.17) collapsed.
SAFE_EXTRAPOLATION = 0.5


@dataclass(frozen=True)
class Finding:
    severity: str  # "fatal" | "warning" | "info"
    code: str
    message: str


@dataclass
class AdvisorReport:
    plan_name: str
    findings: List[Finding] = field(default_factory=list)
    estimated_cost_s: float = 0.0

    @property
    def fatal(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "fatal"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.fatal

    def render(self) -> str:
        lines = [
            f"Campaign advisor: plan {self.plan_name!r} — "
            f"estimated measurement cost ~{pretty_seconds(self.estimated_cost_s)} "
            f"(crude peak-rate bound)"
        ]
        if not self.findings:
            lines.append("  no findings: plan looks sound")
        for finding in self.findings:
            lines.append(f"  [{finding.severity.upper():7s}] {finding.code}: {finding.message}")
        return "\n".join(lines)


def advise(spec: ClusterSpec, plan: CampaignPlan, workload: str = "hpl") -> AdvisorReport:
    """Analyze a plan before running it.

    ``workload`` is the family tag whose memory model judges paging and
    whose flop count drives the cost bound.
    """
    family = create_workload(workload)
    report = AdvisorReport(plan_name=plan.name)

    # -- extrapolation risk ---------------------------------------------------
    max_construction = max(plan.construction_sizes)
    max_evaluation = max(plan.evaluation_sizes) if plan.evaluation_sizes else 0
    if max_evaluation:
        ratio = max_construction / max_evaluation
        if ratio < SAFE_EXTRAPOLATION:
            report.findings.append(
                Finding(
                    "fatal",
                    "extrapolation",
                    f"construction tops out at N={max_construction} but the plan "
                    f"decides about N={max_evaluation} ({ratio:.0%} coverage; "
                    f"below {SAFE_EXTRAPOLATION:.0%} is the paper's NS failure regime)",
                )
            )
        elif ratio < 1.0:
            report.findings.append(
                Finding(
                    "info",
                    "extrapolation",
                    f"evaluation extrapolates {max_construction} -> {max_evaluation} "
                    f"({ratio:.0%} coverage; the paper's Basic/NL models handled this)",
                )
            )

    # -- interpolation-only fits --------------------------------------------------
    n_sizes = len(set(plan.construction_sizes))
    if n_sizes < 4:
        report.findings.append(
            Finding(
                "fatal",
                "too-few-sizes",
                f"only {n_sizes} construction sizes; N-T models need >= 4",
            )
        )
    elif n_sizes == 4:
        report.findings.append(
            Finding(
                "warning",
                "interpolation-fit",
                "exactly 4 construction sizes: the Ta fit is an interpolation "
                "and measurement noise passes straight into the coefficients "
                "(consider 6+ sizes, or repeated trials)",
            )
        )

    # -- P-T measurability per kind -------------------------------------------------
    pe_counts: Dict[str, set] = {}
    for config in plan.construction_configs:
        for alloc in config.active:
            pe_counts.setdefault(alloc.kind_name, set()).add(alloc.pe_count)
    for kind in plan.kinds:
        counts = pe_counts.get(kind, set())
        if not counts:
            report.findings.append(
                Finding("warning", "unmeasured-kind", f"kind {kind!r} never measured")
            )
        elif len(counts) < 3:
            available = spec.pe_count(kind) if kind in spec.kind_names else 0
            reason = (
                "the cluster has too few PEs — its P-T models will be composed"
                if available < 3
                else "add more PE counts to the grid for a measured P-T model"
            )
            report.findings.append(
                Finding(
                    "info" if available < 3 else "warning",
                    "composed-pt",
                    f"kind {kind!r} measured at PE counts {sorted(counts)} "
                    f"(< 3): {reason}",
                )
            )

    # -- paging construction runs -----------------------------------------------------
    guard = MemoryGuard(spec, family)
    paging = [
        (config.label(plan.kinds), n)
        for n, config in plan.construction_runs()
        if not guard.fits(config, n)
    ]
    if paging:
        sample = ", ".join(f"{label}@{n}" for label, n in paging[:4])
        report.findings.append(
            Finding(
                "fatal",
                "paging-runs",
                f"{len(paging)} construction runs exceed node memory "
                f"(e.g. {sample}); they would poison the fits — shrink the "
                "grid or enable the memory guard",
            )
        )

    # -- crude cost bound ------------------------------------------------------------------
    total = 0.0
    for n, config in plan.construction_runs():
        aggregate = sum(
            spec.kind(a.kind_name).peak_gflops * GFLOPS * a.pe_count
            for a in config.active
            if a.kind_name in spec.kind_names
        )
        if aggregate > 0:
            total += family.benchmark_flops(n) / aggregate
    report.estimated_cost_s = total
    return report
