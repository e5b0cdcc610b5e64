"""Phase-breakdown diagnostics: where does a configuration's time go?

The paper's Figure 4 introduces HPL's timing items; this module renders
the simulated equivalent for any run — per-kind and per-process tables of
``pfact / mxswp / bcast / update / laswp / uptrsv`` with the paper's
``Ta``/``Tc`` groupings — the first thing to look at when an estimate and
a measurement disagree.  Exposed on the CLI as ``repro breakdown``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.tables import render_table
from repro.cluster.config import ClusterConfig
from repro.cluster.spec import ClusterSpec
from repro.hpl.driver import NoiseSpec, run_hpl
from repro.hpl.schedule import HPLParameters
from repro.hpl.timing import PHASE_NAMES
from repro.runs import WorkloadResult


def kind_breakdown_table(result: WorkloadResult) -> str:
    """Per-kind mean phase times with Ta/Tc groupings."""
    rows = []
    for kind in result.kind_names():
        phases = result.kind_phases(kind)
        rows.append(
            [kind]
            + [f"{getattr(phases, name):.2f}" for name in PHASE_NAMES]
            + [f"{phases.ta:.2f}", f"{phases.tc:.2f}", f"{phases.total:.2f}"]
        )
    return render_table(
        ["kind", *PHASE_NAMES, "Ta", "Tc", "total"],
        rows,
        title=(
            f"Phase breakdown (mean per kind), config "
            f"{result.config.label()}, N={result.n}: wall "
            f"{result.wall_time_s:.2f} s, {result.gflops:.2f} Gflops"
        ),
    )


def process_breakdown_table(result: WorkloadResult, limit: Optional[int] = None) -> str:
    """Per-process phase times (bottleneck hunting)."""
    rows = []
    for rank, kind in enumerate(result.rank_kinds[:limit]):
        phases = result.phase_class.from_arrays(result.phase_arrays, rank)
        rows.append(
            [rank, kind]
            + [f"{getattr(phases, name):.2f}" for name in PHASE_NAMES]
            + [f"{phases.total:.2f}"]
        )
    return render_table(
        ["rank", "kind", *PHASE_NAMES, "total"],
        rows,
        title="Per-process phase breakdown",
    )


def breakdown_report(
    spec: ClusterSpec,
    config: ClusterConfig,
    n: int,
    params: Optional[HPLParameters] = None,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    per_process: bool = False,
) -> str:
    """Run one simulated measurement and render its breakdown."""
    result = run_hpl(spec, config, n, params=params, noise=noise, seed=seed)
    sections: List[str] = [kind_breakdown_table(result)]
    if per_process:
        sections.append(process_breakdown_table(result))
    bottleneck = result.bottleneck_kind()
    phases = result.kind_phases(bottleneck)
    dominant = max(PHASE_NAMES, key=lambda name: getattr(phases, name))
    sections.append(
        f"Bottleneck kind: {bottleneck} (dominant phase: {dominant}, "
        f"{getattr(phases, dominant):.2f} s of its {phases.total:.2f} s)"
    )
    return "\n\n".join(sections)
