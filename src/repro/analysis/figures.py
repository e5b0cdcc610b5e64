"""Data series of the paper's Figures 1-3 and terminal scatter rendering.

Each ``figN_series`` function returns labelled (x, y) series ready for any
plotting frontend; the benches print them as tables and the ASCII renderer
gives a quick visual in terminals (this library deliberately has no
plotting dependency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.correlation import CorrelationData
from repro.cluster.config import ClusterConfig
from repro.cluster.presets import kishimoto_cluster, single_node_cluster
from repro.cluster.spec import ClusterSpec
from repro.hpl.driver import NoiseSpec, run_hpl_grid
from repro.simnet.mpich import mpich_1_2_1, mpich_1_2_2
from repro.simnet.netpipe import probe_link, standard_block_sizes
from repro.units import to_gbps


def _gflops_curve(spec, config, sizes, noise, seed) -> List[float]:
    """Gflops at each size, one grid-runner group per configuration."""
    [results] = run_hpl_grid(spec, [(config, sizes, 0)], noise=noise, seed=seed)
    return [result.gflops for result in results]


@dataclass(frozen=True)
class Series:
    """One labelled curve."""

    label: str
    x: Tuple[float, ...]
    y: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(f"{self.label}: x and y lengths differ")


FIG1_SIZES: Tuple[int, ...] = (1000, 2000, 3000, 4000, 5000, 6000, 7000)
FIG3_SIZES: Tuple[int, ...] = (1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000)


def fig1_series(
    mpich: str,
    sizes: Sequence[int] = FIG1_SIZES,
    max_procs: int = 4,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
) -> List[Series]:
    """Figure 1: single-Athlon HPL Gflops for n = 1..4 processes/CPU under
    one MPICH version (``"1.2.1"`` or ``"1.2.2"``)."""
    spec = single_node_cluster(mpich=mpich)
    out = []
    for procs in range(1, max_procs + 1):
        config = ClusterConfig.of(athlon=(1, procs))
        gflops = _gflops_curve(spec, config, sizes, noise, seed)
        out.append(Series(f"{procs}P/CPU", tuple(float(n) for n in sizes), tuple(gflops)))
    return out


def fig2_series(block_sizes: Optional[Sequence[float]] = None) -> List[Series]:
    """Figure 2: intra-node NetPIPE throughput (Gbit/s) vs block size (KB)
    for the two MPICH versions."""
    blocks = (
        np.asarray(block_sizes, dtype=float)
        if block_sizes is not None
        else standard_block_sizes()
    )
    out = []
    for version in (mpich_1_2_1(), mpich_1_2_2()):
        points = probe_link(version, blocks)
        out.append(
            Series(
                version.name,
                tuple(p.block_bytes / 1024.0 for p in points),
                tuple(to_gbps(p.throughput_bps) for p in points),
            )
        )
    return out


def fig3a_series(
    sizes: Sequence[int] = FIG3_SIZES,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    spec: Optional[ClusterSpec] = None,
) -> List[Series]:
    """Figure 3(a): load imbalance — Athlon x 1 vs P2 x 5 vs Ath + P2 x 4
    (equal distribution, one process per PE)."""
    cluster = spec if spec is not None else kishimoto_cluster()
    cases = {
        "Athlon x 1": ClusterConfig.of(athlon=(1, 1), pentium2=(0, 0)),
        "Ath x 1 + P2 x 4": ClusterConfig.of(athlon=(1, 1), pentium2=(4, 1)),
        "P2 x 5": ClusterConfig.of(athlon=(0, 0), pentium2=(5, 1)),
    }
    out = []
    for label, config in cases.items():
        gflops = _gflops_curve(cluster, config, sizes, noise, seed)
        out.append(Series(label, tuple(float(n) for n in sizes), tuple(gflops)))
    return out


def fig3b_series(
    sizes: Sequence[int] = FIG3_SIZES,
    max_procs: int = 4,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    spec: Optional[ClusterSpec] = None,
) -> List[Series]:
    """Figure 3(b): multiprocessing n = 1..4 on the Athlon alongside four
    Pentium-IIs, against the single Athlon."""
    cluster = spec if spec is not None else kishimoto_cluster()
    out = [
        Series(
            "Athlon x 1",
            tuple(float(n) for n in sizes),
            tuple(
                _gflops_curve(
                    cluster,
                    ClusterConfig.of(athlon=(1, 1), pentium2=(0, 0)),
                    sizes,
                    noise,
                    seed,
                )
            ),
        )
    ]
    for procs in range(1, max_procs + 1):
        config = ClusterConfig.of(athlon=(1, procs), pentium2=(4, 1))
        gflops = _gflops_curve(cluster, config, sizes, noise, seed)
        out.append(Series(f"n = {procs}", tuple(float(n) for n in sizes), tuple(gflops)))
    return out


# -- terminal rendering -----------------------------------------------------------


def series_table(series: Sequence[Series], x_label: str, y_format: str = "{:.3f}") -> str:
    """Tabulate several series sharing (approximately) the same x grid."""
    if not series:
        return "(no series)"
    xs = series[0].x
    lines = [x_label.rjust(8) + "  " + "  ".join(s.label.rjust(12) for s in series)]
    for i, x in enumerate(xs):
        cells = []
        for s in series:
            cells.append(
                y_format.format(s.y[i]).rjust(12) if i < len(s.y) else " " * 12
            )
        lines.append(f"{x:8.0f}  " + "  ".join(cells))
    return "\n".join(lines)


def ascii_scatter(
    data: CorrelationData,
    adjusted: bool = True,
    width: int = 56,
    height: int = 20,
) -> str:
    """Terminal scatter of estimate (x) vs measurement (y) with the
    diagonal marked ``.`` — the look of the paper's Figures 6-15."""
    if not data.points:
        return "(no points)"
    est = np.array(
        [p.estimate_adjusted if adjusted else p.estimate_raw for p in data.points]
    )
    meas = np.array([p.measured for p in data.points])
    groups = [p.group_mi for p in data.points]
    top = max(float(est.max()), float(meas.max())) * 1.05
    if top <= 0:
        return "(degenerate scatter)"
    grid = [[" "] * width for _ in range(height)]
    for row in range(height):
        frac = 1.0 - (row + 0.5) / height
        col = int(frac * (width - 1))
        grid[row][col] = "."
    for e, m, g in zip(est, meas, groups):
        col = min(int(e / top * (width - 1)), width - 1)
        row = min(int((1.0 - m / top) * (height - 1)), height - 1)
        grid[row][col] = str(g) if 0 <= g <= 9 else "#"
    lines = ["".join(r) + "|" for r in grid]
    lines.append("-" * width + "+")
    lines.append(
        f"x: estimate 0..{top:.0f}s, y: measurement (digits = M1 group, '.' = T=t)"
    )
    return "\n".join(lines)
