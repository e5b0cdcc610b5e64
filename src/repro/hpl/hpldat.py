"""HPL.dat input files: parse, render, and drive the simulator with them.

The real HPL benchmark reads its sweep parameters from ``HPL.dat`` — a
line-oriented file of values followed by comments, in a fixed order.  This
module supports the subset the performance model cares about:

* problem sizes (``N``),
* block sizes (``NB``),
* process grids (``P x Q``),
* the residual-check threshold.

Parsing is deliberately strict about structure (counts must match their
declared lengths, values must be positive) but tolerant about the comment
text, exactly like HPL itself.  :func:`runs` enumerates the full sweep an
``HPL.dat`` describes, and :func:`run_dat` executes it on the simulator
(using the 2-D schedule walker whenever a grid has ``P > 1`` rows).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.spec import ClusterSpec
from repro.errors import SimulationError
from repro.exts.grid2d import GridShape, simulate_schedule_2d
from repro.hpl.schedule import HPLParameters
from repro.runs import WorkloadResult

_HEADER = (
    "HPLinpack benchmark input file",
    "(reproduced driver: repro.hpl.hpldat)",
)


@dataclass(frozen=True)
class HPLDat:
    """The supported subset of an HPL.dat sweep."""

    sizes: Tuple[int, ...] = (1000,)
    block_sizes: Tuple[int, ...] = (80,)
    grids: Tuple[GridShape, ...] = (GridShape(1, 4),)
    threshold: float = 16.0

    def __post_init__(self) -> None:
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise SimulationError(f"invalid problem sizes {self.sizes}")
        if not self.block_sizes or any(nb < 1 for nb in self.block_sizes):
            raise SimulationError(f"invalid block sizes {self.block_sizes}")
        if not self.grids:
            raise SimulationError("need at least one process grid")
        if self.threshold <= 0:
            raise SimulationError("threshold must be positive")

    @property
    def run_count(self) -> int:
        return len(self.sizes) * len(self.block_sizes) * len(self.grids)

    def runs(self) -> Iterator[Tuple[int, int, GridShape]]:
        """Every (N, NB, grid) combination, in HPL's sweep order."""
        for n in self.sizes:
            for nb in self.block_sizes:
                for grid in self.grids:
                    yield n, nb, grid


def render_hpl_dat(dat: HPLDat) -> str:
    """Serialize to the classic HPL.dat layout."""
    lines = list(_HEADER)
    lines.append("HPL.out      output file name (if any)")
    lines.append("6            device out (6=stdout,7=stderr,file)")
    lines.append(f"{len(dat.sizes)}            # of problems sizes (N)")
    lines.append(" ".join(str(n) for n in dat.sizes) + "  Ns")
    lines.append(f"{len(dat.block_sizes)}            # of NBs")
    lines.append(" ".join(str(nb) for nb in dat.block_sizes) + "  NBs")
    lines.append("0            PMAP process mapping (0=Row-,1=Column-major)")
    lines.append(f"{len(dat.grids)}            # of process grids (P x Q)")
    lines.append(" ".join(str(g.pr) for g in dat.grids) + "  Ps")
    lines.append(" ".join(str(g.q) for g in dat.grids) + "  Qs")
    lines.append(f"{dat.threshold}         threshold")
    return "\n".join(lines) + "\n"


def _values(line: str) -> List[str]:
    """Leading whitespace-separated values of a data line (HPL ignores the
    trailing comment)."""
    return line.split()


def _take_int(line: str, what: str) -> int:
    tokens = _values(line)
    if not tokens:
        raise SimulationError(f"missing value for {what}")
    try:
        return int(tokens[0])
    except ValueError as exc:
        raise SimulationError(f"bad {what}: {tokens[0]!r}") from exc


def _take_ints(line: str, count: int, what: str) -> List[int]:
    tokens = _values(line)
    if len(tokens) < count:
        raise SimulationError(
            f"{what}: expected {count} values, found {len(tokens)}"
        )
    try:
        return [int(token) for token in tokens[:count]]
    except ValueError as exc:
        raise SimulationError(f"bad {what} values: {tokens[:count]}") from exc


def parse_hpl_dat(text: str) -> HPLDat:
    """Parse the supported subset of an HPL.dat file.

    Follows HPL's positional layout: two header lines, output file, device,
    then the counted lists.  Raises :class:`SimulationError` with a
    pointed message on malformed input.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 11:
        raise SimulationError(
            f"HPL.dat too short: {len(lines)} non-empty lines, need >= 11"
        )
    cursor = 4  # skip two header lines, output file, device
    n_sizes = _take_int(lines[cursor], "# of problem sizes")
    cursor += 1
    sizes = _take_ints(lines[cursor], n_sizes, "Ns")
    cursor += 1
    n_nbs = _take_int(lines[cursor], "# of NBs")
    cursor += 1
    nbs = _take_ints(lines[cursor], n_nbs, "NBs")
    cursor += 1
    cursor += 1  # PMAP line (parsed but unused: ranks are placed row-major)
    n_grids = _take_int(lines[cursor], "# of process grids")
    cursor += 1
    ps = _take_ints(lines[cursor], n_grids, "Ps")
    cursor += 1
    qs = _take_ints(lines[cursor], n_grids, "Qs")
    cursor += 1
    threshold = 16.0
    if cursor < len(lines):
        tokens = _values(lines[cursor])
        if tokens:
            try:
                threshold = float(tokens[0])
            except ValueError as exc:
                raise SimulationError(f"bad threshold: {tokens[0]!r}") from exc
    grids = tuple(GridShape(pr, q) for pr, q in zip(ps, qs))
    return HPLDat(
        sizes=tuple(sizes),
        block_sizes=tuple(nbs),
        grids=grids,
        threshold=threshold,
    )


def run_dat(
    spec: ClusterSpec,
    config: ClusterConfig,
    dat: HPLDat,
    params: HPLParameters | None = None,
) -> List[WorkloadResult]:
    """Execute every run an HPL.dat describes on the simulator.

    Each grid's size must equal the configuration's process count (as real
    HPL requires ``P*Q == np``).  Uses the 2-D walker throughout so grids
    with ``Pr > 1`` behave per :mod:`repro.exts.grid2d`.
    """
    base = params if params is not None else HPLParameters()
    results = []
    for n, nb, grid in dat.runs():
        if grid.size != config.total_processes:
            raise SimulationError(
                f"grid {grid} needs {grid.size} processes; configuration "
                f"{config.label()} supplies {config.total_processes}"
            )
        schedule = simulate_schedule_2d(
            spec, config, n, grid, params=replace(base, nb=nb)
        )
        results.append(schedule.to_result(spec.name, config))
    return results
