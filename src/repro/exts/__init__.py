"""Extensions along the paper's future-work directions.

The paper's conclusion names three open ends.  The third, "other
parallel applications should be also examined", is the workload families
of :mod:`repro.workloads`; the other two:

* "for larger clusters, it is essential to find a way to reduce the search
  space.  Approximation algorithms (i.e., heuristics) are also worth
  considering" — the heuristic backends of :mod:`repro.core.search`
  (greedy growth, hill climbing, simulated annealing, beam search, all
  benchmarked against exhaustive enumeration);
* "though we examine only the case of a 1-by-P process grid ... our scheme
  is universally applicable to any other process grid" —
  :mod:`repro.exts.grid2d` (P x Q block-cyclic grids and a 2-D variant of
  the schedule simulator);

plus :mod:`repro.exts.baselines`, which implements the *related-work*
approach the paper argues against (speed-weighted heterogeneous
distribution in rewritten applications) so the comparison can be run
rather than merely cited.
"""

from repro.exts.baselines import run_hbc, simulate_hbc, weighted_owner_sequence
from repro.exts.grid2d import GridShape, grid_shapes, simulate_schedule_2d

__all__ = [
    "GridShape",
    "grid_shapes",
    "run_hbc",
    "simulate_hbc",
    "simulate_schedule_2d",
    "weighted_owner_sequence",
]
