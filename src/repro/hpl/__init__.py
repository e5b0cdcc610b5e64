"""HPL substrate: the benchmark the paper models, rebuilt for simulation.

Two complementary implementations live here:

* a **numeric** blocked LU factorization with partial pivoting
  (:mod:`repro.hpl.lu`) that actually factors matrices — used to validate
  the algorithm structure, pivoting and the flop-count formulas against
  real linear algebra (HPL's own residual check included);
* a **performance** simulator (:mod:`repro.hpl.schedule`) that walks the
  identical panel-by-panel schedule over a placed process set and accrues
  the per-process phase times HPL's ``-DHPL_DETAILED_TIMING`` reports:
  ``pfact``, ``mxswp``, ``bcast``, ``laswp``, ``update``, ``uptrsv``.

:mod:`repro.hpl.driver` is the user-facing entry point: run HPL of order
``N`` on a cluster configuration and get wall time, Gflops and the timing
breakdown that the estimation models consume, as the
:class:`~repro.runs.WorkloadResult` every workload family returns.
"""

from repro.hpl.driver import HPLParameters, run_hpl
from repro.hpl.lu import blocked_lu, hpl_residual_check, lu_solve
from repro.hpl.timing import PhaseTimes

__all__ = [
    "HPLParameters",
    "PhaseTimes",
    "blocked_lu",
    "hpl_residual_check",
    "lu_solve",
    "run_hpl",
]
