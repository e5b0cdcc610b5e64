"""How many CPUs this process may use.

The serving fleet sizes itself from :func:`default_worker_count`
(``repro serve --workers 0``).  Campaigns run in one process: a grid's
whole walk is one grid-runner call, shorter than a process pool's
start-up (DESIGN.md §7).
"""

from __future__ import annotations

import os
from typing import Optional


#: cgroup v2 CPU quota file (``"max 100000"`` or ``"<quota> <period>"``).
_CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cgroup_cpu_limit(path: str = _CGROUP_CPU_MAX) -> Optional[int]:
    """Effective CPU count from a cgroup v2 quota, or ``None`` if unbounded.

    Containers commonly cap CPU *bandwidth* (``cpu.max``) without
    shrinking the affinity mask, so ``sched_getaffinity`` alone
    over-reports — a pod limited to 2 CPUs on a 64-core node still sees
    64 in its mask.  The quota is ``ceil(quota / period)`` whole CPUs;
    malformed or absent files mean "no limit" rather than an error.
    """
    try:
        with open(path, "r") as fh:
            parts = fh.read().split()
        if len(parts) != 2 or parts[0] == "max":
            return None
        quota, period = int(parts[0]), int(parts[1])
        if quota <= 0 or period <= 0:
            return None
        return max(1, -(-quota // period))
    except (OSError, ValueError):
        return None


def available_cpu_count() -> int:
    """CPUs this process may use.

    The minimum of the scheduler affinity mask (taskset, cpusets) and
    any cgroup v2 bandwidth quota (container CPU limits) — either can be
    the binding constraint, and ``os.cpu_count()`` respects neither.
    """
    try:
        cpus = len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cpus = os.cpu_count() or 1
    limit = _cgroup_cpu_limit()
    if limit is not None:
        cpus = min(cpus, limit)
    return cpus


def default_worker_count(cap: Optional[int] = None) -> int:
    """A sensible default worker count: all available CPUs, optionally
    capped.  The serving fleet (``repro serve --workers 0``) and any
    other auto-sizing caller share this one definition of "available" so
    container limits are respected everywhere.
    """
    cpus = available_cpu_count()
    if cap is not None:
        cpus = min(cpus, cap)
    return max(1, cpus)
