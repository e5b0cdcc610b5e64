"""Broadcast cost models, closed-form and event-driven.

HPL broadcasts each factored panel along the process ring (its default
long-message algorithm is the *increasing ring*).  The schedule simulator
needs the per-rank delivery and busy times of that broadcast *in closed
form* (it runs thousands of panel steps); this module provides them, and
the event-driven equivalents over :class:`~repro.simnet.api.SimComm` are
used in tests to validate the closed forms against an actual message-level
execution.

Pipelining across panel steps: in real HPL the ring forwarding of panel
``k`` overlaps with the update of panel ``k-1`` and the factorization of
panel ``k+1``, so a rank far from the root does *not* wait the full chain
of store-and-forward hops in steady state.  The closed form exposes this
as a ``pipeline_factor`` in [0, 1]: a rank at ring distance ``d`` waits ::

    wait(d) = hop_1 + pipeline_factor * (hop_2 + ... + hop_d)

``pipeline_factor = 1`` is a strict bulk-synchronous store-and-forward
chain (what the event-driven run reproduces exactly); values below 1 model
cross-step overlap.  The calibrated default lives with the HPL schedule
parameters, not here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import SimulationError


def ring_delivery_times(
    hop_times: Sequence[float],
    root: int = 0,
    pipeline_factor: float = 1.0,
) -> np.ndarray:
    """Virtual time at which each rank holds the panel, relative to the
    moment the root starts sending.

    ``hop_times[i]`` is the cost of edge ``i -> i+1 (mod P)``.  The root's
    own delivery time is 0.  With ``pipeline_factor = 1`` this is the exact
    store-and-forward chain: rank at distance ``d`` receives at
    ``sum of the first d hop costs``.
    """
    hops = np.asarray(hop_times, dtype=float)
    p = hops.shape[0]
    if p == 0:
        raise SimulationError("empty ring")
    if not (0 <= root < p):
        raise SimulationError(f"invalid root {root} for ring of {p}")
    if not (0.0 <= pipeline_factor <= 1.0):
        raise SimulationError(f"pipeline_factor must be in [0,1]: {pipeline_factor}")
    if p == 1:
        return np.zeros(1)
    # Edge used to reach the rank at distance d (1-based) is (root+d-1) mod p.
    edge_order = (root + np.arange(p - 1)) % p
    chain = hops[edge_order]
    discounted = chain.copy()
    discounted[1:] *= pipeline_factor
    arrival_by_distance = np.concatenate(([0.0], np.cumsum(discounted)))
    out = np.empty(p, dtype=float)
    distances = (np.arange(p) - root) % p
    out[:] = arrival_by_distance[distances]
    return out


def ring_delivery_times_cyclic(
    hop_times,
    pipeline_factor: float = 1.0,
) -> np.ndarray:
    """Delivery times of a panel sweep whose step ``k`` is rooted at ``k mod P``.

    ``hop_times`` is ``(..., P, K)`` — the cost of edge ``e -> e+1 (mod P)``
    at step ``k``, any leading batch axes, ``K`` a multiple of ``P``.
    Returns the ``(..., P, K)`` time at which rank ``r`` holds step ``k``'s
    panel, each step bitwise identical to
    ``ring_delivery_times(hop_times[..., :, k], k % P, pipeline_factor)``:
    the same element-wise operations, and the chain accumulates in the same
    left-to-right order.

    With step ``k = j*P + r`` rooted at ``r``, the chain of edges ``r ..
    r+P-2`` is a strided view of the ring doubled along its edges, and the
    rank at distance ``d`` reads arrival ``d`` from a strided view of the
    doubled arrivals — no gather.
    """
    hops = np.asarray(hop_times, dtype=float)
    if hops.ndim < 2:
        raise SimulationError(f"hop_times must be at least 2-D, got {hops.ndim}-D")
    p, steps = hops.shape[-2:]
    if p == 0:
        raise SimulationError("empty ring")
    if steps % p:
        raise SimulationError(f"{steps} steps are not a multiple of the ring size {p}")
    if not (0.0 <= pipeline_factor <= 1.0):
        raise SimulationError(f"pipeline_factor must be in [0,1]: {pipeline_factor}")
    if p == 1:
        return np.zeros(hops.shape)
    lead, blocks = hops.shape[:-2], steps // p
    ring = hops.reshape((-1, p, blocks, p))  # [sweep, edge, j, root]
    doubled = np.concatenate([ring, ring[:, : p - 2]], axis=1)
    s_sweep, s_edge, s_block, s_root = doubled.strides
    # chain[d, sweep, j, r] = edge r + d of step j*P + r; the distance
    # leads, so every step of the accumulation is one contiguous slab.
    chain = as_strided(
        doubled, (p - 1, len(ring), blocks, p), (s_edge, s_sweep, s_block, s_root + s_edge)
    )
    # arrival[x]: arrival at distance x mod p (0 at the root); each hop
    # after the first is discounted as it is added.
    arrival = np.empty((2 * p,) + chain.shape[1:])
    arrival[0] = 0.0
    arrival[1] = chain[0]
    hop = np.empty(chain.shape[1:])
    for d in range(2, p):
        np.multiply(chain[d - 1], pipeline_factor, out=hop)
        np.add(arrival[d - 1], hop, out=arrival[d])
    del chain, doubled, hop  # the ring's copy is not needed for the output
    arrival[p:] = arrival[:p]
    shifted = arrival[p:]
    s_dist, s_sweep, s_block, s_root = shifted.strides
    # delivery[sweep, rank, j, r] = arrival at distance (rank - r) mod p
    delivery = as_strided(
        shifted, (len(ring), p, blocks, p), (s_sweep, s_dist, s_block, s_root - s_dist)
    )
    return delivery.reshape(lead + (p, steps))


def ring_busy_times(
    hop_times: Sequence[float],
    root: int = 0,
) -> np.ndarray:
    """Time each rank spends *transmitting* during the ring broadcast.

    The root sends once (edge ``root``); intermediate ranks forward once;
    the last rank only receives.  Receive time is accounted through
    :func:`ring_delivery_times` (waiting), so it is excluded here to avoid
    double counting.
    """
    hops = np.asarray(hop_times, dtype=float)
    p = hops.shape[0]
    if p == 0:
        raise SimulationError("empty ring")
    busy = np.zeros(p, dtype=float)
    if p == 1:
        return busy
    for distance in range(p - 1):  # the rank at distance p-1 does not forward
        rank = (root + distance) % p
        busy[rank] = hops[rank]
    return busy


def binomial_delivery_times(
    per_hop_time: float,
    size: int,
    root: int = 0,
) -> np.ndarray:
    """Delivery times for a binomial-tree broadcast with uniform hop cost.

    MPICH's classic algorithm: each parent sends to its children with
    descending masks, one blocking send per round, so a rank at virtual
    position ``v > 0`` (``v = (rank - root) mod size``) receives in round
    ``ceil(log2(size)) - trailing_zeros(v)`` — e.g. for size 8 the arrival
    rounds are ``[0, 3, 2, 3, 1, 3, 2, 3]``.
    """
    if size < 1:
        raise SimulationError("size must be >= 1")
    if per_hop_time < 0:
        raise SimulationError("negative hop time")
    total_rounds = max(size - 1, 0).bit_length()
    rounds = np.zeros(size, dtype=float)
    for rank in range(size):
        v = (rank - root) % size
        if v == 0:
            continue
        trailing_zeros = (v & -v).bit_length() - 1
        rounds[rank] = total_rounds - trailing_zeros
    return rounds * per_hop_time


# -- event-driven counterparts (validation) -----------------------------------


def run_ring_bcast(world, root: int, nbytes: float):
    """Execute an increasing-ring broadcast on a :class:`SimCommWorld`;
    returns per-rank finish times.  Used by tests to validate
    :func:`ring_delivery_times` with ``pipeline_factor = 1``."""

    def program(comm):
        yield from comm.bcast_ring(root, nbytes)

    return world.run(program)


def run_binomial_bcast(world, root: int, nbytes: float):
    """Execute a binomial broadcast on a :class:`SimCommWorld`."""

    def program(comm):
        yield from comm.bcast_binomial(root, nbytes)

    return world.run(program)
