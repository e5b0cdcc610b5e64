"""``repro.serve`` — the estimation service.

The paper's workflow is "measure once, decide often": a campaign costs
hours of cluster time, every subsequent estimate is milliseconds.  This
package turns a directory of saved pipelines into a long-lived service
many schedulers/clients can share:

* :mod:`repro.serve.registry` — named, fingerprinted pipeline entries
  with hot reload (re-save a directory, the entry swaps atomically);
* :mod:`repro.serve.batcher` — async micro-batching of concurrent
  requests into the vectorized :class:`~repro.core.estimator.Estimator`
  paths, with bounded-queue admission control and typed load shedding;
* :mod:`repro.serve.server` — the asyncio JSON-lines frontend with
  graceful drain-on-shutdown;
* :mod:`repro.serve.protocol` — the wire format and typed errors;
* :mod:`repro.serve.metrics` — per-endpoint latency histograms, batch
  size distribution, cache hit rates;
* :mod:`repro.serve.client` — a blocking client (``repro client``) and
  an asyncio load generator for benches and smoke tests;
* :mod:`repro.serve.shared` — the fleet-wide stats block
  (``multiprocessing.shared_memory``);
* :mod:`repro.serve.fleet` — the multi-process serving fleet: N
  replicas sharding one port (``SO_REUSEPORT`` or a front-router),
  each built from the artifact bytes the supervisor validated,
  two-phase promotion fan-out, crash respawn.

Run it: ``repro serve --dir name=path/to/saved-pipeline`` (add
``--workers N`` for a fleet).
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.client import ServeClient, ServeReplyError, fire_concurrent, fire_timed
from repro.serve.fleet import FleetConfig, FleetSupervisor, reuse_port_supported
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import Overloaded, ProtocolError, Request, parse_request
from repro.serve.registry import ModelRegistry, RegistryEntry, UnknownPipeline
from repro.serve.server import EstimationServer
from repro.serve.shared import FleetStatsBlock

__all__ = [
    "EstimationServer",
    "FleetConfig",
    "FleetStatsBlock",
    "FleetSupervisor",
    "MicroBatcher",
    "ModelRegistry",
    "Overloaded",
    "ProtocolError",
    "RegistryEntry",
    "Request",
    "ServeClient",
    "ServeMetrics",
    "ServeReplyError",
    "UnknownPipeline",
    "fire_concurrent",
    "fire_timed",
    "parse_request",
    "reuse_port_supported",
]
