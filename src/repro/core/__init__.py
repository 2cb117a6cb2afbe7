"""Pacon: partial-consistency metadata management (the paper's contribution).

The library splits the global namespace into **consistent regions** — one
per HPC application workspace — and gives each region:

* a distributed in-memory metadata cache sharded over the application's own
  client nodes (:mod:`repro.core.cache`), strongly consistent inside the
  region via CAS,
* asynchronous commit of metadata mutations to the underlying DFS through
  per-node commit queues, with *independent* commit (+resubmission) for
  non-dependent operations and *barrier* commit for dependent ones
  (:mod:`repro.core.commit`),
* batch permission management that replaces layer-by-layer path traversal
  with a region-wide permission match (:mod:`repro.core.permissions`),
* small-file inlining, round-robin cache eviction, checkpoint-based
  failure recovery, and read-only region merging.

Entry points: :class:`repro.core.deploy.PaconDeployment` builds a deployment
on a simulated cluster; :class:`repro.core.client.PaconClient` is the
per-process handle; :class:`repro.core.deploy.PaconFS` is a synchronous
facade for library-style use.
"""

from repro.core.autoscale import Autoscaler
from repro.core.config import PaconConfig
from repro.core.permissions import PermissionSpec, RegionPermissions
from repro.core.region import ConsistentRegion, RegionManager, ReadOnlyRegion
from repro.core.cache import CacheShard, DistributedCache
from repro.core.commit import BarrierMessage, CommitProcess, OpMessage
from repro.core.client import PaconClient
from repro.core.deploy import PaconDeployment, PaconFS
from repro.core.eviction import EvictionManager
from repro.core.checkpoint import CheckpointManager

__all__ = [
    "Autoscaler",
    "BarrierMessage",
    "CacheShard",
    "CheckpointManager",
    "CommitProcess",
    "ConsistentRegion",
    "DistributedCache",
    "EvictionManager",
    "OpMessage",
    "PaconClient",
    "PaconConfig",
    "PaconDeployment",
    "PaconFS",
    "PermissionSpec",
    "ReadOnlyRegion",
    "RegionManager",
    "RegionPermissions",
]
