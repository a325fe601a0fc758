"""Cluster assemblies.

Three drivers over one timing-free protocol core (:mod:`repro.cluster.
protocol`, :mod:`repro.cluster.node`):

* :class:`SyncDmvCluster` — an embedded, synchronous cluster: replication
  happens inline at commit, no virtual time.  This is the library's simple
  public API (quickstart) and the substrate for protocol-level tests.
* :class:`ThreadedDmvCluster` — a live deployment for threaded embedders:
  the synchronous driver under a cluster mutex, with real blocking page
  locks.
* :mod:`repro.cluster.simcluster` / :mod:`repro.cluster.simdisk` — the
  discrete-event deployments used by every benchmark: nodes have CPUs,
  caches, disks and a network; failures and recoveries take (virtual) time.
"""

from repro.cluster.sync import SyncConnection, SyncDmvCluster
from repro.cluster.threaded import ThreadedConnection, ThreadedDmvCluster

__all__ = [
    "SyncDmvCluster",
    "SyncConnection",
    "ThreadedDmvCluster",
    "ThreadedConnection",
]
