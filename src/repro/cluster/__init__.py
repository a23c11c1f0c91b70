"""Replicated multi-enclave cluster serving one shared repository.

The paper's replication section (V-F) makes N enclaves share SK_r over
one central repository; this package turns that primitive into an
operable cluster: a front door that routes requests by group affinity
(:mod:`repro.cluster.placement`), detects replica failure via
heartbeats, fails over mid-request through the shared redo journal
(:mod:`repro.cluster.router`), and runs an attested join/evict
membership protocol (:mod:`repro.cluster.membership`).  See
docs/CLUSTER.md for the topology and the failover sequence.

:func:`build_cluster` wires the whole thing: one shared backend, one
virtual clock, one counter quorum, N platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.cluster.driver import ClusterDriver
from repro.cluster.membership import ClusterMembership
from repro.cluster.placement import PlacementRing, path_affinity, request_affinity
from repro.cluster.router import SeGShareCluster
from repro.core.enclave_app import SeGShareOptions
from repro.core.server import SeGShareServer
from repro.netsim import CoherenceBoard, Link, NetworkEnv, ParallelClock, SimClock
from repro.netsim.network import AZURE_WAN
from repro.pki import CertificateAuthority
from repro.sgx import AttestationService, SgxPlatform
from repro.sgx.attestation import QuotingEnclave
from repro.storage.backends import InMemoryStore
from repro.storage.stores import StoreSet

__all__ = [
    "ClusterDeployment",
    "ClusterDriver",
    "ClusterMembership",
    "PlacementRing",
    "SeGShareCluster",
    "build_cluster",
    "cluster_options",
    "path_affinity",
    "request_affinity",
]


#: Default metadata cache size for cached cluster replicas; matches the
#: single-enclave default used across the perf suites.
_DEFAULT_CLUSTER_CACHE_BYTES = 512 * 1024


def cluster_options(
    base: SeGShareOptions | None = None, cached: bool = True
) -> SeGShareOptions:
    """Force the invariants replicated serving depends on.

    * ``rollback="whole_fs"`` + ``counter_kind="rote"`` — failover
      finishes a crashed member's commits through its redo record (every
      enclave runs one) and verifies freshness against the shared quorum.
    * ``metadata_cache_bytes`` and ``enable_dedup`` stay **on** (the
      ``cached`` default): replicas mutate the repository behind each
      other's backs, but the coherence log (:mod:`repro.core.coherence`)
      publishes every commit's touched-key set, and every cache serve
      epoch-checks against it first — see docs/CLUSTER.md §coherence.
      ``cached=False`` reproduces the old always-reverify posture, which
      is also the fallback any replica degrades to on a torn or
      Byzantine log.
    * ``quota_bytes`` passes through from ``base``: a quota refusal now
      *aborts* its transaction (``QuotaExceeded``), so the stamp's
      "committed iff OK" failover contract holds on that path too.

    Nothing marks the store as shared: every member's redo records,
    record parts and objects carry its own platform id, so a member's
    restart recovers only itself and a takeover only the crashed member,
    by the same routine (docs/FAULTS.md).
    """
    base = base or SeGShareOptions(rollback_buckets=8)
    cache_bytes = (
        base.metadata_cache_bytes
        if base.metadata_cache_bytes is not None
        else _DEFAULT_CLUSTER_CACHE_BYTES
    )
    return replace(
        base,
        rollback="whole_fs",
        counter_kind="rote",
        metadata_cache_bytes=cache_bytes if cached else None,
        enable_dedup=cached,
    )


@dataclass
class ClusterDeployment:
    """A wired cluster: front door, named servers, shared substrate."""

    cluster: SeGShareCluster
    servers: Dict[str, SeGShareServer]
    backend: InMemoryStore
    env: NetworkEnv
    ca: CertificateAuthority
    attestation: AttestationService
    #: Shared invalidation log; ``None`` for an uncached cluster.
    board: CoherenceBoard | None = None

    def server(self, name: str) -> SeGShareServer:
        return self.servers[name]


def build_cluster(
    replicas: int = 3,
    parallel: bool = False,
    options: SeGShareOptions | None = None,
    ca: CertificateAuthority | None = None,
    seed: int = 0,
    cached: bool = True,
    authz_backend: str | None = None,
) -> ClusterDeployment:
    """Stand up ``replicas`` SeGShare servers behind one front door.

    Everything that must be shared is shared exactly once: the backend
    (all stores are prefixed views over it), the virtual clock (one
    timeline, parallel tracks when ``parallel=True``), the ROTE
    counter quorum (the root's service is installed on every platform
    *before* its join, so ``cluster_verify_anchor`` checks against the
    same quorum the anchor was counted on — a mis-wired quorum fails
    the join instead of corrupting freshness), and — when ``cached`` —
    one coherence board, installed on every platform before server
    construction so even bootstrap commits publish their invalidations.
    ``authz_backend`` overrides the authorization backend on every
    replica (it otherwise passes through from ``options``); the backends
    keep all their state in the shared, journaled stores, so failover
    and coherence work identically for both.
    """
    if replicas < 1:
        raise ValueError("a cluster needs at least one replica")
    base = cluster_options(options, cached=cached)
    if authz_backend is not None:
        base = replace(base, authz_backend=authz_backend)
    ca = ca or CertificateAuthority(key_bits=1024)
    service = AttestationService()
    backend = InMemoryStore()
    clock: SimClock = ParallelClock() if parallel else SimClock()
    board = CoherenceBoard() if cached else None
    cluster = SeGShareCluster(clock, ClusterMembership(service), board=board)
    servers: Dict[str, SeGShareServer] = {}
    rote = None
    for i in range(replicas):
        name = f"r{i}"
        platform = SgxPlatform(clock=clock)
        platform.quoting_enclave = QuotingEnclave(platform)
        if board is not None:
            platform._segshare_coherence_board = board
        if i > 0:
            platform._segshare_counter_rote = rote
        env = NetworkEnv(clock=clock, link=Link(clock, AZURE_WAN, seed=seed * 101 + i))
        server = SeGShareServer(
            env,
            ca.public_key,
            stores=StoreSet.over(backend),
            options=replace(base, replica=(i > 0)),
            attestation_service=service,
            platform=platform,
        )
        if i == 0:
            # Created lazily while the root built its guards; every later
            # platform gets the same service installed above.
            rote = platform._segshare_counter_rote
        service.register_platform(
            platform.platform_id, platform.quoting_enclave.attestation_public_key
        )
        servers[name] = server
        cluster.admit(name, server)
    return ClusterDeployment(
        cluster=cluster,
        servers=servers,
        backend=backend,
        env=servers["r0"].env,
        ca=ca,
        attestation=service,
        board=board,
    )
