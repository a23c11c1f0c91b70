"""Replicated multi-enclave cluster serving one shared repository.

The paper's replication section (V-F) makes N enclaves share SK_r over
one central repository; this package turns that primitive into an
operable cluster: a front door that routes requests by group affinity
(:mod:`repro.cluster.placement`), detects replica failure via
heartbeats, fails over mid-request through the shared redo journal
(:mod:`repro.cluster.router`), and runs an attested join/evict
membership protocol (:mod:`repro.cluster.membership`).  See
docs/CLUSTER.md for the topology and the failover sequence.

:class:`ClusterDeployment` holds what the members share (one backend,
one virtual clock, one counter quorum) and stands up every member;
:func:`build_cluster` uses it to wire N members behind one front door.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
from repro.sgx import AttestationService, RoteCounterService, SgxPlatform
from repro.sgx.attestation import QuotingEnclave
from repro.sgx.costmodel import DEFAULT_COSTS
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
    """One share's cluster substrate, and the one way to stand up a member.

    Everything that must be shared is made here exactly once: the backend
    (all stores are prefixed views over it), the virtual clock, the
    attestation service, the ROTE counter quorum, the front door and —
    for a cached cluster — the coherence board.  :meth:`new_server` wires
    a new platform onto all of them; ``cluster.admit`` then runs the one
    join (attest, key transfer, catch-up, ring admission).
    """

    clock: SimClock
    ca: CertificateAuthority
    #: The options every member is built with unless told otherwise.
    options: SeGShareOptions
    #: Shared invalidation log; ``None`` for an uncached cluster.
    board: CoherenceBoard | None = None
    seed: int = 0
    servers: Dict[str, SeGShareServer] = field(default_factory=dict)
    attestation: AttestationService = field(init=False)
    backend: InMemoryStore = field(init=False)
    rote: RoteCounterService = field(init=False)
    cluster: SeGShareCluster = field(init=False)

    def __post_init__(self) -> None:
        self.attestation = AttestationService()
        self.backend = InMemoryStore()
        self.rote = RoteCounterService(self.clock, DEFAULT_COSTS)
        membership = ClusterMembership(self.attestation)
        self.cluster = SeGShareCluster(self.clock, membership, board=self.board)
        self._built = 0

    @property
    def env(self) -> NetworkEnv:
        """The first member's network environment."""
        return next(iter(self.servers.values())).env

    def server(self, name: str) -> SeGShareServer:
        return self.servers[name]

    def new_server(
        self,
        stores: StoreSet | None = None,
        *,
        options: SeGShareOptions | None = None,
        ca: CertificateAuthority | None = None,
        register: bool = True,
    ) -> SeGShareServer:
        """A server on a new platform over the shared substrate, not admitted.

        The platform gets its quoting enclave, the shared counter quorum
        and board (installed before the enclave loads, so even bootstrap
        commits count on the quorum and publish their invalidations), and
        is registered with the attestation service unless ``register`` is
        False.  ``stores`` defaults to views over the shared backend; a
        test passes them wrapped (``faulty_stores``).  ``options`` and
        ``ca`` default to the share's; another CA builds an enclave with
        another measurement.  The enclave starts keyless when another
        platform already keyed the backend, and waits for its join.
        """
        platform = SgxPlatform(clock=self.clock)
        platform.quoting_enclave = QuotingEnclave(platform)
        platform._segshare_counter_rote = self.rote
        if self.board is not None:
            platform._segshare_coherence_board = self.board
        link = Link(self.clock, AZURE_WAN, seed=self.seed * 101 + self._built)
        self._built += 1
        server = SeGShareServer(
            NetworkEnv(clock=self.clock, link=link),
            (ca or self.ca).public_key,
            stores=stores if stores is not None else StoreSet.over(self.backend),
            options=options or self.options,
            attestation_service=self.attestation,
            platform=platform,
        )
        if register:
            self.attestation.register_platform(
                platform.platform_id, platform.quoting_enclave.attestation_public_key
            )
        return server


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

    The substrate is a :class:`ClusterDeployment`: one timeline (parallel
    tracks when ``parallel=True``), one backend, one ROTE counter quorum
    (installed on every platform before its enclave loads, so
    ``cluster_verify_anchor`` checks against the same quorum the anchor
    was counted on — a mis-wired quorum fails the join instead of
    corrupting freshness), and — when ``cached`` — one coherence board.
    Member ``r0`` generates SK_r on its first start; every later member
    starts keyless and obtains it through ``admit``.  ``authz_backend``
    overrides the authorization backend on every replica (it otherwise
    passes through from ``options``); the backends keep all their state
    in the shared, journaled stores, so failover and coherence work
    identically for both.
    """
    if replicas < 1:
        raise ValueError("a cluster needs at least one replica")
    base = cluster_options(options, cached=cached)
    if authz_backend is not None:
        base = replace(base, authz_backend=authz_backend)
    deployment = ClusterDeployment(
        clock=ParallelClock() if parallel else SimClock(),
        ca=ca or CertificateAuthority(key_bits=1024),
        options=base,
        board=CoherenceBoard() if cached else None,
        seed=seed,
    )
    for i in range(replicas):
        name = f"r{i}"
        deployment.servers[name] = server = deployment.new_server()
        deployment.cluster.admit(name, server)
    return deployment
