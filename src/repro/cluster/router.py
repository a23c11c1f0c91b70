"""The cluster front door: affinity routing and mid-request failover.

``SeGShareCluster`` stands in front of N :class:`SeGShareServer`
replicas serving one shared repository.  Each request is routed to the
replica owning its affinity (see :mod:`repro.cluster.placement`) and
executed through that replica's switchless worker pool — the same
driver model the concurrency benchmarks use, with TLS-into-enclave
fronting unchanged for real clients.

Failover is exactly-once.  Before every routed request the front door
arms the target enclave with a request token (``cluster_begin_request``);
the storage engine commits the PAE-sealed token atomically with the
request's redo record.  When a replica dies mid-request:

1. the heartbeat monitor confirms the failure (charging the detection
   timeout to the virtual clock),
2. the dead member is evicted from the placement ring,
3. a successor runs ``cluster_takeover_recover`` — it re-applies the
   crashed peer's last committed redo record from the shared store
   (an uncommitted member left nothing there to undo), and
4. the successor reads the last *committed* stamp: if it equals the
   in-flight token the request took effect and an OK response is
   synthesized; otherwise the request never committed and is
   transparently re-routed and re-executed on the survivors.

Either way the client sees exactly one execution.  The front door is
untrusted: it never holds keys, and misrouting or spurious eviction
costs availability, never integrity (any replica can serve any request,
and the guards catch stale state).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict

from repro.cluster.membership import ClusterMembership
from repro.cluster.placement import path_affinity, request_affinity
from repro.core.requests import Request, Response
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed, MembershipError, RetryPolicy
from repro.netsim import HeartbeatMonitor
from repro.netsim.clock import SimClock, TrackClock
from repro.tls.channel import StreamingResponse

if TYPE_CHECKING:
    from repro.netsim.coherence import CoherenceBoard


class SeGShareCluster:
    """Group-affinity router with replica failover over one repository."""

    def __init__(
        self,
        clock: SimClock,
        membership: ClusterMembership,
        board: "CoherenceBoard | None" = None,
    ) -> None:
        self._clock = clock
        self.membership = membership
        #: Shared invalidation log of a cached cluster (``None`` when
        #: replicas run uncached).  The front door never reads entries —
        #: they are sealed — but it gates admission on the candidate
        #: sharing the same board and counts the takeover resets it
        #: triggers.
        self.coherence_board = board
        self.heartbeats = HeartbeatMonitor(clock)
        self._seq = 0
        #: The worker track that served the most recent routed request,
        #: ``None`` when a failover synthesised its response: closed-loop
        #: drivers take the op's completion time and accounts from it.
        self.last_track: TrackClock | None = None
        #: Member that served the previous request.  A group-commit epoch
        #: keeps guard batches over the shared tree in one replica's memory
        #: between transactions, so the front door must quiesce a replica
        #: before handing traffic — or membership duties — to another.
        self._last_routed: str | None = None
        # Routing/failover counters, merged into SeGShareServer.stats().
        self.requests_routed = 0
        self.routed_by_member: Dict[str, int] = {}
        self.joins = 0
        self.evictions = 0
        self.failovers = 0
        self.takeovers_recovered = 0
        self.completed_by_takeover = 0
        self.coherence_resets = 0

    # -- membership ----------------------------------------------------------

    def admit(
        self,
        name: str,
        server: SeGShareServer,
        retry: RetryPolicy | None = None,
        retry_seed: int = 0,
    ) -> bool:
        """Join ``server`` (idempotent) and start monitoring it.

        Cache coherence is decided here, once: members write the shared
        repository behind each other's backs, so a cached member is
        admitted only where every member publishes to and syncs against
        one invalidation log.  Joining members start cold: their manager
        initializes at the board's current epoch with empty caches.
        """
        if self.coherence_board is not None:
            # Checked on the platform, not the engine — a joining replica
            # builds its components only after the key transfer, from
            # exactly this attribute.
            installed = getattr(
                server.enclave.platform, "_segshare_coherence_board", None
            )
            if installed is not self.coherence_board:
                raise MembershipError(
                    f"candidate {name!r} does not share the cluster's coherence log"
                )
        elif server.options.metadata_cache_bytes is not None:
            raise MembershipError(
                f"candidate {name!r} caches metadata but the cluster has no "
                "coherence log to keep it fresh"
            )
        # Join catch-up verifies the *stored* anchors; flush any member's
        # open commit epoch first so they are current.
        for member in self.membership.members.values():
            self._quiesce(member)
        joined = self.membership.join(name, server, retry=retry, retry_seed=retry_seed)
        if joined:
            self.heartbeats.register(name, lambda s=server: s.enclave.alive)
            server.cluster = self
            self.joins += 1
        return joined

    def evict(self, name: str) -> None:
        """Administratively remove a member (its groups rebalance)."""
        server = self.membership.evict(name)
        if server is not None:
            self._quiesce(server)
            self.heartbeats.unregister(name)
            server.cluster = None
            self.evictions += 1
            if self._last_routed == name:
                self._last_routed = None

    def quiesce(self) -> None:
        """Flush every live member's open commit epoch (bench boundaries).

        A member dying mid-flush is a failover like any other: its
        crashed epoch is finished through a surviving member, which
        re-applies its record so the committed members stand.
        """
        for name, server in list(self.membership.members.items()):
            if not self._quiesce(server):
                self._recover_crashed(name)

    @staticmethod
    def _epoch_open(server: SeGShareServer) -> bool:
        """Whether ``server`` holds an open commit epoch, or a close in flight.

        Whether the journal has an epoch open is mirrored into untrusted
        shared memory (like the switchless signal words), so the front
        door can check without an enclave transition and pay the quiesce
        ECALL only when there is actually an epoch to close.  The mirror
        survives an enclave crash, so a member that died mid-epoch still
        reads as open and gets recovered on the next routing switch.
        """
        engine = server.enclave.engine
        return engine is not None and (engine.journal.epoch or engine.journal.closing) is not None

    @staticmethod
    def _quiesce(server: SeGShareServer) -> bool:
        """Flush one member's open epoch; False if the member is dead
        (its open epoch then needs takeover)."""
        try:
            server.handle.call("group_commit_quiesce")
            return True
        except EnclaveCrashed:
            return False

    # -- request routing -----------------------------------------------------

    def handle(
        self, user_id: str, request: Request, arrival: float | None = None
    ) -> Any:
        """Route one request by its affinity; fails over transparently."""
        affinity = request_affinity(user_id, request)

        def apply(server: SeGShareServer) -> Any:
            response = server.enclave.handler.handle(user_id, request)
            if isinstance(response, StreamingResponse):
                # Read to its end on the worker's track, as the TLS path's
                # ``_respond`` reads a download inside the ECALL: the stored
                # chunks are the serving replica's work, not the shared
                # clock's.  Exhausting the reader closes it.
                response.chunks = list(response.chunks)
            return response

        return self._route(affinity, apply, label=request.op.name, arrival=arrival)

    def put_file(
        self, user_id: str, path: str, content: bytes, arrival: float | None = None
    ) -> Response:
        """Route a streaming upload by the path's affinity."""
        return self._route(
            path_affinity(path),
            lambda server: server.enclave.handler.put_file(user_id, path, content),
            label="PUT_FILE",
            arrival=arrival,
        )

    def _route(
        self,
        affinity: str,
        apply: Callable[[SeGShareServer], Any],
        label: str,
        arrival: float | None = None,
    ) -> Any:
        token = f"req:{self._seq:08d}"
        self._seq += 1
        attempts = 0
        while True:
            name = self.membership.ring.owner(affinity)
            server = self.membership.members[name]
            if self._last_routed != name:
                # An open epoch holds guard batches over the shared tree in
                # its replica's memory, so at most one replica may hold one.
                # Quiesce everyone else — not just the previously routed
                # member, since direct handler access (tests, priming) can
                # leave an epoch open the router never saw.  A member dying
                # mid-quiesce leaves its committed record on the shared store:
                # recover it through a successor before anyone opens over it.
                crashed_mid_quiesce = False
                for other, member in list(self.membership.members.items()):
                    if other == name or not self._epoch_open(member):
                        continue
                    if not self._quiesce(member):
                        self._recover_crashed(other)
                        crashed_mid_quiesce = True
                if crashed_mid_quiesce:
                    continue  # membership changed; re-resolve the owner
            self._last_routed = name
            self.requests_routed += 1
            self.routed_by_member[name] = self.routed_by_member.get(name, 0) + 1
            # Re-executions arrive *after* failover detection, never at
            # the original arrival time.
            when = arrival if (arrival is not None and attempts == 0) else self._clock.now()

            def run(target: SeGShareServer = server) -> Any:
                target.handle.call("cluster_begin_request", token)
                return apply(target)

            try:
                response = server.switchless.dispatch(
                    run, arrival=when, label=f"{label}@{name}"
                )
            except EnclaveCrashed:
                attempts += 1
                if attempts > len(self.membership.members) + 1:
                    raise
                synthesized = self._failover(name, token)
                if synthesized is not None:
                    self.last_track = None
                    return synthesized
                continue
            self.last_track = server.switchless.last_track
            return response

    def _recover_crashed(self, crashed: str) -> SeGShareServer:
        """Confirm ``crashed`` is dead, evict it, and have a surviving
        member finish its committed redo record.  Returns the
        successor that ran the recovery."""
        self.heartbeats.poll()
        self.heartbeats.confirm_failure(crashed)
        self.heartbeats.unregister(crashed)
        server = self.membership.evict(crashed)
        if server is not None:
            server.cluster = None
        writer = server.platform.platform_id if server is not None else crashed
        self.failovers += 1
        self.evictions += 1
        if self._last_routed == crashed:
            self._last_routed = None
        successor = self.membership.donor()
        if successor is None:
            raise MembershipError(
                f"replica {crashed!r} failed and no serving member survives"
            )
        if successor.handle.call("cluster_takeover_recover", writer):
            self.takeovers_recovered += 1
        if self.coherence_board is not None:
            # Takeover published an authenticated reset superseding the
            # crashed member's published-but-uncommitted tail.
            self.coherence_resets += 1
        return successor

    def _failover(self, crashed: str, token: str) -> Response | None:
        """Evict ``crashed``, finish its commits, decide re-execution.

        Returns a synthesized OK response when the stamp proves the
        in-flight request committed before the crash (the original
        response text died with the enclave; the stamp proves only the
        *commit*), or ``None`` when the request never committed and the caller
        must re-route.
        """
        successor = self._recover_crashed(crashed)
        committed = successor.handle.call("cluster_last_committed_stamp")
        if committed == token:
            self.completed_by_takeover += 1
            return Response.ok("request committed before replica failure (failover)")
        return None

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "members": self.membership.ring.members,
            "epoch": self.membership.epoch,
            "requests_routed": self.requests_routed,
            "routed_by_member": dict(sorted(self.routed_by_member.items())),
            "joins": self.joins,
            "evictions": self.evictions,
            "failovers": self.failovers,
            "takeovers_recovered": self.takeovers_recovered,
            "completed_by_takeover": self.completed_by_takeover,
            "heartbeat": self.heartbeats.stats.snapshot(),
            **(
                {
                    "coherence_resets": self.coherence_resets,
                    "coherence_log": self.coherence_board.snapshot(),
                }
                if self.coherence_board is not None
                else {}
            ),
        }
