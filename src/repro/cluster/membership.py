"""Autonomous cluster membership: attested join, catch-up, eviction.

The membership protocol keeps the replica set self-managing, in the
spirit of autonomous-membership TEE designs: any *current* member
holding SK_r can act as the donor for a joining enclave, so the cluster
survives the loss of the original root enclave and keeps admitting
replacements.  A join runs four steps, all of which must succeed before
the candidate enters the placement ring:

1. **attest** — a quote over the candidate enclave is verified against
   the measurement of a serving member (they are equal by construction:
   every enclave is compiled for the same CA).  Failure is a typed
   :class:`~repro.errors.MembershipError`, raised before any key
   material moves.
2. **transfer** — if the candidate has no root key yet, the Section V-F
   join protocol runs against the donor.  A restarted replica recovers
   SK_r from its sealed blob instead and skips this step.
3. **catch-up** — the candidate proves the file-system anchor fresh
   against the counter quorum (``cluster_verify_anchor``), with the
   degraded-read escape hatch disabled: a replica wired to a wrong or
   empty quorum is rejected here instead of serving stale state later.
4. **admit** — the name enters the :class:`PlacementRing`; rendezvous
   hashing moves only the new member's share of the affinity space.

Eviction is the inverse: the name leaves the ring and its affinity keys
fall to the survivors.  All of this is untrusted front-door machinery —
it shuttles quotes and wrapped keys, never plaintext secrets.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.placement import PlacementRing
from repro.core.replication import transfer_root_key, verify_replica_attestation
from repro.core.server import SeGShareServer
from repro.errors import MembershipError, RetryPolicy
from repro.sgx import AttestationService


class ClusterMembership:
    """The live member set and its join/evict protocol."""

    def __init__(
        self,
        attestation_service: AttestationService,
        ring: PlacementRing | None = None,
    ) -> None:
        self.attestation = attestation_service
        self.ring = ring if ring is not None else PlacementRing()
        self.members: Dict[str, SeGShareServer] = {}
        #: Bumped on every join and eviction; front doors compare epochs
        #: to notice membership changes made by their peers.
        self.epoch = 0

    def donor(self, exclude: SeGShareServer | None = None) -> Optional[SeGShareServer]:
        """A serving member able to share SK_r (deterministic pick)."""
        for name in sorted(self.members):
            server = self.members[name]
            if server is not exclude and server.enclave.alive and server.enclave.ready:
                return server
        return None

    def join(
        self,
        name: str,
        server: SeGShareServer,
        retry: RetryPolicy | None = None,
        retry_seed: int = 0,
    ) -> bool:
        """Run the join protocol for ``server``; True if newly admitted.

        Idempotent: re-joining a current member is a no-op returning
        False.  Reusing a member name for a *different* server is an
        error — eviction must come first.
        """
        if name in self.members:
            if self.members[name] is not server:
                raise MembershipError(
                    f"member name {name!r} is already taken by another server"
                )
            return False
        donor = self.donor(exclude=server)
        if donor is None and not server.enclave.ready:
            raise MembershipError(
                "no serving member can donate SK_r and the candidate has no "
                "sealed root key: the first member must hold the root key"
            )
        expected = (donor or server).enclave.measurement()
        verify_replica_attestation(self.attestation, server, expected)
        if not server.enclave.ready:
            assert donor is not None
            transfer_root_key(donor, server, retry=retry, retry_seed=retry_seed)
        # The candidate now reads the shared repository for the first
        # time; a crash in the middle leaves it un-admitted and the join
        # retryable after restart (the sealed key already persisted).
        server.handle.call("cluster_verify_anchor")
        self.members[name] = server
        self.ring.add(name)
        self.epoch += 1
        return True

    def evict(self, name: str) -> Optional[SeGShareServer]:
        """Remove ``name``; its affinity keys rebalance to the survivors."""
        server = self.members.pop(name, None)
        if server is None:
            return None
        self.ring.remove(name)
        self.epoch += 1
        return server
