"""Autonomous cluster membership: the one join, and eviction.

Section V-F replication is a single protocol: an enclave without SK_r
obtains it from a serving enclave with the same measurement over a
mutually attested channel.  This module runs it, and it is the only code
that does.  Membership is a service over that join, in the spirit of
autonomous-membership TEE designs: any *current* member holding SK_r can
act as the donor for a joining enclave, so the cluster survives the loss
of the original root enclave and keeps admitting replacements.  A join
runs four steps, all of which must succeed before the candidate enters
the placement ring:

1. **attest** — a quote over the candidate enclave is verified against
   the measurement of a serving member (they are equal by construction:
   every enclave is compiled for the same CA).  Failure is a typed
   :class:`~repro.errors.MembershipError`, raised before any key
   material moves.
2. **transfer** — if the candidate has no root key yet, the three-ECALL
   key exchange runs against the donor.  A restarted replica recovers
   SK_r from its sealed blob instead and skips this step.
3. **catch-up** — when the share has a file-system anchor, the candidate
   proves it against the stored roots (``cluster_verify_anchor``); under
   whole-FS protection also fresh against the counter quorum, with the
   degraded-read escape hatch disabled, so a replica wired to a wrong or
   empty quorum is rejected here instead of serving stale state later.
4. **admit** — the name enters the :class:`PlacementRing`; rendezvous
   hashing moves only the new member's share of the affinity space.

Eviction is the inverse: the name leaves the ring and its affinity keys
fall to the survivors.  All of this is untrusted front-door machinery —
it shuttles quotes, DH publics and the PAE-wrapped key between the
enclaves' ECALLs, and can never read SK_r.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, Optional

from repro.cluster.placement import PlacementRing
from repro.core.server import SeGShareServer
from repro.errors import (
    EnclaveError,
    MembershipError,
    NetworkError,
    RetryPolicy,
    StorageError,
)
from repro.netsim.clock import SimClock
from repro.sgx import AttestationService

#: Report data of a membership pre-admission quote (no DH value to bind).
_MEMBERSHIP_REPORT = hashlib.sha256(b"segshare-membership\x00").digest()


def _with_retry(
    step: Callable[[], object],
    retry: RetryPolicy | None,
    rng: random.Random,
    clock: SimClock,
) -> object:
    """Run one key-exchange step, retrying transient faults.

    Each ECALL of the exchange is individually idempotent until the
    final ``replication_complete_join`` commits (it clears the pending
    join state only after the sealed key is persisted), so re-running a
    failed step is always safe.
    """
    attempt = 1
    while True:
        try:
            return step()
        except (StorageError, NetworkError):
            if retry is None or attempt >= retry.attempts:
                raise
            delay = retry.delay(attempt, rng)
            clock.charge(delay, account="replication-backoff")
            attempt += 1


def transfer_root_key(
    donor: SeGShareServer,
    candidate: SeGShareServer,
    retry: RetryPolicy | None = None,
    retry_seed: int = 0,
) -> None:
    """The §V-F key exchange: ``candidate`` obtains SK_r from ``donor``.

    Either side's enclave refuses a quote that fails verification or
    carries another measurement.  With ``retry``, transient storage or
    network faults in any step are retried with capped, seeded backoff.
    """
    rng = random.Random(retry_seed)
    clock = candidate.env.clock
    candidate_quote, candidate_pub = _with_retry(
        lambda: candidate.handle.call("replication_begin_join"), retry, rng, clock
    )
    donor_quote, donor_pub, wrapped = _with_retry(
        lambda: donor.handle.call(
            "replication_share_root_key", candidate_quote, candidate_pub
        ),
        retry,
        rng,
        clock,
    )
    _with_retry(
        lambda: candidate.handle.call(
            "replication_complete_join", donor_quote, donor_pub, wrapped
        ),
        retry,
        rng,
        clock,
    )


def verify_replica_attestation(
    service: AttestationService,
    candidate: SeGShareServer,
    expected_measurement: bytes,
) -> None:
    """Attest ``candidate`` against the membership measurement, or raise.

    A quote is taken over the candidate enclave and verified *before* the
    key exchange runs, so a candidate that would fail attestation is
    rejected with a typed :class:`MembershipError` instead of failing
    (and possibly leaving a half-open pending join) deep inside the
    key-transfer ECALLs.
    """
    qe = getattr(candidate.platform, "quoting_enclave", None)
    if qe is None:
        raise MembershipError("candidate platform has no quoting enclave")
    try:
        quote = qe.quote(candidate.enclave, report_data=_MEMBERSHIP_REPORT)
        service.verify(quote, expected_measurement=expected_measurement)
    except EnclaveError as exc:
        raise MembershipError(f"replica failed admission attestation: {exc}") from exc


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
        """Run attest → transfer → catch-up → admit; True if newly admitted.

        Idempotent: re-joining a current member under its own name is a
        no-op returning False.  Reusing a member name for a *different*
        server, or a member's server under a second name, is an error —
        eviction must come first.
        """
        current = self.members.get(name)
        if current is server:
            return False
        if current is not None:
            raise MembershipError(f"member name {name!r} is already taken by another server")
        for member_name, member in self.members.items():
            if member is server:
                raise MembershipError(f"this server is already a member as {member_name!r}")
        donor = self.donor()
        if donor is None and not server.enclave.ready:
            raise MembershipError(
                "no serving member can donate SK_r and the candidate has no "
                "sealed root key: the first member must hold the root key"
            )
        expected = (donor or server).enclave.measurement()
        verify_replica_attestation(self.attestation, server, expected)
        if not server.enclave.ready:
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
