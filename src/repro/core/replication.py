"""SeGShare replication (paper Section V-F).

Multiple enclaves — possibly on different platforms — serve the same
share from one central data repository.  Two things make that work:

1. every enclave's untrusted file manager points at the shared backend
   (``StoreSet.over(shared_backend)``), and
2. every enclave holds the same root key SK_r, transferred from a *root
   enclave* (one that already has it) over a mutually attested channel in
   which both sides require the **same measurement** — possible because
   the CA's public key is hard-coded and thus part of the measurement.

The orchestration below is pure untrusted plumbing: it shuttles quotes,
DH publics, and the PAE-wrapped key between the enclaves' ECALLs; it can
never read SK_r.

Replication is also the disaster-recovery story: with at least one root
enclave alive, SK_r survives the loss of any single platform (whose
sealed blob would otherwise be the only copy).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable

from repro.core.server import SeGShareServer
from repro.errors import (
    EnclaveError,
    MembershipError,
    NetworkError,
    ReplicationError,
    RetryPolicy,
    StorageError,
)
from repro.netsim.clock import SimClock
from repro.sgx import AttestationService


def _with_retry(
    step: Callable[[], object],
    retry: RetryPolicy | None,
    rng: random.Random,
    clock: SimClock,
) -> object:
    """Run one join-protocol step, retrying transient faults.

    Each ECALL of the protocol is individually idempotent until the
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
    root: SeGShareServer,
    replica: SeGShareServer,
    retry: RetryPolicy | None = None,
    retry_seed: int = 0,
) -> None:
    """Run the join protocol: ``replica`` obtains SK_r from ``root``.

    Raises :class:`ReplicationError` (or an attestation error from inside
    the enclaves) if either side's quote fails verification or the
    measurements differ.  With ``retry``, transient storage or network
    faults in any step are retried with capped, seeded backoff.
    """
    if root.enclave is replica.enclave:
        raise ReplicationError("cannot replicate an enclave with itself")
    rng = random.Random(retry_seed)
    clock = replica.env.clock
    replica_quote, replica_pub = _with_retry(
        lambda: replica.handle.call("replication_begin_join"), retry, rng, clock
    )
    root_quote, root_pub, wrapped = _with_retry(
        lambda: root.handle.call(
            "replication_share_root_key", replica_quote, replica_pub
        ),
        retry,
        rng,
        clock,
    )
    _with_retry(
        lambda: replica.handle.call(
            "replication_complete_join", root_quote, root_pub, wrapped
        ),
        retry,
        rng,
        clock,
    )
    # The replica will now mutate the shared repository with writes the
    # root enclave never sees, so the root's enclave-resident metadata
    # cache can go stale: drop it.  (Steady-state serving keeps caches
    # coherent through the sealed invalidation log — docs/CLUSTER.md §5
    # — but this join-time transfer predates the candidate's board
    # wiring, so the strict discard stays.)
    root.handle.call("invalidate_metadata_cache")


#: Report data of a membership pre-admission quote (no DH value to bind).
_MEMBERSHIP_REPORT = hashlib.sha256(b"segshare-membership\x00").digest()


def verify_replica_attestation(
    service: AttestationService | None,
    replica: SeGShareServer,
    expected_measurement: bytes,
) -> None:
    """Attest ``replica`` against the membership measurement, or raise.

    The membership layer's gate: a quote is taken over the candidate
    enclave and verified *before* the join protocol runs, so a replica
    that would fail attestation is rejected with a typed
    :class:`MembershipError` instead of failing (and possibly leaving a
    half-open pending join) deep inside the key-transfer ECALLs.
    """
    if service is None:
        raise MembershipError("no attestation service configured for admission")
    qe = getattr(replica.platform, "quoting_enclave", None)
    if qe is None:
        raise MembershipError("candidate platform has no quoting enclave")
    try:
        quote = qe.quote(replica.enclave, report_data=_MEMBERSHIP_REPORT)
        service.verify(quote, expected_measurement=expected_measurement)
    except EnclaveError as exc:
        raise MembershipError(f"replica failed admission attestation: {exc}") from exc


class ReplicaSet:
    """A root server plus joined replicas over one shared repository.

    Lock management and storage replication are out of the paper's scope
    (and this class's): all replicas here serve the same backend, and the
    synchronous simulation serializes their operations.  (The cluster
    front door in :mod:`repro.cluster` builds failover and routing on
    top of this layer.)
    """

    def __init__(
        self,
        root: SeGShareServer,
        attestation_service: AttestationService | None = None,
    ) -> None:
        self.root = root
        self.replicas: list[SeGShareServer] = []
        #: Service used to pre-attest candidates; falls back to the root
        #: enclave's own service when not given explicitly.
        self.attestation_service = (
            attestation_service
            if attestation_service is not None
            else root.enclave._attestation_service
        )

    def join(
        self,
        replica: SeGShareServer,
        retry: RetryPolicy | None = None,
        retry_seed: int = 0,
    ) -> bool:
        """Admit ``replica``: attest it, transfer SK_r, record membership.

        Idempotent — re-joining a current member is a no-op returning
        False.  A candidate failing attestation is rejected with
        :class:`MembershipError` before any protocol state is created.
        """
        if replica is self.root or replica.enclave is self.root.enclave:
            raise MembershipError("the root enclave cannot join itself")
        if replica in self.replicas:
            return False
        verify_replica_attestation(
            self.attestation_service, replica, self.root.enclave.measurement()
        )
        if not replica.enclave.ready:
            transfer_root_key(self.root, replica, retry=retry, retry_seed=retry_seed)
        self.replicas.append(replica)
        return True

    @property
    def all_servers(self) -> list[SeGShareServer]:
        return [self.root, *self.replicas]
