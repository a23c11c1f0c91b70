#!/usr/bin/env python3
"""A fire drill: inject faults, crash the enclave mid-write, recover.

The provider here is not malicious, just unreliable.  One seeded
:class:`repro.faults.FaultPlan` manufactures every failure:

1. a **transient storage fault** fails an upload at its commit point —
   the enclave drops the uncommitted batch, which never touched a stored
   key, and the client's retry policy wins;
2. the enclave is **killed between two applied writes** of an upload,
   past its commit point — restart recovery re-applies the sealed redo
   record, so the file is fully present, never half-present;
3. the ROTE counter **quorum goes dark** — the server degrades to
   read-only with a typed error instead of failing outright.

    python examples/fault_drill.py
"""

from repro.core import deploy
from repro.core.enclave_app import SeGShareOptions
from repro.errors import (
    EnclaveCrashed,
    FaultError,
    RetryPolicy,
    ServiceUnavailableError,
)
from repro.faults import FaultPlan, faulty_stores
from repro.storage.stores import StoreSet

REDO_RECORDS = "\x00journal:redo:"


def redo_records(deployment) -> list[str]:
    return list(deployment.server.stores.content.scan(REDO_RECORDS))


def main() -> None:
    plan = FaultPlan(seed=11)
    deployment = deploy(
        stores=faulty_stores(StoreSet.in_memory(), plan),
        options=SeGShareOptions(rollback="whole_fs", counter_kind="rote"),
    )
    plan.attach_platform(deployment.server.platform)
    identity = deployment.user_identity("alice")
    alice = deployment.connect(identity)
    alice.upload("/handbook", b"v1: evacuate calmly")
    print("baseline uploaded: /handbook v1")

    # --- drill 1: transient storage fault, then retry ---------------------------
    plan.fail_nth(nth=1, op="put", store="content")
    try:
        alice.upload("/handbook", b"v2: use the stairs")
        raise SystemExit("UNEXPECTED: the injected fault never fired")
    except FaultError as exc:
        print(f"transient fault surfaced to the bare client: {exc}")
    if alice.download("/handbook") != b"v1: evacuate calmly":
        raise SystemExit("UNEXPECTED: failed upload left partial state")
    print("server dropped the uncommitted batch: /handbook still reads v1")

    retrying = deployment.connect(identity, retry=RetryPolicy(attempts=4, base_delay=0.05))
    plan.fail_nth(nth=1, op="put", store="content")
    retrying.upload("/handbook", b"v2: use the stairs")
    backoff = deployment.env.clock.accounts().get("client-backoff", 0.0)
    print(f"with a retry policy the same fault is invisible "
          f"(simulated backoff: {backoff:.3f}s); /handbook now v2")

    # --- drill 2: crash between applied writes, restart, recover ---------------
    # The upload's object, its redo record and two applied writes land;
    # the enclave dies before its next effect.
    plan.crash_after_effects(4)
    try:
        retrying.upload("/evacuation-map", b"stairwell B, then the lobby")
        raise SystemExit("UNEXPECTED: the scheduled crash never fired")
    except EnclaveCrashed:
        print("enclave killed mid-upload (between two applied writes)")
    if not redo_records(deployment):
        raise SystemExit("UNEXPECTED: no redo record on disk after the crash")
    print("the upload's sealed redo record is sitting in the content store")

    deployment.server.restart_enclave()
    alice = deployment.connect(identity)
    if alice.download("/evacuation-map") != b"stairwell B, then the lobby":
        raise SystemExit("UNEXPECTED: the committed upload did not survive recovery")
    if alice.download("/handbook") != b"v2: use the stairs":
        raise SystemExit("UNEXPECTED: recovery disturbed an unrelated file")
    if redo_records(deployment):
        raise SystemExit("UNEXPECTED: journal residue after recovery")
    print("restart re-applied the record: map whole, handbook intact, journal clear")

    # --- drill 3: counter quorum loss degrades to read-only ---------------------
    counter = deployment.server.platform._segshare_counter_rote
    counter.set_replica_up(0, False)
    counter.set_replica_up(1, False)
    if alice.download("/handbook") != b"v2: use the stairs":
        raise SystemExit("UNEXPECTED: reads should survive quorum loss")
    try:
        alice.upload("/handbook", b"v3")
        raise SystemExit("UNEXPECTED: write accepted without counter quorum")
    except ServiceUnavailableError as exc:
        print(f"quorum down: reads fine, writes answer: {exc}")
    counter.set_replica_up(0, True)
    counter.set_replica_up(1, True)
    alice.upload("/handbook", b"v3: all clear")
    print("quorum restored, writes resume; /handbook now v3")

    print(f"drill complete — {len(plan.events)} injected faults, all survived")


if __name__ == "__main__":
    main()
