#!/usr/bin/env python3
"""A fire drill: inject faults, crash the enclave mid-write, recover.

The provider here is not malicious, just unreliable.  One seeded
:class:`repro.faults.FaultPlan` manufactures every failure:

1. a **transient storage fault** fails an upload — the enclave rolls the
   half-done batch back and the client's retry policy wins;
2. the enclave is **killed between two journal writes** of an upload —
   restart recovery restores the pre-crash state exactly (the file is
   fully absent, not half-present), and re-issuing the request finishes
   the job;
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

JOURNAL_MARKER = "\x00journal:batch"


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
    print("server rolled the batch back: /handbook still reads v1")

    retrying = deployment.connect(identity, retry=RetryPolicy(attempts=4, base_delay=0.05))
    plan.fail_nth(nth=1, op="put", store="content")
    retrying.upload("/handbook", b"v2: use the stairs")
    backoff = deployment.env.clock.accounts().get("client-backoff", 0.0)
    print(f"with a retry policy the same fault is invisible "
          f"(simulated backoff: {backoff:.3f}s); /handbook now v2")

    # --- drill 2: crash between journal writes, restart, recover ----------------
    plan.crash_at_point(nth=5, site_prefix="journal:")
    try:
        retrying.upload("/evacuation-map", b"stairwell B, then the lobby")
        raise SystemExit("UNEXPECTED: the scheduled crash never fired")
    except EnclaveCrashed:
        print("enclave killed mid-upload (after journal step 5)")
    if not deployment.server.stores.content.exists(JOURNAL_MARKER):
        raise SystemExit("UNEXPECTED: no undo journal on disk after the crash")
    print("uncommitted undo journal is sitting in the content store")

    deployment.server.restart_enclave()
    alice = deployment.connect(identity)
    if alice.exists("/evacuation-map"):
        raise SystemExit("UNEXPECTED: half-written file survived recovery")
    if alice.download("/handbook") != b"v2: use the stairs":
        raise SystemExit("UNEXPECTED: recovery disturbed an unrelated file")
    if deployment.server.stores.content.exists(JOURNAL_MARKER):
        raise SystemExit("UNEXPECTED: journal residue after recovery")
    print("restart rolled the batch back: map absent, handbook intact, journal clear")
    alice.upload("/evacuation-map", b"stairwell B, then the lobby")
    print("re-issued upload completed:", alice.download("/evacuation-map").decode())

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
