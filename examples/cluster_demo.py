#!/usr/bin/env python3
"""A 3-replica cluster survives kill-and-rejoin with zero failed requests.

Three SeGShare enclaves on three platforms serve one shared repository
behind a cluster front door (docs/CLUSTER.md): requests route to
replicas by group affinity, a FaultPlan kills a replica *mid-request*,
past its commit point, the front door fails over — recovering the
in-flight batch through the crashed replica's redo record — and
the crashed replica later restarts from its sealed state, re-attests,
catches up on anchors, and re-enters the placement ring.

Every client request in the run returns OK.

    python examples/cluster_demo.py
"""

from repro.cluster import build_cluster
from repro.core.requests import Op, Request, Status
from repro.faults import FaultPlan, faulty_stores


def main() -> None:
    deployment = build_cluster(replicas=3)
    cluster = deployment.cluster
    print(f"cluster up: members {cluster.membership.ring.members}")

    failed = 0

    def check(response, label: str) -> None:
        nonlocal failed
        if response.status is not Status.OK:
            failed += 1
            print(f"UNEXPECTED: {label} -> {response.status.name}")

    # Seed a tree spanning several affinities, routed through the front door.
    for path in ("/eng/", "/ops/", "/hr/"):
        check(cluster.handle("u0", Request(op=Op.PUT_DIR, args=(path,))), path)
    for i, top in enumerate(("eng", "ops", "hr")):
        check(cluster.put_file("u0", f"/{top}/doc{i}", b"v1 " + top.encode()), top)
    print(f"seeded 3 directories + 3 files; routing: "
          f"{cluster.stats()['routed_by_member']}")

    # Kill whichever replica owns /eng in the middle of committing a
    # client's request: its stores and counter report their effects to the
    # plan, which lets the upload's object and redo record land and kills
    # the replica before its next effect.
    victim = cluster.membership.ring.owner("path:eng")
    plan = FaultPlan().crash_after_effects(2)
    server = deployment.server(victim)
    server.stores = faulty_stores(server.stores, plan)
    server.restart_enclave()
    plan.attach_platform(server.platform)
    print(f"armed crash on {victim} (owner of /eng) past its next commit point")

    check(cluster.put_file("u0", "/eng/doc0", b"v2 eng"), "/eng/doc0 during crash")
    plan.detach()

    stats = cluster.stats()
    print(
        f"replica {victim} died mid-commit: failovers={stats['failovers']}, "
        f"recovered-batches={stats['takeovers_recovered']}, "
        f"stamp-synthesized={stats['completed_by_takeover']}"
    )
    print(f"survivors {cluster.membership.ring.members} keep serving:")
    response = cluster.handle("u0", Request(op=Op.GET, args=("/eng/doc0",)))
    content = b"".join(response.chunks)
    print(f"  GET /eng/doc0 -> {content!r} (exactly one execution)")
    assert content == b"v2 eng"

    # The dead replica restarts from sealed state and re-joins: attest,
    # (no key transfer needed — SK_r unseals), anchor catch-up, admit.
    crashed = deployment.server(victim)
    crashed.restart_enclave()
    rejoined = cluster.admit(victim, crashed)
    print(
        f"replica {victim} restarted and re-joined: {rejoined}, "
        f"members {cluster.membership.ring.members}"
    )
    check(cluster.put_file("u0", "/eng/doc0", b"v3 eng"), "/eng/doc0 after rejoin")
    fresh = crashed.handle.call("cluster_verify_anchor")
    print(f"rejoined replica anchor verified fresh against the quorum: {fresh}")

    # The caches stayed on the whole time: each replica's coherence
    # counters show the invalidation protocol at work (docs/CLUSTER.md).
    print("per-replica coherence counters:")
    for name in cluster.membership.ring.members:
        stats = deployment.server(name).stats()
        coherence = stats.get("coherence", {})
        print(
            f"  {name}: applied_epoch={coherence.get('applied_epoch', 0)} "
            f"invalidations_applied={coherence.get('invalidations_applied', 0)} "
            f"full_discards={coherence.get('full_discards', 0)} "
            f"lag_max={coherence.get('epoch_lag_max', 0)} "
            f"cache_hits={coherence.get('cache_hits', 0)} "
            f"cache_misses={coherence.get('cache_misses', 0)}"
        )

    if failed:
        print(f"UNEXPECTED: {failed} client request(s) failed")
    else:
        print("zero failed client requests across kill, failover, and rejoin")


if __name__ == "__main__":
    main()
