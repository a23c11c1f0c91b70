#!/usr/bin/env python3
"""The metadata cache at work: watch the enclave stop re-reading the world.

Two identical servers handle the same little office workload — one with
the enclave-resident metadata cache, one without it (every request
re-fetches, re-decrypts, and re-verifies every ACL, member list, and
guard node).  Both flush their rollback-guard nodes once per journaled
batch.
``SeGShareServer.stats()`` exposes the counters that explain the gap:

* ``cache``  — hits/misses/evictions, resident bytes, EPC charge;
* ``rollback_guard`` / ``group_guard`` — verifies, node saves, how many
  nodes each journaled batch flushed, and (with the content guard) the
  one anchor's writes — each a monotonic-counter increment!;
* ``epc`` — the cache's bytes are real enclave memory, visible here.

    python examples/perf_demo.py
"""

from repro.core import deploy
from repro.core.enclave_app import SeGShareOptions


def build(cached: bool):
    options = SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        metadata_cache_bytes=256 * 1024 if cached else None,
    )
    return deploy(options=options)


#: Virtual-clock accounts that are WAN/client time, not enclave work.
_NOT_SERVER_WORK = {"network", "wait", "client-crypto", "client-backoff"}


def office_workload(deployment) -> tuple[float, float]:
    """A morning at the office.

    Returns (end-to-end virtual seconds, enclave-side virtual seconds) —
    the clock's named accounts separate WAN latency, which the cache
    cannot touch, from the crypto/storage/counter work it removes.
    """
    clock = deployment.env.clock
    boss = deployment.new_user("boss")
    start = clock.now()
    boss.mkdir("/shared/")
    for name in ("ann", "ben", "cam"):
        boss.add_user(name, "staff")
    boss.set_permission("/shared/", "staff", "rw")
    boss.upload("/shared/handbook", b"rtfm, lovingly" * 64)
    boss.set_inherit("/shared/handbook", True)  # staff's dir grant applies
    # Everyone reads the handbook over and over — the hot path.
    for name in ("ann", "ben", "cam"):
        reader = deployment.new_user(name)
        for _ in range(8):
            assert reader.download("/shared/handbook").startswith(b"rtfm")
    # Offboarding: the known-slow full scan, one journaled batch.
    boss.delete_group("staff")
    elapsed = clock.now() - start
    server_work = sum(
        seconds
        for account, seconds in clock.accounts().items()
        if account not in _NOT_SERVER_WORK
    )
    return elapsed, server_work


def main() -> None:
    print("running the same workload on an uncached and a cached server...\n")
    uncached_time, uncached_work = office_workload(build(cached=False))
    cached_deployment = build(cached=True)
    cached_time, cached_work = office_workload(cached_deployment)
    stats = cached_deployment.server.stats()

    cache = stats["cache"]
    print(f"uncached server: {uncached_time:.3f} s end-to-end, "
          f"{uncached_work * 1e3:.1f} ms of enclave work")
    print(f"cached server:   {cached_time:.3f} s end-to-end, "
          f"{cached_work * 1e3:.1f} ms of enclave work "
          f"({uncached_work / cached_work:.1f}x less)")
    print("(the rest is WAN latency — no cache can refund a round trip)\n")

    print("what the cached enclave counted (SeGShareServer.stats()):")
    print(f"  cache hits / misses:      {cache['hits']} / {cache['misses']} "
          f"(hit rate {cache['hit_rate']:.0%})")
    print(f"  cache evictions:          {cache['evictions']}")
    print(f"  resident plaintext:       {cache['current_bytes']} bytes "
          f"(EPC-charged: {stats['epc']['cache_bytes']} bytes)")
    guard, group_guard = stats["rollback_guard"], stats["group_guard"]
    print(f"  guard verifies:           {guard['verifies']}")
    print(f"  anchor writes:            {guard['anchor_writes']} "
          f"(one counter increment each, both stores' roots in each)")
    print(f"  guard / group-guard batches: {guard['batches']} / {group_guard['batches']} "
          f"(delete_group's scan flushed once)")
    print(f"  guard nodes last batch:   {guard['last_batch_nodes']}")

    if cached_work >= uncached_work:
        raise SystemExit("UNEXPECTED: the cache made the enclave work harder")
    if cache["hits"] == 0:
        raise SystemExit("UNEXPECTED: the workload never hit the cache")
    print("\nsame responses, same guarantees — minus the redundant crypto.")


if __name__ == "__main__":
    main()
