"""Cache-coherence suite for the enclave-resident metadata cache.

The cache (``repro.core.cache``) may only ever make reads *faster*, never
*different*: a stale entry must not outlive a rolled-back journal batch,
an enclave restart, a backup restore, or another cluster member's
write.  These tests pin each invalidation path individually and then
hammer the equivalence with a randomized property test comparing a
cached and an uncached deployment byte for byte.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import build_cluster
from repro.core.cache import MetadataCache
from repro.core.enclave_app import SeGShareOptions
from repro.core.requests import Op, Request, Status
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed
from repro.faults import FaultPlan, faulty_stores
from repro.netsim import SimClock, azure_wan_env
from repro.pki import CertificateAuthority
from repro.sgx.costmodel import SgxCostModel
from repro.sgx.epc import EpcModel
from repro.storage.stores import StoreSet
from repro.tls.channel import StreamingResponse
from tests.support.explorer import under_plan
from tests.support.platform import sim_platform

#: One CA for the whole module — RSA keygen dominates setup otherwise.
_CA = CertificateAuthority(key_bits=1024)

_CACHE_BYTES = 256 * 1024


def build_server(stores: StoreSet | None = None, **option_overrides) -> SeGShareServer:
    options = SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        rollback_buckets=8,
        metadata_cache_bytes=_CACHE_BYTES,
        **option_overrides,
    )
    return SeGShareServer(
        azure_wan_env(), _CA.public_key, stores=stores, options=options
    )


def prime(server: SeGShareServer) -> None:
    handler = server.enclave.handler
    assert handler.put_file("alice", "/keep", b"other file").status is Status.OK
    assert (
        handler.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",))).status
        is Status.OK
    )
    assert handler.put_file("alice", "/d/f", b"victim content").status is Status.OK


# -- unit level: LRU + EPC accounting ------------------------------------------------


class TestLruMechanics:
    def test_hit_miss_counting_and_lru_eviction(self):
        cache = MetadataCache(capacity_bytes=100, epc=sim_platform().epc, max_entry_bytes=100)
        cache.put("content", "a", b"x" * 40)
        cache.put("content", "b", b"y" * 40)
        assert cache.get("content", "a") == b"x" * 40  # refreshes "a"
        assert cache.get("content", "missing") is None  # counts nothing ...
        cache.missed()  # ... until the reader finds the value in storage
        # Inserting 40 more bytes overflows; the LRU entry is now "b".
        cache.put("content", "c", b"z" * 40)
        assert cache.contains("content", "a")
        assert not cache.contains("content", "b")
        assert cache.contains("content", "c")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 1
        assert cache.stats.current_bytes == 80

    def test_namespaces_do_not_collide(self):
        cache = MetadataCache(capacity_bytes=4096, epc=sim_platform().epc)
        cache.put("content", "k", b"content bytes")
        cache.put("group", "k", b"group bytes")
        assert cache.get("content", "k") == b"content bytes"
        assert cache.get("group", "k") == b"group bytes"

    def test_replacement_updates_accounting(self):
        cache = MetadataCache(capacity_bytes=100, epc=sim_platform().epc, max_entry_bytes=100)
        cache.put("content", "a", b"x" * 60)
        cache.put("content", "a", b"y" * 10)
        assert cache.stats.current_bytes == 10
        assert cache.get("content", "a") == b"y" * 10

    def test_oversize_value_skipped_and_stale_entry_dropped(self):
        cache = MetadataCache(capacity_bytes=100, epc=sim_platform().epc, max_entry_bytes=50)
        cache.put("content", "a", b"small")
        cache.put("content", "a", b"L" * 51)  # outgrew the cache
        # The stale small version must be gone, not served.
        assert cache.get("content", "a") is None
        assert cache.stats.oversize_skips == 1
        assert cache.stats.current_bytes == 0

    def test_discard_and_clear(self):
        cache = MetadataCache(capacity_bytes=4096, epc=sim_platform().epc)
        cache.put("content", "a", b"aa")
        cache.put("content", "b", b"bb")
        cache.discard("content", "a")
        assert not cache.contains("content", "a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.current_bytes == 0
        assert cache.stats.invalidations == 1


class TestEpcCharging:
    def _epc(self, capacity: int = 1 << 20) -> EpcModel:
        return EpcModel(clock=SimClock(), costs=SgxCostModel(), capacity=capacity)

    def test_resident_bytes_are_real_epc_allocations(self):
        epc = self._epc()
        cache = MetadataCache(capacity_bytes=100, epc=epc, max_entry_bytes=100)
        cache.put("content", "a", b"x" * 60)
        assert epc.stats.allocated == 60
        assert epc.stats.cache_bytes == 60
        cache.put("content", "b", b"y" * 60)  # evicts "a"
        assert epc.stats.allocated == 60
        cache.clear()
        assert epc.stats.allocated == 0
        assert epc.stats.cache_bytes == 0

    def test_cache_past_epc_capacity_pays_paging(self):
        epc = self._epc(capacity=8192)
        cache = MetadataCache(capacity_bytes=64 * 1024, epc=epc, max_entry_bytes=8192)
        for i in range(8):
            cache.put("content", f"k{i}", b"z" * 4096)
        assert epc.stats.page_swaps > 0  # an oversized cache is not free

    def test_epc_released_on_enclave_destroy(self):
        server = build_server()
        prime(server)
        epc = server.platform.epc
        assert epc.stats.cache_bytes > 0
        server.handle.destroy()
        assert epc.stats.cache_bytes == 0


# -- invalidation paths ---------------------------------------------------------------


class TestInvalidation:
    def test_in_process_rollback_never_serves_rolled_back_write(self):
        """A transient fault aborts a batch mid-write: its cache write-backs
        wait for its commit, so the abort drops them with its buffers and
        needs no strict invalidation."""
        plan = FaultPlan()
        stores = faulty_stores(StoreSet.in_memory(), plan)
        server = build_server(stores=stores)
        prime(server)
        handler = server.enclave.handler

        cache = server.enclave.cache
        invalidations_before = cache.stats.invalidations
        # The batch's commit point, its redo record's put, faults: every
        # write of the batch is still buffered.
        plan.fail_nth(nth=1, op="put", key="\x00journal:redo:")
        response = handler.put_file("alice", "/d/f", b"ROLLED BACK")
        assert response.status is Status.RETRY
        assert cache.stats.invalidations == invalidations_before

        # Neither the manager (cache-first) nor a fresh GET may ever see
        # the rolled-back bytes.
        assert server.enclave.manager.read_content("/d/f") == b"victim content"
        got = handler.get("alice", "/d/f")
        assert isinstance(got, StreamingResponse)
        assert b"".join(got.chunks) == b"victim content"

    def test_crash_recovery_discards_cache_with_the_batch(self):
        server, plan = under_plan(lambda stores: build_server(stores=stores))
        prime(server)
        # Warm the cache on the victim, then crash mid-overwrite: the
        # upload's data, metadata, record and first applied write land.
        assert server.enclave.manager.read_content("/d/f") == b"victim content"
        warm = server.enclave.cache
        plan.crash_after_effects(4)
        with pytest.raises(EnclaveCrashed):
            server.enclave.handler.put_file("alice", "/d/f", b"ROLLED BACK")
        plan.detach()

        server.restart_enclave()
        server.enclave.guard.verify_restored_state()
        content = server.enclave.manager.read_content("/d/f")
        assert content in (b"victim content", b"ROLLED BACK")
        # The recovered enclave's cache started cold: no entry can predate
        # the journal's re-apply.
        assert server.enclave.cache is not warm and warm.stats.hits > 0
        stats = server.stats()
        assert stats["cache"]["misses"] > 0

    def test_restart_enclave_starts_with_a_cold_cache(self):
        server = build_server()
        prime(server)
        for _ in range(3):
            server.enclave.manager.read_content("/d/f")
        assert server.stats()["cache"]["hits"] > 0
        server.restart_enclave()
        stats = server.stats()["cache"]
        assert stats["hits"] == 0
        assert stats["current_bytes"] >= 0
        assert server.enclave.manager.read_content("/d/f") == b"victim content"

    def test_backup_restore_invalidates_live_cache(self):
        from repro.core.backup import authorize_restore, restore_backup, take_backup

        server = build_server()
        prime(server)
        snapshot = take_backup(server)
        # Overwrite AFTER the backup; the cache now holds the new version.
        assert (
            server.enclave.handler.put_file("alice", "/d/f", b"post-backup").status
            is Status.OK
        )
        assert server.enclave.manager.read_content("/d/f") == b"post-backup"

        restore_backup(server, snapshot)
        authorize_restore(_CA, server)
        # The cached "post-backup" entry must not survive the restore.
        assert server.enclave.manager.read_content("/d/f") == b"victim content"

    def test_a_members_write_is_read_fresh_at_the_root(self):
        """Two cached members over one repository: the root serves the
        replica's write, not its cached ghost, with no manual invalidate —
        the cluster admitted both onto one coherence log."""
        deployment = build_cluster(replicas=2, ca=_CA)
        root, replica = deployment.server("r0"), deployment.server("r1")
        assert root.enclave.cache is not None and replica.enclave.cache is not None
        prime(root)
        assert root.enclave.manager.read_content("/d/f") == b"victim content"  # warm
        assert (
            replica.enclave.handler.put_file("alice", "/d/f", b"replica wrote").status
            is Status.OK
        )
        assert root.enclave.manager.read_content("/d/f") == b"replica wrote"


# -- effectiveness: the cache actually removes storage traffic -----------------------


class TestEffectiveness:
    def test_repeated_reads_are_served_from_enclave_memory(self):
        plan = FaultPlan()
        stores = faulty_stores(StoreSet.in_memory(), plan)
        server = build_server(stores=stores)
        prime(server)
        handler = server.enclave.handler

        def do_reads() -> int:
            before = plan.store_ops
            for _ in range(5):
                response = handler.handle("alice", Request(op=Op.GET, args=("/d/",)))
                assert response.status is Status.OK
                got = handler.get("alice", "/d/f")
                assert b"".join(got.chunks) == b"victim content"
            return plan.store_ops - before

        # Write-through means the cache is already warm right after the
        # priming writes; restart to start from a genuinely cold cache.
        server.restart_enclave()
        handler = server.enclave.handler
        first_pass = do_reads()  # cold: fills the cache
        second_pass = do_reads()  # warm: metadata from enclave memory
        assert second_pass < first_pass
        stats = server.stats()["cache"]
        assert stats["hits"] > 0
        assert stats["hit_rate"] > 0.3

    def test_uncached_server_pays_more_storage_reads_than_cached(self):
        def read_footprint(cache_bytes: int | None) -> int:
            plan = FaultPlan()
            stores = faulty_stores(StoreSet.in_memory(), plan)
            options = SeGShareOptions(
                rollback="whole_fs",
                counter_kind="rote",
                rollback_buckets=8,
                metadata_cache_bytes=cache_bytes,
            )
            server = SeGShareServer(
                azure_wan_env(), _CA.public_key, stores=stores, options=options
            )
            prime(server)
            before = plan.store_ops
            for _ in range(10):
                got = server.enclave.handler.get("alice", "/d/f")
                assert b"".join(got.chunks) == b"victim content"
            return plan.store_ops - before

        uncached = read_footprint(None)
        cached = read_footprint(_CACHE_BYTES)
        assert cached < uncached / 2, (cached, uncached)

    def test_batched_guard_flushes_once_per_batch(self):
        server = build_server()
        prime(server)
        guard_stats = server.enclave.guard.stats
        batches_before = guard_stats.batches
        anchor = server.enclave.guard.anchor
        anchors_before = anchor.writes
        assert (
            server.enclave.handler.put_file("alice", "/d/multi", b"payload").status
            is Status.OK
        )
        assert guard_stats.batches == batches_before + 1
        # One anchor write (one counter increment) for the whole batch,
        # despite the put touching the file, its ACL, and the directory.
        assert anchor.writes == anchors_before + 1
        assert guard_stats.last_batch_nodes >= 1


# -- the equivalence property --------------------------------------------------------


def _canonical(response) -> bytes:
    if isinstance(response, StreamingResponse):
        return response.header + b"".join(response.chunks)
    return response.serialize()


def _random_script(seed: int, length: int = 120) -> list[tuple]:
    """A reproducible mixed workload over a small path/group population."""
    rng = random.Random(seed)
    users = ["alice", "bob"]
    files = [f"/f{i}" for i in range(4)] + [f"/dir/g{i}" for i in range(3)]
    dirs = ["/dir/", "/dir2/"]
    groups = ["eng", "sales"]
    script: list[tuple] = [("put_dir", "alice", "/dir/")]
    for step in range(length):
        user = rng.choice(users)
        roll = rng.random()
        if roll < 0.25:
            path = rng.choice(files)
            content = f"v{step}:{path}".encode() * rng.randint(1, 20)
            script.append(("put_file", user, path, content))
        elif roll < 0.55:
            script.append(("req", user, Op.GET, (rng.choice(files + dirs + ["/"]),)))
        elif roll < 0.62:
            script.append(("req", user, Op.STAT, (rng.choice(files),)))
        elif roll < 0.68:
            script.append(("req", user, Op.GET_ACL, (rng.choice(files),)))
        elif roll < 0.74:
            script.append(
                ("req", user, Op.MOVE, (rng.choice(files), rng.choice(files)))
            )
        elif roll < 0.80:
            script.append(("req", user, Op.REMOVE, (rng.choice(files + dirs),)))
        elif roll < 0.86:
            script.append(
                (
                    "req",
                    user,
                    Op.SET_PERM,
                    (
                        rng.choice(files),
                        rng.choice(groups),
                        rng.choice(["r", "rw", "", "deny"]),
                    ),
                )
            )
        elif roll < 0.92:
            script.append(
                ("req", "alice", Op.ADD_USER, (rng.choice(users), rng.choice(groups)))
            )
        elif roll < 0.95:
            script.append(
                ("req", "alice", Op.RMV_USER, (rng.choice(users), rng.choice(groups)))
            )
        elif roll < 0.97:
            script.append(("req", user, Op.MY_GROUPS, ()))
        else:
            script.append(("req", "alice", Op.DELETE_GROUP, (rng.choice(groups),)))
    return script


def _play(server: SeGShareServer, script: list[tuple]) -> list[bytes]:
    handler = server.enclave.handler
    out = []
    for entry in script:
        if entry[0] == "put_file":
            _, user, path, content = entry
            out.append(_canonical(handler.put_file(user, path, content)))
        elif entry[0] == "put_dir":
            _, user, path = entry
            out.append(
                _canonical(handler.handle(user, Request(op=Op.PUT_DIR, args=(path,))))
            )
        else:
            _, user, op, args = entry
            try:
                request = Request(op=op, args=tuple(args))
            except Exception:  # pragma: no cover - script only emits valid arity
                continue
            out.append(_canonical(handler.handle(user, request)))
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_cached_and_uncached_servers_are_byte_identical(seed):
    """The property at the heart of the design: over a randomized op
    sequence (puts, streamed gets, moves, removes, permission and group
    churn, group deletion), a cached deployment and an uncached one
    produce byte-identical responses at every step."""
    script = _random_script(seed)
    cached = build_server(enable_dedup=True)
    uncached = SeGShareServer(
        azure_wan_env(),
        _CA.public_key,
        options=SeGShareOptions(
            rollback="whole_fs",
            counter_kind="rote",
            rollback_buckets=8,
            enable_dedup=True,
            metadata_cache_bytes=None,
        ),
    )
    cached_out = _play(cached, script)
    uncached_out = _play(uncached, script)
    assert len(cached_out) == len(uncached_out)
    for i, (a, b) in enumerate(zip(cached_out, uncached_out)):
        assert a == b, f"divergence at step {i}: {script[i]!r}"
    # The run must actually have exercised the cache to mean anything.
    assert cached.stats()["cache"]["hits"] > 50
    # And both worlds agree on the final guard-verified state.
    cached.enclave.guard.verify_restored_state()
    uncached.enclave.guard.verify_restored_state()
