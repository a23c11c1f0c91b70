"""Rollback protection: the multiset-hash tree and the flat group guard."""

from types import SimpleNamespace

import pytest

from repro.core.rollback import FlatStoreGuard, RollbackGuard
from repro.errors import CounterError, RollbackDetected
from repro.sgx.costmodel import SgxCostModel
from repro.sgx.counters import RoteCounterService
from repro.storage.stores import StoreSet

from tests.core.conftest import ROOT_KEY


def snapshot_matching(store, prefix):
    return {key: store.get(key) for key in store.keys() if key.startswith(prefix)}


def restore(store, snapshot):
    for key, value in snapshot.items():
        store.put(key, value)


@pytest.fixture()
def guarded(make_world):
    return make_world(rollback=True)


class TestHappyPath:
    def test_reads_verify_after_writes(self, guarded):
        guarded.handler.put_dir("alice", "/d/")
        guarded.handler.put_file("alice", "/d/f", b"v1")
        assert guarded.manager.read_content("/d/f") == b"v1"
        guarded.handler.put_file("alice", "/d/f", b"v2")
        assert guarded.manager.read_content("/d/f") == b"v2"

    def test_deep_tree(self, guarded):
        path = "/"
        for depth in range(5):
            path = path + f"d{depth}/"
            guarded.handler.put_dir("alice", path)
        guarded.handler.put_file("alice", path + "leaf", b"deep")
        assert guarded.manager.read_content(path + "leaf") == b"deep"

    def test_delete_keeps_tree_consistent(self, guarded):
        guarded.handler.put_file("alice", "/a", b"1")
        guarded.handler.put_file("alice", "/b", b"2")
        guarded.handler.remove("alice", "/a")
        assert guarded.manager.read_content("/b") == b"2"

    def test_move_keeps_tree_consistent(self, guarded):
        guarded.handler.put_dir("alice", "/d/")
        guarded.handler.put_file("alice", "/d/f", b"data")
        guarded.handler.move("alice", "/d/f", "/f")
        assert guarded.manager.read_content("/f") == b"data"

    def test_many_files_one_bucket_collisions_fine(self, make_world):
        world = make_world(rollback=True, buckets=2)  # force collisions
        for i in range(20):
            world.handler.put_file("alice", f"/f{i}", bytes([i]))
        for i in range(20):
            assert world.manager.read_content(f"/f{i}") == bytes([i])


class TestContentRollbackAttacks:
    def test_single_file_rollback_detected(self, guarded):
        store = guarded.stores.content
        guarded.handler.put_file("alice", "/f", b"v1")
        old = snapshot_matching(store, "/f")
        guarded.handler.put_file("alice", "/f", b"v2")
        restore(store, old)
        with pytest.raises(RollbackDetected):
            guarded.manager.read_content("/f")

    def test_acl_rollback_detected(self, guarded):
        """The paper's motivating case: replaying an old ACL to undo a
        permission revocation."""
        store = guarded.stores.content
        guarded.handler.put_file("alice", "/f", b"secret")
        guarded.handler.add_user("alice", "bob", "eng")
        guarded.handler.set_permission("alice", "/f", "eng", "r")
        old_acl = snapshot_matching(store, "/f.acl")
        guarded.handler.set_permission("alice", "/f", "eng", "")
        restore(store, old_acl)
        with pytest.raises(RollbackDetected):
            guarded.access.auth_f("bob", None, "/f")

    def test_directory_rollback_detected(self, guarded):
        store = guarded.stores.content
        guarded.handler.put_dir("alice", "/d/")
        old_root = snapshot_matching(store, "/\x00")  # root dir file chunks
        guarded.handler.put_dir("alice", "/e/")
        restore(store, old_root)
        with pytest.raises(RollbackDetected):
            guarded.manager.read_dir("/")

    def test_deletion_replay_detected(self, guarded):
        """Re-inserting a deleted file's objects is a rollback too."""
        store = guarded.stores.content
        guarded.handler.put_file("alice", "/f", b"deleted")
        ghost = snapshot_matching(store, "/f")
        guarded.handler.remove("alice", "/f")
        restore(store, ghost)
        with pytest.raises(RollbackDetected):
            guarded.manager.read_content("/f")

    def test_consistent_subtree_rollback_detected_at_root(self, guarded):
        """Rolling back a file AND its ancestors' guard nodes still fails,
        because the root anchor does not match."""
        store = guarded.stores.content
        guarded.handler.put_dir("alice", "/d/")
        guarded.handler.put_file("alice", "/d/f", b"v1")
        everything_v1 = {key: store.get(key) for key in store.keys()}
        guarded.handler.put_file("alice", "/d/f", b"v2")
        # Restore all objects EXCEPT the anchor.
        for key, value in everything_v1.items():
            if "anchor" not in key:
                store.put(key, value)
        with pytest.raises(RollbackDetected):
            guarded.manager.read_content("/d/f")


class TestGroupStoreGuard:
    def test_member_list_rollback_detected(self, guarded):
        """The paper's headline attack: an old member list would let a
        revoked user regain access."""
        store = guarded.stores.group
        guarded.handler.put_file("alice", "/f", b"secret")
        guarded.handler.add_user("alice", "bob", "eng")
        old_member_list = snapshot_matching(store, "member:bob")
        guarded.handler.remove_user("alice", "bob", "eng")
        restore(store, old_member_list)
        with pytest.raises(RollbackDetected):
            guarded.access.user_groups("bob")

    def test_group_list_rollback_detected(self, guarded):
        store = guarded.stores.group
        guarded.handler.add_user("alice", "bob", "eng")
        old = snapshot_matching(store, "grouplist")
        guarded.handler.add_user("alice", "bob", "sales")
        restore(store, old)
        with pytest.raises(RollbackDetected):
            guarded.access.exists_g("sales")


class TestAnchoring:
    def test_root_hash_changes_with_every_write(self, guarded):
        hashes = [guarded.guard.root_hash()]
        guarded.handler.put_file("alice", "/a", b"1")
        hashes.append(guarded.guard.root_hash())
        guarded.handler.put_file("alice", "/a", b"2")
        hashes.append(guarded.guard.root_hash())
        assert len(set(hashes)) == 3

    def test_recompute_matches_incremental(self, guarded):
        guarded.handler.put_dir("alice", "/d/")
        guarded.handler.put_file("alice", "/d/f", b"x")
        guarded.handler.put_file("alice", "/g", b"y")
        guarded.handler.remove("alice", "/g")
        assert guarded.guard.recompute_main() == guarded.guard.root_hash()

    def test_rebuild_restores_verifiability(self, make_world):
        """Enabling the guard over an existing unguarded share via rebuild."""
        stores = StoreSet.in_memory()
        plain = make_world(stores=stores)
        plain.handler.put_dir("alice", "/d/")
        plain.handler.put_file("alice", "/d/f", b"migrated")
        guard = RollbackGuard(plain.manager, ROOT_KEY, buckets=16)
        guard.rebuild()
        plain.manager.guard = guard
        assert plain.manager.read_content("/d/f") == b"migrated"

    def test_verify_restored_state(self, guarded):
        guarded.handler.put_file("alice", "/f", b"x")
        guarded.guard.verify_restored_state()  # consistent: no exception

    def test_verify_restored_state_rejects_tamper(self, guarded):
        guarded.handler.put_file("alice", "/f", b"x")
        old = snapshot_matching(guarded.stores.content, "/f")
        guarded.handler.put_file("alice", "/f", b"y")
        restore(guarded.stores.content, old)
        with pytest.raises(RollbackDetected):
            guarded.guard.verify_restored_state()


class TestFlatGuardUnit:
    def test_accept_current_state_reanchors(self, make_world):
        world = make_world(rollback=True)
        world.handler.add_user("alice", "bob", "eng")
        world.group_guard.accept_current_state()
        assert "eng" in world.access.user_groups("bob")

    def test_new_users_survive_bucket_collisions(self, make_world):
        """Regression: a new user's member list used to enter its guard
        bucket before the user was in the registry, so leaf enumeration
        (registry-driven) missed it — the first user whose member list
        collided with the registry's bucket broke every verify of that
        bucket.  With few buckets, collisions are guaranteed."""
        world = make_world(rollback=True, buckets=2)
        for i in range(12):
            world.handler.add_user("alice", f"u{i}", "eng")
            assert "eng" in world.access.user_groups(f"u{i}")
        assert len(world.access.known_users()) == 13  # 12 members + alice


# -- the shared guard core, once per layout ---------------------------------------
#
# Batch lifecycle, pending snapshots, the counter-bound anchor and the
# restore checks are one implementation; every case below drives it
# through the interface both layouts expose, over a counter-bound guard.

_ENCLAVE = SimpleNamespace(
    platform=SimpleNamespace(clock=None, crashpoint=lambda site: None),
    signer_id=lambda: b"test-signer",
)


@pytest.fixture(params=["fs", "group"])
def counted(request, make_world):
    """One guard with whole-FS protection plus the means to exercise it:
    ``touch()`` mutates its store, ``read()`` is a guarded read of it,
    ``objects`` names the data objects ``touch`` rewrites."""
    world = make_world()
    counter = RoteCounterService(None, SgxCostModel())
    shared = dict(buckets=4, enclave=_ENCLAVE, counter=counter)
    world.manager.guard = RollbackGuard(world.manager, ROOT_KEY, **shared)
    world.manager.group_guard = FlatStoreGuard(world.manager, ROOT_KEY, **shared)
    serial = iter(range(1000))
    if request.param == "fs":
        world.handler.put_file("alice", "/f", b"v0")
        return SimpleNamespace(
            guard=world.manager.guard,
            counter=counter,
            counter_id="segshare-fs",
            store=world.stores.content,
            objects="/f",
            touch=lambda: world.handler.put_file("alice", "/f", b"v%d" % (next(serial) + 1)),
            read=lambda: world.manager.read_content("/f"),
        )
    world.handler.add_user("alice", "bob", "g0")
    return SimpleNamespace(
        guard=world.manager.group_guard,
        counter=counter,
        counter_id="segshare-group",
        store=world.stores.group,
        objects="member:bob",
        touch=lambda: world.handler.add_user("alice", "bob", "g%d" % (next(serial) + 1)),
        read=lambda: world.access.user_groups("bob"),
    )


class TestSharedGuardCore:
    def test_batch_defers_nodes_and_anchor_to_commit(self, counted):
        guard, stats = counted.guard, counted.guard.stats
        anchored = guard.expected_main()
        before = stats.snapshot()
        guard.begin_batch()
        counted.touch()
        counted.touch()
        assert (stats.node_saves, stats.anchor_writes) == (
            before["node_saves"],
            before["anchor_writes"],
        )
        assert guard.expected_main() == guard.root_hash() != anchored
        counted.read()  # verifies against the pending root, in enclave memory
        guard.commit_batch()
        assert stats.anchor_writes == before["anchor_writes"] + 1
        assert stats.batches == before["batches"] + 1
        assert stats.last_batch_nodes >= 1
        assert stats.nodes_flushed == before["nodes_flushed"] + stats.last_batch_nodes
        assert guard.expected_main() == guard.root_hash()
        counted.read()
        guard.verify_restored_state()

    def test_abort_drops_pending_state_and_persists_nothing(self, counted):
        guard = counted.guard
        anchored = guard.expected_main()
        writes = guard.stats.anchor_writes
        guard.begin_batch()
        counted.touch()
        guard.abort_batch()
        assert guard.expected_main() == guard.root_hash() == anchored
        assert guard.stats.anchor_writes == writes
        # The data write itself was not undone (that is the journal's
        # job), so the stored nodes no longer describe it ...
        with pytest.raises(RollbackDetected):
            guard.verify_restored_state()
        guard.rebuild()  # ... until they are rebuilt from it.
        guard.verify_restored_state()
        counted.read()

    def test_snapshot_restore_rewinds_one_member(self, counted):
        guard = counted.guard
        guard.begin_batch()
        counted.touch()
        member_begin = guard.snapshot_pending()
        main = guard.expected_main()
        counted.touch()
        assert guard.expected_main() != main
        guard.restore_pending(member_begin)
        assert guard.expected_main() == guard.root_hash() == main

    def test_counter_mismatch_is_a_rollback(self, counted):
        counted.read()
        counted.counter.increment(_ENCLAVE, counted.counter_id)  # anchor now stale
        with pytest.raises(RollbackDetected):
            counted.read()
        with pytest.raises(RollbackDetected):
            counted.guard.verify_anchor_fresh()
        counted.guard.accept_current_state()  # re-counted against the TEE
        counted.read()

    def test_degraded_reads_but_never_a_degraded_freshness_proof(self, counted):
        guard = counted.guard
        for replica in (0, 1, 2):
            counted.counter.set_replica_up(replica, False)
        counted.read()  # hash chain verified, counter bound skipped
        assert guard.degraded_reads == 1
        with pytest.raises(CounterError):
            guard.verify_anchor_fresh()
        assert guard.allow_degraded_reads  # the refusal was scoped to the proof
        with pytest.raises(CounterError):
            guard.accept_current_state()  # an anchor write cannot be re-counted
        guard.allow_degraded_reads = False
        with pytest.raises(CounterError):
            counted.read()
        for replica in (0, 1, 2):
            counted.counter.set_replica_up(replica, True)
        guard.verify_anchor_fresh()

    def test_restore_check_rejects_a_mixed_snapshot(self, counted):
        counted.guard.verify_restored_state()
        old = snapshot_matching(counted.store, counted.objects)
        counted.touch()
        counted.guard.verify_restored_state()
        restore(counted.store, old)
        with pytest.raises(RollbackDetected):
            counted.guard.verify_restored_state()
