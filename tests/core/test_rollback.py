"""Rollback protection: the multiset-hash tree and the flat group guard."""

import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest

from repro.core.acl import acl_path, member_list_path
from repro.core.coherence import CoherenceManager
from repro.core.file_manager import Mount
from repro.core.requests import Op, Status
from repro.core.rollback import COUNTER_ID, FileSystemAnchor, FlatStoreGuard, RollbackGuard, _Node
from repro.crypto.mset_hash import MSetXorBuckets, Prf
from repro.errors import CounterError, EnclaveError, RollbackDetected
from repro.fsmodel import DirectoryFile
from repro.netsim.coherence import CoherenceBoard
from repro.sgx.costmodel import SgxCostModel
from repro.sgx.counters import RoteCounterService
from repro.storage.stores import StoreSet
from repro.util.serialization import SerializationError, Writer

from tests.core.conftest import ROOT_KEY
from tests.crypto.test_mset_hash import dense_encoding
from tests.support.calls import python_calls


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
        guarded.request("alice", Op.PUT_DIR, "/d/")
        guarded.handler.put_file("alice", "/d/f", b"v1")
        assert guarded.manager.read_content("/d/f") == b"v1"
        guarded.handler.put_file("alice", "/d/f", b"v2")
        assert guarded.manager.read_content("/d/f") == b"v2"

    def test_deep_tree(self, guarded):
        path = "/"
        for depth in range(5):
            path = path + f"d{depth}/"
            guarded.request("alice", Op.PUT_DIR, path)
        guarded.handler.put_file("alice", path + "leaf", b"deep")
        assert guarded.manager.read_content(path + "leaf") == b"deep"

    def test_delete_keeps_tree_consistent(self, guarded):
        guarded.handler.put_file("alice", "/a", b"1")
        guarded.handler.put_file("alice", "/b", b"2")
        guarded.request("alice", Op.REMOVE, "/a")
        assert guarded.manager.read_content("/b") == b"2"

    def test_move_keeps_tree_consistent(self, guarded):
        guarded.request("alice", Op.PUT_DIR, "/d/")
        guarded.handler.put_file("alice", "/d/f", b"data")
        guarded.request("alice", Op.MOVE, "/d/f", "/f")
        assert guarded.manager.read_content("/f") == b"data"

    def test_a_guard_walk_runs_only_inside_an_epoch(self, guarded):
        """A handler method called outside any transaction walks a guard
        with no batch open: the walk is refused with a typed error, and no
        guard node or anchor is written for it."""
        guarded.request("alice", Op.PUT_DIR, "/d/")
        guard_objects = [(guarded.stores.content, "\x00rb:"), (guarded.stores.group, "\x00rbg:")]
        before = [snapshot_matching(store, prefix) for store, prefix in guard_objects]
        writes = guarded.guard.anchor.writes
        for walk in (
            lambda: guarded.handler.put_dir("alice", "/e/"),
            lambda: guarded.handler.add_user("alice", "bob", "eng"),
        ):
            with pytest.raises(EnclaveError, match="guard walk outside a commit epoch"):
                walk()
        assert [snapshot_matching(store, prefix) for store, prefix in guard_objects] == before
        assert guarded.guard.anchor.writes == writes

    def test_many_files_one_bucket_collisions_fine(self, make_world):
        world = make_world(rollback=True, buckets=2)  # force collisions
        for i in range(20):
            world.handler.put_file("alice", f"/f{i}", bytes([i]))
        for i in range(20):
            assert world.manager.read_content(f"/f{i}") == bytes([i])


def test_bucket_walk_looks_up_only_the_targets_bucket(make_world, monkeypatch):
    """Counts, not seconds: a verify under a directory listing 1 000 files
    checks storage only for the ~2·1000/B candidates (file and ACL) that
    share the target's bucket, not for every child.  Listed-but-missing
    children (990 of them here) are skipped as before."""
    buckets = 64
    world = make_world(rollback=True, buckets=buckets)
    guard = world.guard
    world.request("alice", Op.PUT_DIR, "/big/")
    for i in range(10):
        world.handler.put_file("alice", f"/big/f{i:04d}", b"x%d" % i)
    listing = DirectoryFile.deserialize(guard._mount.raw_read("/big/"))
    for i in range(10, 1000):
        listing.add(f"/big/f{i:04d}")
    guard._mount.raw_write("/big/", listing.serialize())

    target = "/big/f0003"
    in_bucket = {
        level: [
            candidate
            for child in DirectoryFile.deserialize(guard._mount.raw_read(level)).children
            for candidate in (child, acl_path(child))
            if guard._bucket_of(candidate) == guard._bucket_of(through)
        ]
        for level, through in (("/big/", target), ("/", "/big/"))
    }
    checks = []
    original = Mount.raw_exists

    def counting(self, path):
        checks.append(path)
        return original(self, path)

    monkeypatch.setattr(Mount, "raw_exists", counting)
    assert world.manager.read_content(target) == b"x3"
    # One check for the read itself, then exactly the in-bucket candidates.
    assert len(checks) == 1 + sum(len(found) for found in in_bucket.values())
    assert len(checks) <= 2 * (2 * 1000 / buckets) + 8  # the parent made 2 003


class TestContentRollbackAttacks:
    def test_single_file_rollback_detected(self, guarded):
        store = guarded.stores.content
        guarded.handler.put_file("alice", "/f", b"v1")
        old = snapshot_matching(store, "/f")
        guarded.handler.put_file("alice", "/f", b"v2")
        restore(store, old)
        with pytest.raises(RollbackDetected):
            guarded.manager.read_content("/f")

    def test_one_blob_file_replay_detected(self, guarded):
        """A file of up to 4 KiB is one sealed blob, its metadata node
        carrying chunk 0.  The previous version's node replayed alone is an
        authentic whole file to the protected FS; the guard rejects it."""
        store = guarded.stores.content
        guarded.request("alice", Op.PUT_DIR, "/d/")
        old = snapshot_matching(store, "/d/\x00")
        assert list(old) == ["/d/\x00meta"]
        guarded.handler.put_file("alice", "/d/f", b"v1")
        restore(store, old)
        assert DirectoryFile.deserialize(guarded.manager.content.raw_read("/d/")).children == []
        with pytest.raises(RollbackDetected):
            guarded.manager.read_dir("/d/")

    def test_acl_rollback_detected(self, guarded):
        """The paper's motivating case: replaying an old ACL to undo a
        permission revocation."""
        store = guarded.stores.content
        guarded.handler.put_file("alice", "/f", b"secret")
        guarded.request("alice", Op.ADD_USER, "bob", "eng")
        guarded.request("alice", Op.SET_PERM, "/f", "eng", "r")
        old_acl = snapshot_matching(store, "/f.acl")
        guarded.request("alice", Op.SET_PERM, "/f", "eng", "")
        restore(store, old_acl)
        with pytest.raises(RollbackDetected):
            guarded.access.auth_f("bob", None, "/f")

    def test_directory_rollback_detected(self, guarded):
        store = guarded.stores.content
        guarded.request("alice", Op.PUT_DIR, "/d/")
        old_root = snapshot_matching(store, "/\x00")  # root dir file chunks
        guarded.request("alice", Op.PUT_DIR, "/e/")
        restore(store, old_root)
        with pytest.raises(RollbackDetected):
            guarded.manager.read_dir("/")

    def test_deletion_replay_detected(self, guarded):
        """Re-inserting a deleted file's objects is a rollback too."""
        store = guarded.stores.content
        guarded.handler.put_file("alice", "/f", b"deleted")
        ghost = snapshot_matching(store, "/f")
        guarded.request("alice", Op.REMOVE, "/f")
        restore(store, ghost)
        with pytest.raises(RollbackDetected):
            guarded.manager.read_content("/f")

    def test_consistent_subtree_rollback_detected_at_root(self, guarded):
        """Rolling back a file AND its ancestors' guard nodes still fails,
        because the root anchor does not match."""
        store = guarded.stores.content
        guarded.request("alice", Op.PUT_DIR, "/d/")
        guarded.handler.put_file("alice", "/d/f", b"v1")
        everything_v1 = {key: store.get(key) for key in store.keys()}
        guarded.handler.put_file("alice", "/d/f", b"v2")
        # Restore all objects EXCEPT the anchor.
        for key, value in everything_v1.items():
            if "anchor" not in key:
                store.put(key, value)
        with pytest.raises(RollbackDetected):
            guarded.manager.read_content("/d/f")

    def test_replayed_shorter_node_is_detected_once_evicted(self, make_world):
        """A directory's node from before a child was added stores fewer
        buckets, so it is shorter.  Replayed, it is masked only while the
        enclave cache holds the fresh node; the next cold read fails."""
        world = make_world(rollback=True, buckets=64, cache_bytes=1 << 20)
        world.request("alice", Op.PUT_DIR, "/d/")
        world.handler.put_file("alice", "/d/a", b"first")
        node_path = world.guard._node_path("/d/")
        shorter = world.manager.content.raw_read(node_path)
        old = snapshot_matching(world.stores.content, node_path)
        world.handler.put_file("alice", "/d/b", b"second")
        assert len(world.manager.content.raw_read(node_path)) > len(shorter)
        restore(world.stores.content, old)
        assert world.manager.read_content("/d/a") == b"first"
        for path in (node_path, "/d/a"):
            world.manager.engine.cache.discard(world.manager.content.namespace, path)
        with pytest.raises(RollbackDetected):
            world.manager.read_content("/d/a")


class TestNoOpWrites:
    """A guarded write of the content already stored returns before the
    seal, the undo pre-image, the guard walk and the cache write-back."""

    def test_overwrite_leaves_the_acl_blob_alone(self, guarded):
        """An overwriting upload rewrites the ACL it has just read.  A seal
        draws a fresh IV, so a byte-identical blob means no ACL put."""
        store = guarded.stores.content
        guarded.handler.put_file("alice", "/f", b"v1")
        acl_before = snapshot_matching(store, acl_path("/f"))
        assert acl_before
        guarded.handler.put_file("alice", "/f", b"v2")
        assert snapshot_matching(store, acl_path("/f")) == acl_before
        assert guarded.manager.read_content("/f") == b"v2"

    def test_same_content_overwrite_keeps_the_guard_root(self, make_world):
        """With dedup the pointer names the content, so re-uploading the same
        bytes leaves the pointer, the ACL and so the whole tree as they were."""
        world = make_world(rollback=True, enable_dedup=True)
        world.handler.put_file("alice", "/f", b"same")
        root = world.guard.root_hash()
        updates = world.guard.stats.updates
        world.handler.put_file("alice", "/f", b"same")
        assert world.guard.root_hash() == root
        assert world.guard.stats.updates == updates
        assert world.manager.read_content("/f") == b"same"

    def test_acl_rollback_after_a_skipped_rewrite_is_detected(self, guarded):
        store = guarded.stores.content
        guarded.handler.put_file("alice", "/f", b"secret")
        guarded.request("alice", Op.ADD_USER, "bob", "eng")
        guarded.request("alice", Op.SET_PERM, "/f", "eng", "r")
        old_acl = snapshot_matching(store, acl_path("/f"))
        guarded.request("alice", Op.SET_PERM, "/f", "eng", "")
        guarded.handler.put_file("alice", "/f", b"secret v2")  # rewrites the ACL unchanged
        restore(store, old_acl)
        with pytest.raises(RollbackDetected):
            guarded.access.auth_f("bob", None, "/f")


class TestKeptMain:
    """A guard node keeps the main hash computed at its last change, and the
    write walks take it as the node's "before" main instead of hashing the
    node again (docs/PERF.md §23)."""

    @staticmethod
    def _step(world, rng, dirs, files, serial):
        """One random valid mkdir, upload, move or remove by alice."""
        handler, kind = world.handler, rng.choice(["mkdir", "put", "put", "move", "remove"])
        name = f"{next(serial)}"
        if kind == "mkdir" or (kind in ("move", "remove") and not files):
            path = rng.choice(dirs) + f"d{name}/"
            response = handler.put_dir("alice", path)
            dirs.append(path)
        elif kind == "put":
            path = rng.choice(files) if files and rng.random() < 0.4 else rng.choice(dirs) + f"f{name}"
            response = handler.put_file("alice", path, name.encode())
            if path not in files:
                files.append(path)
        elif kind == "move":
            src = files.pop(rng.randrange(len(files)))
            dst = rng.choice(dirs) + f"m{name}"
            response = handler.move("alice", src, dst)
            files.append(dst)
        else:
            victim = rng.choice(files + dirs[1:])
            response = handler.remove("alice", victim)
            subtree = victim.endswith("/")
            dirs[:] = [d for d in dirs if not (subtree and d.startswith(victim))]
            files[:] = [f for f in files if f != victim and not (subtree and f.startswith(victim))]
        assert response.status is Status.OK, response

    @pytest.mark.parametrize("seed", range(3))
    def test_every_kept_main_equals_a_recomputation(self, make_world, seed):
        rng = random.Random(seed)
        world = make_world(rollback=True, buckets=4)
        guard, serial = world.guard, itertools.count()
        dirs, files = ["/"], []
        kept = 0
        for commit in range(30):
            with world.manager.transaction(f"commit {commit}"):
                for _ in range(rng.randint(1, 4)):
                    self._step(world, rng, dirs, files, serial)
                for node in guard._pending_nodes.values():
                    if node.main is not None:
                        kept += 1
                        fresh = _Node(node.path, node.dir_hash, node.buckets.copy())
                        assert node.main == guard._node_main(fresh)
            guard.verify_restored_state()
        assert kept
        for path in files:
            assert world.manager.read_content(path)

    def test_a_change_clears_the_kept_main(self, make_world):
        guard = make_world(rollback=True).guard
        node = guard._load_node("/")
        main = guard._node_main(node)
        assert node.main == main and node.copy().main == main
        node.update(0, None, bytes(32))
        assert node.main is None
        assert guard._node_main(node) != main

    def test_the_write_walk_hashes_each_node_once_per_change(self, make_world, monkeypatch):
        """Two writes under one directory in one commit.  The nodes the last
        epoch's close wrote are in the decoded-file memo with their mains,
        so neither walk hashes a "before" value: one main per level each."""
        world = make_world(rollback=True, cache_bytes=1 << 20)  # reads hit: no verify walk
        world.request("alice", Op.PUT_DIR, "/d/")
        world.handler.put_file("alice", "/d/a", b"1")
        world.handler.put_file("alice", "/d/b", b"1")
        hashed = []
        original = RollbackGuard._node_main

        def counting(self, node):
            hashed.append(node.path)
            return original(self, node)

        monkeypatch.setattr(RollbackGuard, "_node_main", counting)
        with world.manager.transaction("two uploads"):
            world.handler.put_file("alice", "/d/a", b"2")  # the pointer changes, the ACL does not
            first = list(hashed)
            world.handler.put_file("alice", "/d/b", b"2")
        assert first == ["/d/", "/"]  # after only: the close kept the before mains
        assert hashed[len(first):] == ["/d/", "/"]  # after only
        world.guard.verify_restored_state()


#: Each attack below runs with and without the metadata cache.
CACHES = (None, 1 << 20)


def forget(world, *paths):
    """Drop ``paths``' cache entries (and their slots), as an eviction would."""
    cache = world.manager.engine.cache
    for path in paths if cache is not None else ():
        cache.discard(world.manager.content.namespace, path)


class TestNodeMemo:
    """With the cache on, a guard node the close wrote or a read decoded
    stays decoded in its cache entry's slot, and serves only while that
    entry lives: the slot says what the entry's bytes decode to, never
    whether they are fresh.  Without the cache nothing is kept."""

    @staticmethod
    def _versions(world, path):
        """(sealed, plain) of ``path``'s node before and after a write under it."""
        world.request("alice", Op.PUT_DIR, "/d/")
        world.handler.put_file("alice", "/d/a", b"first")
        node_path = world.guard._node_path(path)
        versions = []
        for step in ("before", "after"):
            if step == "after":
                world.handler.put_file("alice", "/d/b", b"second")
            plain = world.manager.content.raw_read(node_path)
            versions.append((snapshot_matching(world.stores.content, node_path), plain))
        assert versions[0][1] != versions[1][1]
        cache = world.manager.engine.cache
        if cache is not None:  # the close kept what it wrote
            slot = cache._entries[world.manager.content.namespace, node_path].slot
            assert world.guard._encode_node(slot[1]) == versions[1][1]
        return versions

    @pytest.mark.parametrize("path", ["/d/", "/"])
    def test_a_swapped_in_older_node_is_decoded_from_its_bytes(self, make_world, path):
        for cache_bytes in CACHES:
            world = make_world(rollback=True, cache_bytes=cache_bytes)
            guard = world.guard
            node_path = guard._node_path(path)
            (old_sealed, old_plain), (new_sealed, new_plain) = self._versions(world, path)
            restore(world.stores.content, old_sealed)
            forget(world, node_path, "/d/a")
            assert guard._encode_node(guard._load_node(path)) == old_plain
            with pytest.raises(RollbackDetected):
                world.manager.read_content("/d/a")
            if path == "/":  # an older root no longer matches the anchor
                with pytest.raises(RollbackDetected):
                    guard.verify_restored_state()
            # The host puts the fresh node back: a new entry decodes it again.
            restore(world.stores.content, new_sealed)
            forget(world, node_path)
            assert guard._encode_node(guard._load_node(path)) == new_plain
            assert world.manager.read_content("/d/a") == b"first"
            guard.verify_restored_state()

    def test_a_replayed_node_pair_is_caught_at_the_anchor(self, make_world):
        """The older "/d/" and the older "/" that names it replayed together
        agree with each other, not with the anchor."""
        for cache_bytes in CACHES:
            world = make_world(rollback=True, cache_bytes=cache_bytes)
            guard = world.guard
            (old_dir, _), _ = self._versions(world, "/d/")
            old_root = snapshot_matching(world.stores.content, guard._node_path("/"))
            world.handler.put_file("alice", "/d/c", b"third")  # the slots now hold newer nodes
            restore(world.stores.content, old_dir)
            forget(world, guard._node_path("/d/"), "/d/a")
            with pytest.raises(RollbackDetected):
                world.manager.read_content("/d/a")
            restore(world.stores.content, old_root)
            forget(world, guard._node_path("/"))
            with pytest.raises(RollbackDetected):
                world.manager.read_content("/d/a")
            with pytest.raises(RollbackDetected):
                guard.verify_restored_state()

    def test_a_peer_close_over_a_shared_store_is_decoded_fresh(self, make_world):
        """Two replicas over one store: each holds the nodes it last saw, and
        the peer's close rewrites them under it.  With caches, the peer's
        published keys discard the entries, and their slots go with them."""
        for cache_bytes in CACHES:
            stores = StoreSet.in_memory()
            first = make_world(rollback=True, stores=stores, cache_bytes=cache_bytes)
            second = make_world(rollback=True, stores=stores, cache_bytes=cache_bytes)
            if cache_bytes is not None:
                board = CoherenceBoard(capacity=64)
                for world in (first, second):
                    engine = world.manager.engine
                    engine.attach_coherence(CoherenceManager(board, ROOT_KEY, engine))
            first.request("alice", Op.PUT_DIR, "/d/")
            assert second.manager.read_dir("/d/").children == []
            node_paths = {path: second.guard._node_path(path) for path in ("/", "/d/")}
            seen = {path: second.manager.content.raw_read(node) for path, node in node_paths.items()}
            first.handler.put_file("alice", "/d/f", b"from the peer")
            for path, node_path in node_paths.items():
                plain = first.manager.content.raw_read(node_path)  # what the peer's close wrote
                assert seen[path] != plain
                assert second.guard._encode_node(second.guard._load_node(path)) == plain
            assert second.guard.root_hash() == first.guard.root_hash()
            assert second.manager.read_content("/d/f") == b"from the peer"
            second.guard.verify_restored_state()


class TestGroupStoreGuard:
    def test_member_list_rollback_detected(self, guarded):
        """The paper's headline attack: an old member list would let a
        revoked user regain access."""
        store = guarded.stores.group
        guarded.handler.put_file("alice", "/f", b"secret")
        guarded.request("alice", Op.ADD_USER, "bob", "eng")
        old_member_list = snapshot_matching(store, "member:bob")
        guarded.request("alice", Op.RMV_USER, "bob", "eng")
        restore(store, old_member_list)
        with pytest.raises(RollbackDetected):
            guarded.access.user_groups("bob")

    def test_group_list_rollback_detected(self, guarded):
        store = guarded.stores.group
        guarded.request("alice", Op.ADD_USER, "bob", "eng")
        old = snapshot_matching(store, "grouplist")
        guarded.request("alice", Op.ADD_USER, "bob", "sales")
        restore(store, old)
        with pytest.raises(RollbackDetected):
            guarded.access.exists_g("sales")

    def test_replayed_shorter_node_is_detected_once_evicted(self, make_world):
        """The group node from before an ``add_user`` stores fewer buckets.
        Replayed and evicted from the enclave cache, it fails the next read."""
        world = make_world(rollback=True, buckets=64, cache_bytes=1 << 20)
        world.request("alice", Op.ADD_USER, "bob", "eng")
        mount, node_path = world.manager.group, world.group_guard._node_path("/")
        shorter = mount.raw_read(node_path)
        old = snapshot_matching(world.stores.group, node_path)
        world.request("alice", Op.ADD_USER, "carol", "ops")
        assert len(mount.raw_read(node_path)) > len(shorter)
        restore(world.stores.group, old)
        assert "eng" in world.access.user_groups("bob")
        for path in (node_path, member_list_path("bob")):
            world.manager.engine.cache.discard(mount.namespace, path)
        with pytest.raises(RollbackDetected):
            world.access.user_groups("bob")

    def test_verify_checks_only_the_targets_bucket(self, make_world, monkeypatch):
        """Counts, not seconds: with 200 member lists, verifying one looks
        up the registry plus the leaves in the target's bucket only."""
        world = make_world(rollback=True, buckets=16)
        for i in range(200):
            world.request("alice", Op.ADD_USER, f"u{i:03d}", "eng")
        guard = world.group_guard
        target = member_list_path("u007")
        leaves = guard._leaves()
        assert len(leaves) == 203  # group list, registry, alice and 200 members
        in_bucket = [leaf for leaf in leaves if guard._bucket_of(leaf) == guard._bucket_of(target)]
        data = guard._mount._load(target)
        checks = []
        original = Mount.raw_exists

        def counting(self, path):
            checks.append(path)
            return original(self, path)

        monkeypatch.setattr(Mount, "raw_exists", counting)
        guard.verify_read(target, guard._mount._content_hash(data))
        assert len(checks) == 1 + len(in_bucket)  # the parent made 204


class TestAnchoring:
    def test_root_hash_changes_with_every_write(self, guarded):
        hashes = [guarded.guard.root_hash()]
        guarded.handler.put_file("alice", "/a", b"1")
        hashes.append(guarded.guard.root_hash())
        guarded.handler.put_file("alice", "/a", b"2")
        hashes.append(guarded.guard.root_hash())
        assert len(set(hashes)) == 3

    def test_recompute_matches_incremental(self, guarded):
        guarded.request("alice", Op.PUT_DIR, "/d/")
        guarded.handler.put_file("alice", "/d/f", b"x")
        guarded.handler.put_file("alice", "/g", b"y")
        guarded.request("alice", Op.REMOVE, "/g")
        assert guarded.guard.recompute_main() == guarded.guard.root_hash()

    def test_rebuild_restores_verifiability(self, make_world):
        """Enabling the guard over an existing unguarded share: its first
        boot builds the nodes from storage."""
        stores = StoreSet.in_memory()
        plain = make_world(stores=stores)
        plain.handler.put_dir("alice", "/d/")
        plain.handler.put_file("alice", "/d/f", b"migrated")
        anchor = FileSystemAnchor(plain.manager, plain.enclave, plain.locks)
        guard = RollbackGuard(plain.manager, ROOT_KEY, anchor, buckets=16)
        anchor.boot()
        plain.manager.content.guard = guard
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
        world.request("alice", Op.ADD_USER, "bob", "eng")
        world.group_guard.anchor.accept_current_state()
        assert "eng" in world.access.user_groups("bob")

    def test_new_users_survive_bucket_collisions(self, make_world):
        """Regression: a new user's member list used to enter its guard
        bucket before the user was in the registry, so leaf enumeration
        (registry-driven) missed it — the first user whose member list
        collided with the registry's bucket broke every verify of that
        bucket.  With few buckets, collisions are guaranteed."""
        world = make_world(rollback=True, buckets=2)
        for i in range(12):
            world.request("alice", Op.ADD_USER, f"u{i}", "eng")
            assert "eng" in world.access.user_groups(f"u{i}")
        assert len(world.access.known_users()) == 13  # 12 members + alice


# -- the shared guard core, once per layout ---------------------------------------
#
# Batch lifecycle, pending snapshots, the counter-bound anchor and the
# restore checks are one implementation; every case below drives it
# through the interface both layouts expose, over a counter-bound guard.

@pytest.fixture(params=["fs", "group"])
def counted(request, make_world):
    """One guard with whole-FS protection plus the means to exercise it:
    ``touch()`` mutates its store, ``read()`` is a guarded read of it,
    ``objects`` names the data objects ``touch`` rewrites, and
    ``transaction(label)`` opens the engine span that batches the guard
    (a ``touch`` inside it joins the span instead of committing its own)."""
    world = make_world()
    counter = RoteCounterService(world.enclave.platform.clock, SgxCostModel())
    anchor = FileSystemAnchor(world.manager, world.enclave, world.locks, counter)
    world.manager.content.guard = RollbackGuard(world.manager, ROOT_KEY, anchor, buckets=4)
    world.manager.group.guard = FlatStoreGuard(world.manager, ROOT_KEY, anchor, buckets=4)
    anchor.boot()
    serial = iter(range(1000))
    if request.param == "fs":
        world.handler.put_file("alice", "/f", b"v0")
        return SimpleNamespace(
            guard=world.manager.content.guard,
            anchor=anchor,
            enclave=world.enclave,
            counter=counter,
            store=world.stores.content,
            objects="/f",
            touch=lambda: world.handler.put_file("alice", "/f", b"v%d" % (next(serial) + 1)),
            read=lambda: world.manager.read_content("/f"),
            transaction=world.manager.transaction,
        )
    world.request("alice", Op.ADD_USER, "bob", "g0")
    return SimpleNamespace(
        guard=world.manager.group.guard,
        anchor=anchor,
        enclave=world.enclave,
        counter=counter,
        store=world.stores.group,
        objects="member:bob",
        touch=lambda: world.request("alice", Op.ADD_USER, "bob", "g%d" % (next(serial) + 1)),
        read=lambda: world.access.user_groups("bob"),
        transaction=world.manager.transaction,
    )


def _anchored(counted) -> bytes:
    """The guard's root as the stored anchor names it."""
    return counted.anchor.read()[0][counted.guard._SLOT]


class TestSharedGuardCore:
    def test_batch_defers_nodes_and_anchor_to_commit(self, counted):
        guard, stats, anchor = counted.guard, counted.guard.stats, counted.anchor
        anchored = _anchored(counted)
        before, writes = stats.snapshot(), anchor.writes
        with counted.transaction("batch"):
            counted.touch()
            counted.touch()
            assert (stats.node_saves, anchor.writes) == (before["node_saves"], writes)
            assert guard.pending_root() == guard.root_hash() != anchored
            counted.read()  # verifies against the pending root, in enclave memory
        assert anchor.writes == writes + 1
        assert stats.batches == before["batches"] + 1
        assert stats.last_batch_nodes >= 1
        assert stats.nodes_flushed == before["nodes_flushed"] + stats.last_batch_nodes
        assert guard.pending_root() == b"" and _anchored(counted) == guard.root_hash()
        counted.read()
        guard.verify_restored_state()

    def test_abort_drops_pending_state_and_persists_nothing(self, counted):
        guard = counted.guard
        anchored = _anchored(counted)
        writes = counted.anchor.writes
        with counted.transaction("abort"):
            counted.touch()
            guard.end_batch()
            assert guard.pending_root() == b"" and guard.root_hash() == anchored
            assert counted.anchor.writes == writes
            # The data write itself still stands in the member's buffers
            # (dropping it is the abort's job), so the stored nodes no
            # longer describe what the span reads ...
            with pytest.raises(RollbackDetected):
                guard.verify_restored_state()
            guard.rebuild_nodes()  # ... until they are rebuilt from it
            counted.anchor.accept_current_state()  # and anchored.
            guard.verify_restored_state()
            counted.read()
        guard.verify_restored_state()

    def test_snapshot_restore_rewinds_one_member(self, counted):
        guard = counted.guard
        with counted.transaction("members"):
            counted.touch()
            member_begin = guard.snapshot_pending()
            main = guard.pending_root()
            counted.touch()
            assert guard.pending_root() != main
            guard.restore_pending(member_begin)
            assert guard.pending_root() == guard.root_hash() == main

    def test_snapshot_is_not_aliased_to_the_pending_nodes(self, counted):
        """A snapshot copies buffers: later updates must not reach it, and
        a rewind hands out copies again, so it stays good for a second one."""
        guard = counted.guard

        def encoded(nodes):
            return {path: guard._encode_node(node) for path, node in nodes.items()}

        with counted.transaction("members"):
            counted.touch()
            member_begin = guard.snapshot_pending()
            frozen = encoded(member_begin[0])
            assert frozen
            main = guard.pending_root()
            counted.touch()  # updates the pending nodes in place, through the hooks
            assert guard.root_hash() != main
            assert encoded(member_begin[0]) == frozen
            guard.restore_pending(member_begin)
            assert guard.pending_root() == guard.root_hash() == main
            for node in guard._pending_nodes.values():
                getattr(node, "buckets", node).update(0, None, b"scribble")
            assert guard.root_hash() != main
            assert encoded(member_begin[0]) == frozen
            guard.restore_pending(member_begin)
            assert guard.root_hash() == main

    def test_counter_mismatch_is_a_rollback(self, counted):
        counted.read()
        counted.counter.increment(counted.enclave, COUNTER_ID)  # anchor now stale
        with pytest.raises(RollbackDetected):
            counted.read()
        with pytest.raises(RollbackDetected):
            counted.anchor.verify_fresh()
        counted.anchor.accept_current_state()  # re-counted against the TEE
        counted.read()

    def test_degraded_reads_but_never_a_degraded_freshness_proof(self, counted):
        anchor = counted.anchor
        for replica in (0, 1, 2):
            counted.counter.set_replica_up(replica, False)
        counted.read()  # hash chain verified, counter bound skipped
        assert anchor.degraded_reads == 1
        with pytest.raises(CounterError):
            anchor.verify_fresh()
        counted.read()  # the refusal was scoped to the proof
        assert anchor.degraded_reads == 2
        with pytest.raises(CounterError):
            anchor.accept_current_state()  # an anchor write cannot be re-counted
        for replica in (0, 1, 2):
            counted.counter.set_replica_up(replica, True)
        anchor.verify_fresh()

    def test_restore_check_rejects_a_mixed_snapshot(self, counted):
        counted.guard.verify_restored_state()
        old = snapshot_matching(counted.store, counted.objects)
        counted.touch()
        counted.guard.verify_restored_state()
        restore(counted.store, old)
        with pytest.raises(RollbackDetected):
            counted.guard.verify_restored_state()


# -- stored bytes and hashes may not move ------------------------------------------
#
# Main hashes computed at the commit *before* guard nodes held their
# buckets as one buffer (a list of MSetXorHash objects, a per-bucket
# Writer/Reader codec, 64 incremental MAC updates): they are what is
# anchored, and no codec may move them.  The node bytes are the sparse
# codec's (only non-empty buckets stored), re-based when it replaced the
# dense one; any later change to them is a change of the stored format.
# The content-store leaves are pointer records, which name objects by
# random id, so the script pins the ids.


def scripted_world(make_world, buckets):
    """A fixed script touching every update path of both guards."""
    world = make_world(rollback=True, buckets=buckets)
    handler = world.handler
    world.request("alice", Op.PUT_DIR, "/d/")
    world.request("alice", Op.PUT_DIR, "/d/e/")
    for i in range(6):
        handler.put_file("alice", f"/d/f{i}", b"content-%d" % i)
    handler.put_file("alice", "/d/e/deep", b"deep")
    handler.put_file("alice", "/top", b"top-v1")
    handler.put_file("alice", "/top", b"top-v2")
    world.request("alice", Op.ADD_USER, "bob", "eng")
    world.request("alice", Op.ADD_USER, "carol", "eng")
    world.request("alice", Op.ADD_USER, "carol", "ops")
    world.request("alice", Op.SET_PERM, "/d/", "eng", "r")
    world.request("alice", Op.RMV_USER, "bob", "eng")
    world.request("alice", Op.REMOVE, "/d/f3")
    world.request("alice", Op.MOVE, "/d/f4", "/d/e/moved")
    return world


def _fingerprint(blob: bytes) -> tuple[int, str]:
    return len(blob), hashlib.sha256(blob).hexdigest()


KNOWN_ANSWERS = {
    1: dict(
        nodes={
            "/": (86, "5f7701c99e90936fbf0a9bce2f640c7ddc8abd564919cbd2c9a32d02f73cf82d"),
            "/d/": (88, "19b84ee793b1ac9ea500a3d32f9a1292f26a6aed7d7caef45367d083751f2a3c"),
            "/d/e/": (90, "8a41808328fd4d506d566bb4fea3243332c21f3e952332539791b5e916558d02"),
        },
        fs_main="e9ae5fc324c5e681c878c85725e794db5d4bcce68e73e5cc667a41d73211855e",
        group_node=(45, "99cde0a6bd9c2e2ef508802fd60090bb4ee35c3711318592b972c1c8b88af02d"),
        group_main="8d36bfb062764ee74977bc44b2f357f859fb443b659d9b16a90b5d48454b8b25",
    ),
    16: dict(
        nodes={
            "/": (207, "c5241e67f13c05a89d0764592bac189890e406350718b6d6d89e3c3ca6cde61e"),
            "/d/": (409, "4855ec549af921a951b97ff3e0e4087db589e4a966b1975cf24df02be0afd057"),
            "/d/e/": (211, "be6ea2320863611d1ed142132ec588dd6054e28a83777578d33d47649432e68a"),
        },
        fs_main="529cd49b71d60513e6c5589236294b94b9426eef14eaccc592414708d36b07c6",
        group_node=(166, "4deb983590dfdae9306272683d319f9076a13a26793021344517e61bcf4235da"),
        group_main="17920e1b1888c3c94c6478a6cc67caf4522ec33afaeb37bf2583201c5be4d372",
    ),
    64: dict(
        nodes={
            "/": (213, "578f6d05d4ea126310b507341aba6e96c9e34d855f23cc3aa524991417a276e9"),
            "/d/": (455, "28575d2d27e5ce4b37b17075863a383ba7fb20df63d4cdd00d3caa8b92dcec60"),
            "/d/e/": (217, "9226766f79eefa250883a291ccdc2dc2cadf39560e5134467415e724780c5fe8"),
        },
        fs_main="cd82973b225ba5c1a35cec45b582779e7c0fdd83cd39bc987633e1f2a8da541a",
        group_node=(212, "42c229fb38ec7f0c110d1821f124ed773cbece3e2e6bd99895d32f6d3e516785"),
        group_main="94547a3c9d5d24bb88c0c6459c59458518fc75b6cc3e7fee8cb0ae7711c18656",
    ),
}


class TestKnownAnswers:
    @pytest.mark.parametrize("buckets", sorted(KNOWN_ANSWERS))
    def test_node_bytes_and_main_hashes(self, make_world, numbered_objects, buckets):
        world = scripted_world(make_world, buckets)
        known = KNOWN_ANSWERS[buckets]
        guard, group_guard = world.guard, world.group_guard
        for dir_path, expected in known["nodes"].items():
            stored = world.manager.content.raw_read(guard._node_path(dir_path))
            assert _fingerprint(stored) == expected, dir_path
            assert guard._encode_node(guard._decode_node(stored)) == stored
        assert guard.root_hash().hex() == known["fs_main"]
        stored = world.manager.group.raw_read(group_guard._node_path("/"))
        assert _fingerprint(stored) == known["group_node"]
        assert group_guard._encode_node(group_guard._decode_node(stored)) == stored
        assert group_guard.root_hash().hex() == known["group_main"]
        for each in (guard, group_guard):
            assert each.recompute_main() == each.root_hash() == world.guard.anchor.read()[0][each._SLOT]

    @pytest.mark.parametrize("which", ["fs", "group"])
    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda section: section[:-1], id="truncated"),
            pytest.param(lambda section: section + b"\x00", id="one-trailing-byte"),
            pytest.param(lambda section: section[:-40] + bytes(40), id="stored-empty-value"),
            # The lowest set bit moved to bit 4: the length still agrees.
            pytest.param(
                lambda section: section[:4] + bytes([section[4] & (section[4] - 1) | 0x10]) + section[5:],
                id="bit-past-the-count",
            ),
            pytest.param(lambda section: Writer().u32(9).take() + section[4:], id="count-above-the-body"),
            pytest.param(
                lambda section: dense_encoding(MSetXorBuckets.deserialize(Prf(b""), section)),
                id="dense-blob",
            ),
        ],
    )
    def test_malformed_nodes_are_rejected(self, make_world, which, mangle):
        """Both guards' nodes end in the bucket codec; mangle only that part."""
        world = make_world(rollback=True, buckets=4)
        world.handler.put_file("alice", "/f", b"a child in the root")
        world.request("alice", Op.ADD_USER, "bob", "eng")
        guard = world.guard if which == "fs" else world.group_guard
        mount = world.manager.content if which == "fs" else world.manager.group
        blob = mount.raw_read(guard._node_path("/"))
        node = guard._decode_node(blob)
        section = getattr(node, "buckets", node).serialize()
        assert blob.endswith(section) and section[4] != 0
        with pytest.raises(SerializationError):
            guard._decode_node(blob[: -len(section)] + mangle(section))


def test_node_cost_does_not_follow_the_bucket_count(make_world):
    """Calls, not seconds (the virtual clock already charges per byte):
    decoding, MAC-ing, updating and encoding a node handle one buffer,
    so B = 256 may not cost 2x the Python calls of B = 16."""

    def costs(buckets):
        world = make_world(rollback=True, buckets=buckets)
        world.handler.put_file("alice", "/f", b"v0")
        out = []
        for guard, mount in ((world.guard, world.manager.content), (world.group_guard, world.manager.group)):
            blob = mount.raw_read(guard._node_path("/"))
            node = guard._decode_node(blob)
            vector = getattr(node, "buckets", node)
            guard.begin_batch()
            guard._save_node("/", node)
            out += [
                python_calls(lambda: guard._decode_node(blob)),
                python_calls(lambda: guard._node_main(node)),
                python_calls(lambda: vector.update(buckets - 1, b"old", b"new")),
                python_calls(lambda: guard._encode_node(node)),
                python_calls(guard.snapshot_pending),
            ]
            guard.end_batch()
        return out

    for small, large in zip(costs(16), costs(256)):
        assert large <= 2 * small
