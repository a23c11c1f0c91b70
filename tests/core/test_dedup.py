"""Deduplication: single stored copy, refcounts, content addressing."""

import pytest

from repro.core.dedup import DedupStore
from repro.errors import StorageError
from repro.sgx.protected_fs import ProtectedFs
from repro.storage.backends import InMemoryStore


@pytest.fixture()
def dedup():
    return DedupStore(ProtectedFs(InMemoryStore(), master_key=bytes(16)), bytes(32))


class TestStoreLevel:
    def test_identical_content_stored_once(self, dedup):
        h1 = dedup.put(b"same bytes")
        h2 = dedup.put(b"same bytes")
        assert h1 == h2
        assert dedup.object_count() == 1
        assert dedup.refcount(h1) == 2

    def test_different_content_different_names(self, dedup):
        assert dedup.put(b"a") != dedup.put(b"b")
        assert dedup.object_count() == 2

    def test_get_returns_content(self, dedup):
        h = dedup.put(b"payload")
        assert dedup.get(h) == b"payload"

    def test_release_reclaims_at_zero(self, dedup):
        h = dedup.put(b"x")
        dedup.put(b"x")
        dedup.release(h)
        assert dedup.refcount(h) == 1
        dedup.release(h)
        assert dedup.refcount(h) == 0
        with pytest.raises(StorageError):
            dedup.get(h)

    def test_streaming_upload_matches_oneshot(self, dedup):
        upload = dedup.begin_upload()
        upload.write(b"part1")
        upload.write(b"part2")
        h_streamed = upload.finish()
        assert h_streamed == dedup.put(b"part1part2")

    def test_aborted_upload_leaves_nothing(self, dedup):
        upload = dedup.begin_upload()
        upload.write(b"doomed")
        upload.abort()
        assert dedup.object_count() == 0

    def test_rolled_back_object_detected(self, dedup):
        """Content addressing doubles as rollback protection: replaying an
        older object under a name fails the HMAC recomputation."""
        h_old = dedup.put(b"v1")
        pfs = dedup._pfs
        old_object = dedup._index[h_old][0]
        old_chunks = {
            key: pfs._store.get(key)
            for key in list(pfs._store.keys())
            if key.startswith(old_object)
        }
        dedup.release(h_old)
        h_new = dedup.put(b"v2")
        new_object = dedup._index[h_new][0]
        # The provider substitutes v1's payload for v2's object.  Either
        # layer may catch it first: the protected FS (chunk AAD binds the
        # object id) or the dedup store's content-address recheck.
        from repro.errors import ProtectedFsError

        for key, value in old_chunks.items():
            pfs._store.put(key.replace(old_object, new_object), value)
        with pytest.raises((StorageError, ProtectedFsError)):
            dedup.get(h_new)

    def test_index_survives_reload(self):
        backend = InMemoryStore()
        pfs = ProtectedFs(backend, master_key=bytes(16))
        store = DedupStore(pfs, bytes(32))
        h = store.put(b"persisted")
        reloaded = DedupStore(ProtectedFs(backend, master_key=bytes(16)), bytes(32))
        assert reloaded.get(h) == b"persisted"
        assert reloaded.refcount(h) == 1


class TestSystemLevel:
    def test_two_files_one_copy(self, make_world):
        world = make_world(enable_dedup=True)
        world.handler.put_file("alice", "/a", b"shared content" * 100)
        world.handler.put_file("bob", "/b", b"shared content" * 100)
        assert world.manager.dedup.object_count() == 1
        # Both read their own path and get the content.
        assert world.manager.read_content("/a") == b"shared content" * 100
        assert world.manager.read_content("/b") == b"shared content" * 100

    def test_cross_group_dedup_with_independent_permissions(self, make_world):
        """The paper's point: deduplication across groups, yet revocation
        still needs no re-encryption and does not affect the other group."""
        world = make_world(enable_dedup=True)
        world.handler.put_file("alice", "/a", b"doc")
        world.handler.put_file("alice", "/b", b"doc")
        world.handler.add_user("alice", "bob", "g1")
        world.handler.add_user("alice", "carol", "g2")
        world.handler.set_permission("alice", "/a", "g1", "r")
        world.handler.set_permission("alice", "/b", "g2", "r")
        world.handler.remove_user("alice", "bob", "g1")
        assert world.access.auth_f("carol", None, "/b") is False  # not owner
        assert world.manager.dedup.object_count() == 1

    def test_delete_releases_reference(self, make_world):
        world = make_world(enable_dedup=True)
        world.handler.put_file("alice", "/a", b"data")
        world.handler.put_file("alice", "/b", b"data")
        world.handler.remove("alice", "/a")
        assert world.manager.read_content("/b") == b"data"
        world.handler.remove("alice", "/b")
        assert world.manager.dedup.object_count() == 0

    def test_overwrite_repoints(self, make_world):
        world = make_world(enable_dedup=True)
        world.handler.put_file("alice", "/a", b"v1")
        world.handler.put_file("alice", "/a", b"v2")
        assert world.manager.read_content("/a") == b"v2"
        assert world.manager.dedup.object_count() == 1  # v1 reclaimed

    def test_move_keeps_single_copy(self, make_world):
        world = make_world(enable_dedup=True)
        world.handler.put_file("alice", "/a", b"data")
        world.handler.put_file("alice", "/b", b"data")
        world.handler.move("alice", "/a", "/c")
        assert world.manager.read_content("/c") == b"data"
        assert world.manager.dedup.object_count() == 1

    def test_storage_savings_measurable(self, make_world):
        with_dedup = make_world(enable_dedup=True)
        without = make_world(enable_dedup=False)
        content = bytes(50_000)
        for world in (with_dedup, without):
            for i in range(10):
                world.handler.put_file("alice", f"/f{i}", content)
        used_with = sum(with_dedup.manager.stored_bytes().values())
        used_without = sum(without.manager.stored_bytes().values())
        assert used_with < used_without / 5


class TestSweepOrphans:
    """A crash strands `obj:` keys the index never adopted — and a stranded
    upload has chunks but no metadata yet, so the sweep must not depend on
    metadata to find (or to remove) them."""

    @staticmethod
    def _object_keys(store) -> set[str]:
        return {key.partition("\x00")[0] for key in store.keys() if key.startswith("obj:")}

    def _reopened(self, store):
        return DedupStore(ProtectedFs(store, master_key=bytes(16)), bytes(32))

    def test_upload_that_crashed_after_k_chunks_is_swept(self):
        store = InMemoryStore()
        dedup = self._reopened(store)
        kept = dedup.put(b"indexed content" * 1000)
        upload = dedup.begin_upload()
        upload.write(b"s" * (3 * 4096 + 5))  # three chunks flushed, then the crash
        assert len(self._object_keys(store)) == 2
        assert not dedup._pfs.exists(upload._object_id)  # no metadata: list_paths is blind

        restarted = self._reopened(store)
        assert restarted.sweep_orphans() == 1
        assert self._object_keys(store) == {restarted._index[kept][0]}
        assert restarted.get(kept) == b"indexed content" * 1000
        assert restarted.sweep_orphans() == 0

    def test_remove_that_crashed_after_the_meta_delete_is_swept(self):
        store = InMemoryStore()
        dedup = self._reopened(store)
        kept = dedup.put(b"still referenced")
        upload = dedup.begin_upload()
        upload.write(b"a" * (2 * 4096 + 1))
        upload._handle.close()  # sealed, about to be dropped by abort() ...
        store.delete(upload._object_id + "\x00meta")  # ... which got this far
        store.delete(upload._object_id + "\x00chunk\x000")

        restarted = self._reopened(store)
        assert restarted.sweep_orphans() == 1
        assert self._object_keys(store) == {restarted._index[kept][0]}

    def test_sealed_but_unreferenced_object_is_still_swept(self):
        store = InMemoryStore()
        dedup = self._reopened(store)
        upload = dedup.begin_upload()
        upload.write(b"closed, never committed")
        upload._handle.close()
        restarted = self._reopened(store)
        assert restarted.sweep_orphans() == 1
        assert self._object_keys(store) == set()
