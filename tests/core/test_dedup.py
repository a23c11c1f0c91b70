"""Deduplication: single stored copy, refcounts, content addressing."""

import hashlib
import itertools

import pytest

from repro.core.coherence import CoherenceManager
from repro.core.dedup import DedupStore
from repro.core.requests import Status
from repro.errors import StorageError
from repro.netsim.coherence import CoherenceBoard
from repro.sgx.protected_fs import ProtectedFs
from repro.storage.backends import InMemoryStore
from repro.storage.stores import StoreSet
from repro.util.serialization import SerializationError

from tests.support.calls import python_calls
from tests.support.platform import engine_for, loaded_enclave


def dedup_over(store):
    """A standalone dedup store (fresh enclave and engine) over ``store``."""
    enclave = loaded_enclave()
    engine = engine_for(StoreSet(InMemoryStore(), InMemoryStore(), store), enclave)
    return DedupStore(ProtectedFs(store, master_key=bytes(16), enclave=enclave), bytes(32), engine)


@pytest.fixture()
def dedup():
    return dedup_over(InMemoryStore())


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
        h = dedup_over(backend).put(b"persisted")
        reloaded = dedup_over(backend)
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


class TestIndexSeals:
    """Counts, not seconds: inside an engine span the index is sealed once,
    at the span's end; outside one, every change is sealed at once."""

    @staticmethod
    def _index_writes(monkeypatch) -> list[int]:
        writes = []
        original = ProtectedFs.write_file

        def recording(self, path, data):
            if path == "dedup-index":
                writes.append(len(data))
            return original(self, path, data)

        monkeypatch.setattr(ProtectedFs, "write_file", recording)
        return writes

    def test_overwriting_upload_seals_the_index_once(self, make_world, monkeypatch):
        world = make_world(enable_dedup=True)
        world.handler.put_file("alice", "/a", b"v1")
        dedup = world.manager.dedup
        writes = self._index_writes(monkeypatch)
        world.handler.put_file("alice", "/a", b"v2")  # adopts v2, releases v1
        assert len(writes) == 1
        in_memory = dict(dedup._index)
        dedup.reload_index()
        assert dedup._index == in_memory
        assert world.manager.read_content("/a") == b"v2"

    def test_a_board_bump_mid_upload_cannot_drop_the_adoption(
        self, make_world, monkeypatch
    ):
        """The host bumps the coherence board between the upload adopting v2
        and the release of v1.  The forced index reload must not throw away
        the unsealed adoption while the content file commits pointing at
        it: the PUT fails and the share stays at v1."""
        world = make_world(enable_dedup=True)
        engine = world.manager.engine
        board = CoherenceBoard()
        engine.attach_coherence(CoherenceManager(board, bytes(32), engine))
        world.handler.put_file("alice", "/a", b"v1")
        dedup = world.manager.dedup
        h_v1, h_v2 = dedup.h_name(b"v1"), dedup.h_name(b"v2")
        original = DedupStore.release

        def bump_then_release(self, h_name):
            board._epoch += 1  # no entry behind it: a forced full discard
            return original(self, h_name)

        monkeypatch.setattr(DedupStore, "release", bump_then_release)
        assert world.handler.put_file("alice", "/a", b"v2").status is Status.ERROR
        monkeypatch.undo()

        assert not dedup._dirty
        assert world.manager.read_content("/a") == b"v1"
        assert (dedup.refcount(h_v1), dedup.refcount(h_v2)) == (1, 0)
        in_memory = dict(dedup._index)
        dedup.reload_index()
        assert dedup._index == in_memory
        assert world.handler.put_file("alice", "/a", b"v2").status is Status.OK
        assert world.manager.read_content("/a") == b"v2"
        assert (dedup.refcount(h_v1), dedup.refcount(h_v2)) == (0, 1)

    def test_a_change_outside_any_span_is_sealed_at_once(self, monkeypatch):
        backend = InMemoryStore()
        dedup = dedup_over(backend)
        writes = self._index_writes(monkeypatch)
        h_name = dedup.put(b"alone")
        assert len(writes) == 1
        dedup.release(dedup.put(b"other"))
        assert len(writes) == 3
        assert dedup_over(backend).refcount(h_name) == 1


class TestSweepOrphans:
    """A crash strands `obj:` keys the index never adopted — and a stranded
    upload has chunks but no metadata yet, so the sweep must not depend on
    metadata to find (or to remove) them."""

    @staticmethod
    def _object_keys(store) -> set[str]:
        return {key.partition("\x00")[0] for key in store.keys() if key.startswith("obj:")}

    def _reopened(self, store):
        return dedup_over(store)

    def test_upload_that_crashed_after_k_chunks_is_swept(self):
        store = InMemoryStore()
        dedup = self._reopened(store)
        kept = dedup.put(b"indexed content" * 1000)
        upload = dedup.begin_upload()
        upload.write(b"s" * (3 * 4096 + 5))  # three chunks flushed, then the crash
        assert len(self._object_keys(store)) == 2
        assert not dedup._pfs.exists(upload._object_id)  # no metadata: only a key scan sees it

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


# -- the index file's bytes may not move ------------------------------------------
#
# Known answers computed at the commit *before* entries carried their own
# encoding (the whole index went through a Writer, field by field, on
# every store).  Object ids are random; the script pins them.


@pytest.fixture()
def numbered_objects(monkeypatch):
    serial = itertools.count()
    monkeypatch.setattr(
        "repro.core.dedup.secrets.token_hex", lambda nbytes: "%0*x" % (2 * nbytes, next(serial))
    )


INDEX_AFTER = [  # (step, length, sha256) of the stored index after each step
    ("commit a", 116, "f056cd5abbaa5987bb3d3cb4a0f73361eea6bc3340ee87dc07221b61580976b8"),
    ("commit b", 228, "75025cc58dd3c73daab246df0a8854d84b661f1d0fa53f3109e15d3fd2c91155"),
    ("duplicate a", 228, "f160dc9537b069ff079d89ca4a9d555e0448436d90c95c12dfd37bf19cafe114"),
    ("commit c", 340, "84b27a9850aba8df39c71c479061e27f7ec96c42b0c74622ec4a2d377c75cb9c"),
    ("release a", 340, "9bda71db9f65d606277fbe57619808c715c45cec5aa9c1ec37e6a7b80ee9743a"),
    ("last release b", 228, "4ce11dcff28dbedcfa4344a9c98560786ed3ebebc1c3369c3ba0fa5851c20438"),
    ("add_reference c", 228, "800fd5125843ea8e8bada374d9ea03557a071f621eb005babcdf29e614835884"),
]
FINAL_INDEX_HEX = (
    "00000002"
    "00000040" + b"2d2d7a188391eb25e2c8fd973356e1f9343ee2b74837591dfa8bfa0065b78464".hex()
    + "00000024" + b"obj:00000000000000000000000000000000".hex() + "00000001"
    "00000040" + b"fcee629ec02a614e1fad18d883553a0b0fd80350f7a2557c6a6ad69727126309".hex()
    + "00000024" + b"obj:00000000000000000000000000000003".hex() + "00000002"
)


class TestIndexBytes:
    def test_known_answer_index_after_each_step(self, dedup, numbered_objects):
        names = {}
        steps = iter(INDEX_AFTER)

        def check():
            step, length, digest = next(steps)
            blob = dedup._pfs.read_file("dedup-index")
            assert (len(blob), hashlib.sha256(blob).hexdigest()) == (length, digest), step
            return blob

        names["a"] = dedup.put(b"alpha")
        check()
        names["b"] = dedup.put(b"beta")
        check()
        dedup.put(b"alpha")
        check()
        names["c"] = dedup.put(b"gamma")
        check()
        dedup.release(names["a"])
        check()
        dedup.release(names["b"])
        check()
        dedup.add_reference(names["c"])
        assert check().hex() == FINAL_INDEX_HEX

    def test_reloaded_index_stores_the_same_bytes(self, dedup, numbered_objects):
        for i in range(20):
            dedup.put(b"content-%d" % (i % 13))
        stored = dedup._pfs.read_file("dedup-index")
        before = dict(dedup._index)
        dedup.reload_index()
        assert dedup._index == before  # entries and their kept encodings
        dedup._store_index()
        assert dedup._pfs.read_file("dedup-index") == stored

    def test_trailing_bytes_in_the_index_are_rejected(self, dedup):
        dedup.put(b"x")
        blob = dedup._pfs.read_file("dedup-index")
        dedup._pfs.write_file("dedup-index", blob + b"\x00")
        with pytest.raises(SerializationError):
            dedup.reload_index()

    def test_building_the_blob_does_not_cost_per_entry(self):
        """Calls, not seconds: each entry's bytes are encoded once, when
        it changes, so building the blob for 2 000 entries costs the
        Python calls it costs for 50.  The fake file system records the
        write instead of chunking and encrypting it."""

        class RecordingFs:
            def __init__(self):
                self.files = {}

            def exists(self, path):
                return path in self.files

            def write_file(self, path, data):
                self.files[path] = data

        def cost(entries):
            engine = engine_for(StoreSet.in_memory(), loaded_enclave())
            store = DedupStore(RecordingFs(), bytes(32), engine)
            for i in range(entries):
                store._commit("obj:%032x" % i, "%064x" % i)
            return python_calls(store._store_index)

        assert cost(2000) <= cost(50) + 5
