"""Deduplication: single stored copy, refcounts, content addressing."""

import pytest

from repro.core.cache import MetadataCache
from repro.core.coherence import CoherenceManager
from repro.core.dedup import DedupStore
from repro.core.requests import Op, Request, StatInfo, Status
from repro.errors import ProtectedFsError, StorageError
from repro.netsim.coherence import CoherenceBoard
from repro.sgx.protected_fs import ProtectedFs
from repro.storage.backends import InMemoryStore
from repro.storage.stores import StoreSet
from repro.util.serialization import SerializationError

from tests.core.conftest import build_world
from tests.support.calls import python_calls
from tests.support.dedup import stored_records
from tests.support.platform import engine_for, loaded_enclave


def dedup_over(store, deduplicate=True):
    """A standalone dedup store (fresh enclave and engine) over ``store``."""
    enclave = loaded_enclave()
    engine = engine_for(StoreSet(InMemoryStore(), InMemoryStore(), store), enclave)
    pfs = ProtectedFs(store, master_key=bytes(16), enclave=enclave)
    return DedupStore(pfs, bytes(32), engine, deduplicate=deduplicate)


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

    def test_without_dedup_equal_content_stays_apart(self):
        """Plain objects are named by their random id: nothing derived from
        the content is stored, and equal uploads are never shared."""
        store = dedup_over(InMemoryStore(), deduplicate=False)
        first, second = store.put(b"same"), store.put(b"same")
        assert first != second and len(first) == 32 and first != store.h_name(b"same")
        assert store.object_count() == 2 and store.refcount(first) == 1
        assert store.get(first) == store.get(second) == b"same"
        store.release(first)
        assert store.object_count() == 1 and store.get(second) == b"same"

    def test_a_name_never_loaded_is_read_from_storage(self):
        """A replica without a coherence log (paper §V-F) reads an object
        another enclave adopted after it loaded its entries."""
        backend = InMemoryStore()
        reader = dedup_over(backend)
        name = dedup_over(backend, deduplicate=False).put(b"written elsewhere")
        assert reader.get(name) == b"written elsewhere"
        assert reader.refcount(name) == 1

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
        old_object = stored_records(dedup)[h_old][0]
        old_chunks = {
            key: pfs._store.get(key)
            for key in list(pfs._store.keys())
            if key.startswith(old_object)
        }
        dedup.release(h_old)
        h_new = dedup.put(b"v2")
        new_object = stored_records(dedup)[h_new][0]
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
    """Counts, not seconds: a change seals only the record it touched,
    into the span's write buffers inside an engine span and at once
    outside one."""

    @staticmethod
    def _record_io(monkeypatch) -> list[tuple[str, str]]:
        io = []
        write_file, remove = ProtectedFs.write_file, ProtectedFs.remove

        def recording_write(self, path, data):
            if path.startswith("idx:"):
                io.append(("write", path))
            return write_file(self, path, data)

        def recording_remove(self, path):
            if path.startswith("idx:"):
                io.append(("remove", path))
            return remove(self, path)

        monkeypatch.setattr(ProtectedFs, "write_file", recording_write)
        monkeypatch.setattr(ProtectedFs, "remove", recording_remove)
        return io

    def test_overwriting_upload_seals_the_index_once(self, make_world, monkeypatch):
        world = make_world(enable_dedup=True)
        for i in range(20):
            world.handler.put_file("alice", f"/other{i}", b"other %d" % i)
        world.handler.put_file("alice", "/a", b"v1")
        dedup = world.manager.dedup
        io = self._record_io(monkeypatch)
        world.handler.put_file("alice", "/a", b"v2")  # adopts v2, releases v1
        h_v1, h_v2 = dedup.h_name(b"v1"), dedup.h_name(b"v2")
        assert sorted(io) == [("remove", "idx:" + h_v1), ("write", "idx:" + h_v2)]
        records = stored_records(dedup)
        assert h_v1 not in records and records[h_v2][1] == 1 and len(records) == 21
        assert world.manager.read_content("/a") == b"v2"

    def test_a_board_bump_mid_upload_cannot_drop_the_adoption(
        self, make_world, monkeypatch
    ):
        """The host bumps the coherence board between the upload adopting v2
        and the release of v1.  The forced full discard drops cached
        plaintext only; the adoption sits in the span's write buffers, so
        the PUT commits and the records hold it."""
        world = make_world(enable_dedup=True, cache_bytes=64 * 1024)
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
        assert world.handler.put_file("alice", "/a", b"v2").status is Status.OK
        monkeypatch.undo()

        assert engine.coherence.stats.full_discards == 1
        assert world.manager.read_content("/a") == b"v2"
        assert (dedup.refcount(h_v1), dedup.refcount(h_v2)) == (0, 1)
        assert list(stored_records(dedup)) == [h_v2]
        assert stored_records(build_world(enable_dedup=True, stores=world.stores).manager.dedup) == (
            stored_records(dedup)
        )

    def test_a_change_outside_any_span_is_sealed_at_once(self, monkeypatch):
        backend = InMemoryStore()
        dedup = dedup_over(backend)
        io = self._record_io(monkeypatch)
        h_name = dedup.put(b"alone")
        assert io == [("write", "idx:" + h_name)]
        h_other = dedup.put(b"other")
        dedup.release(h_other)
        assert io[1:] == [("write", "idx:" + h_other), ("remove", "idx:" + h_other)]
        assert dedup_over(backend).refcount(h_name) == 1


class TestPeerRereads:
    """A peer keeps no copy of the records: applying a coherence epoch
    discards the cached ones it names, and the peer reads a record again
    only when it next uses it, however many records the store holds."""

    @staticmethod
    def _replica(stores: StoreSet, board: CoherenceBoard) -> DedupStore:
        enclave = loaded_enclave()
        engine = engine_for(stores, enclave, cache=MetadataCache(64 * 1024, enclave.platform.epc))
        engine.attach_coherence(CoherenceManager(board, bytes(32), engine))
        store = DedupStore(ProtectedFs(engine.backends.dedup, master_key=bytes(16), enclave=enclave), bytes(32), engine)
        engine.attach_dedup(store)
        return store

    def test_a_peer_reads_only_the_records_an_epoch_names(self, monkeypatch):
        stores, board = StoreSet.in_memory(), CoherenceBoard()
        writer = self._replica(stores, board)
        with writer._engine.transaction("preload"):
            for i in range(50):
                writer.put(b"entry %d" % i)
        peer = self._replica(stores, board)
        names = list(stored_records(writer))
        assert [peer.refcount(name) for name in names] == [1] * 50  # now cached
        h_old, h_new = writer.h_name(b"entry 7"), writer.h_name(b"fresh")
        with writer._engine.transaction("overwrite"):
            writer.put(b"fresh")
            writer.release(h_old)

        reads = []
        read_file = ProtectedFs.read_file

        def recording(self, path):
            reads.append(path)
            return read_file(self, path)

        monkeypatch.setattr(ProtectedFs, "read_file", recording)
        assert peer.refcount(h_new) == 1  # applies the writer's epoch first
        assert peer.refcount(h_old) == 0
        assert [peer.refcount(name) for name in names if name != h_old] == [1] * 49
        assert reads == ["idx:" + h_new]  # the released record is gone, not read
        assert stored_records(peer) == stored_records(writer)


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
        assert self._object_keys(store) == {stored_records(restarted)[kept][0]}
        assert restarted.get(kept) == b"indexed content" * 1000
        assert restarted.sweep_orphans() == 0

    def test_remove_that_crashed_after_the_meta_delete_is_swept(self):
        store = InMemoryStore()
        dedup = self._reopened(store)
        kept = dedup.put(b"still referenced")
        upload = dedup.begin_upload()
        upload.write(b"a" * (2 * 4096 + 1))
        upload._handle.close()  # sealed, about to be dropped by abort() ...
        store.delete(upload._object_id + "\x00meta")  # ... which got this far:
        assert store.exists(upload._object_id + "\x00data")  # the data value outlives the node

        restarted = self._reopened(store)
        assert restarted.sweep_orphans() == 1
        assert self._object_keys(store) == {stored_records(restarted)[kept][0]}

    def test_sealed_but_unreferenced_object_is_still_swept(self):
        store = InMemoryStore()
        dedup = self._reopened(store)
        upload = dedup.begin_upload()
        upload.write(b"closed, never committed")
        upload._handle.close()
        restarted = self._reopened(store)
        assert restarted.sweep_orphans() == 1
        assert self._object_keys(store) == set()


# -- the records' bytes may not move -------------------------------------------------
#
# One protected file ``idx:<hName>`` per entry, holding ``str object id ||
# u32 refcount``.  Object ids are random; the script pins them
# (``numbered_objects``, tests/core/conftest.py).


H_ALPHA = "2d2d7a188391eb25e2c8fd973356e1f9343ee2b74837591dfa8bfa0065b78464"
H_BETA = "b119f13a4001f7ac541127bc8ae723bb5e2e381d3667d48ccf40a6575ddea90b"
H_GAMMA = "fcee629ec02a614e1fad18d883553a0b0fd80350f7a2557c6a6ad69727126309"


def record_hex(object_number: int, refcount: int) -> str:
    return "00000024" + (b"obj:%032x" % object_number).hex() + "%08x" % refcount


RECORDS_AFTER = [  # (step, {hName: (object number, refcount)}) of the stored records
    ("commit a", {H_ALPHA: (0, 1)}),
    ("commit b", {H_ALPHA: (0, 1), H_BETA: (1, 1)}),
    ("duplicate a", {H_ALPHA: (0, 2), H_BETA: (1, 1)}),
    ("commit c", {H_ALPHA: (0, 2), H_BETA: (1, 1), H_GAMMA: (3, 1)}),
    ("release a", {H_ALPHA: (0, 1), H_BETA: (1, 1), H_GAMMA: (3, 1)}),
    ("last release b", {H_ALPHA: (0, 1), H_GAMMA: (3, 1)}),
    ("add_reference c", {H_ALPHA: (0, 1), H_GAMMA: (3, 2)}),
]
FINAL_RECORDS_HEX = {
    "idx:" + H_ALPHA: "00000024" + b"obj:00000000000000000000000000000000".hex() + "00000001",
    "idx:" + H_GAMMA: "00000024" + b"obj:00000000000000000000000000000003".hex() + "00000002",
}


def stored_record_hex(dedup: DedupStore) -> dict[str, str]:
    return {path: dedup._pfs.read_file(path).hex() for path in sorted(dedup._pfs.owners("idx:"))}


class TestIndexBytes:
    def test_known_answer_index_after_each_step(self, dedup, numbered_objects):
        steps = iter(RECORDS_AFTER)

        def check():
            step, entries = next(steps)
            expected = {"idx:" + h: record_hex(*entry) for h, entry in entries.items()}
            assert stored_record_hex(dedup) == expected, step

        assert dedup.put(b"alpha") == H_ALPHA
        check()
        assert dedup.put(b"beta") == H_BETA
        check()
        dedup.put(b"alpha")
        check()
        assert dedup.put(b"gamma") == H_GAMMA
        check()
        dedup.release(H_ALPHA)
        check()
        dedup.release(H_BETA)
        check()
        dedup.add_reference(H_GAMMA)
        check()
        assert stored_record_hex(dedup) == FINAL_RECORDS_HEX
        assert not any(key.startswith("idx:" + H_BETA) for key in dedup._pfs._store.keys())

    def test_reloaded_index_stores_the_same_bytes(self, numbered_objects):
        """A store opened over the records (a restart) re-seals each one to
        the bytes it read."""
        backend = InMemoryStore()
        dedup = dedup_over(backend)
        for i in range(20):
            dedup.put(b"content-%d" % (i % 13))
        stored = stored_record_hex(dedup)
        reloaded = dedup_over(backend)
        for name in stored_records(reloaded):
            reloaded.add_reference(name)
            reloaded.release(name)
        assert stored_record_hex(reloaded) == stored

    def test_sealing_a_change_does_not_cost_per_entry(self):
        """Calls, not seconds: a change reads and writes the one record it
        touches, so with 2 000 stored records it costs the Python calls it
        costs with 50."""

        def cost(entries):
            engine = engine_for(StoreSet.in_memory(), loaded_enclave())
            store = DedupStore(
                ProtectedFs(engine.backends.dedup, master_key=bytes(16), enclave=engine.enclave),
                bytes(32),
                engine,
            )
            with engine.transaction("preload"):
                for i in range(entries):
                    store._commit("obj:%032x" % i, "%064x" % i)

            def change():
                # Two fresh records: the PAE's per-key context cache then
                # misses alike at both sizes.
                with engine.transaction("change"):
                    for i in (entries, entries + 1):
                        store._commit("obj:%032x" % i, "%064x" % i)

            return python_calls(change)

        assert cost(2000) == cost(50)

    def test_trailing_bytes_in_the_index_are_rejected(self, dedup):
        h_name = dedup.put(b"x")
        path = "idx:" + h_name
        dedup._pfs.write_file(path, dedup._pfs.read_file(path) + b"\x00")
        with pytest.raises(SerializationError):
            dedup.refcount(h_name)
        with pytest.raises(SerializationError):
            dedup.sweep_orphans()


# -- a host that lies about the dedup store ------------------------------------------
#
# A record is bound to its hName, not kept fresh.  Between requests the host
# replays, deletes or mixes records; every replica reads a record each time it
# uses one, and a restart's sweep reads all of them.  Whatever they read,
# every GET, size and STAT answers the model's bytes or a typed error — never
# other content, never an unhandled exception.

A, B, X = b"alpha content" * 300, b"beta content", b"released content"


def assert_serves_model(world, model: dict[str, bytes]) -> None:
    manager = world.manager

    def streamed(path):
        size, chunks = manager.iter_content(path)
        data = b"".join(chunks)
        assert size == len(data)
        return data

    for path, content in model.items():
        for read, expected in (
            (manager.read_content, content),
            (streamed, content),
            (manager.content_size, len(content)),
        ):
            try:
                answer = read(path)
            except (StorageError, ProtectedFsError):
                continue
            assert answer == expected, (read, path)
        response = world.handler.handle("alice", Request(op=Op.STAT, args=(path,)))
        if response.status is Status.OK:
            assert StatInfo.deserialize(response.payload).size == len(content)
        else:
            assert response.status is Status.ERROR


class _Share:
    """A writer and a peer replica over one store, and the model of the share."""

    def __init__(self) -> None:
        self.stores = StoreSet.in_memory()
        self.board = CoherenceBoard()
        self.writer, self.peer = self.replica(), self.replica()
        self.model: dict[str, bytes] = {}
        self.put("/a", A)
        self.put("/b", B)
        assert_serves_model(self.peer, self.model)  # the peer is current

    def replica(self, enable_dedup: bool = True):
        world = build_world(enable_dedup=enable_dedup, stores=self.stores)
        engine = world.manager.engine
        engine.attach_coherence(CoherenceManager(self.board, bytes(32), engine))
        return world

    def put(self, path: str, content: bytes, world=None) -> None:
        world = world or self.writer
        assert world.handler.put_file("alice", path, content).status is Status.OK
        self.model[path] = content

    def remove(self, path: str, world=None) -> bool:
        world = world or self.writer
        response = world.handler.handle("alice", Request(op=Op.REMOVE, args=(path,)))
        if response.status is Status.OK:
            del self.model[path]
            return True
        assert response.status is Status.ERROR
        return False

    def h_name(self, content: bytes) -> str:
        return self.writer.manager.dedup.h_name(content)

    def keys(self, owner: str) -> dict[str, bytes]:
        dedup = self.stores.dedup
        return {key: dedup.get(key) for key in dedup.scan(owner + "\x00")}

    def record(self, content: bytes) -> dict[str, bytes]:
        return self.keys("idx:" + self.h_name(content))

    def put_plain(self, path: str, content: bytes) -> str:
        """Upload through a replica without dedup; returns the object's name."""
        plain = self.replica(enable_dedup=False)
        self.put(path, content, plain)
        return plain.manager._pointer_target(path)

    def write(self, keys: dict[str, bytes]) -> None:
        for key, value in keys.items():
            self.stores.dedup.put(key, value)

    def restart(self):
        """A fresh enclave over the store, as a restart builds and sweeps
        it — or None when it refuses to start with a typed error."""
        try:
            world = build_world(enable_dedup=True, stores=self.stores)
            world.manager.dedup.sweep_orphans()
        except (StorageError, ProtectedFsError):
            return None
        assert_serves_model(world, self.model)
        return world


class TestByzantineRecords:
    def test_an_older_record_with_a_lower_refcount(self):
        share = _Share()
        older = share.record(A)  # one reference
        share.put("/c", A)
        share.write(older)
        assert_serves_model(share.peer, share.model)
        assert share.peer.manager.dedup.refcount(share.h_name(A)) == 1
        # The replayed count lets the peer reclaim A with /c still on it:
        # from here /c fails typed — lost, never wrong.
        assert share.remove("/a", share.peer)
        with pytest.raises(StorageError):
            share.peer.manager.read_content("/c")
        for world in (share.peer, share.writer, share.restart()):
            assert_serves_model(world, share.model)

    def test_an_older_record_with_a_higher_refcount(self):
        share = _Share()
        share.put("/c", A)
        older = share.record(A)  # two references
        assert share.remove("/c")
        share.write(older)
        assert_serves_model(share.peer, share.model)
        assert share.remove("/a", share.peer)
        # A leaked object, not a lost one.
        assert share.peer.manager.dedup.refcount(share.h_name(A)) == 1
        restarted = share.restart()
        assert restarted.manager.dedup.refcount(share.h_name(A)) == 1
        share.put("/a", A, restarted)
        assert restarted.manager.read_content("/a") == A

    def test_a_deleted_record(self):
        share = _Share()
        share.put("/d", B)
        for key in share.record(B):
            share.stores.dedup.delete(key)
        assert_serves_model(share.peer, share.model)
        with pytest.raises(StorageError):
            share.peer.manager.read_content("/b")
        assert not share.remove("/b", share.peer)
        restarted = share.restart()
        assert restarted.manager.dedup.refcount(share.h_name(B)) == 0
        assert_serves_model(share.writer, share.model)

    def test_a_record_copied_under_another_name(self):
        share = _Share()
        share.put("/d", B)
        h_a, h_b = share.h_name(A), share.h_name(B)
        share.write({key.replace(h_a, h_b): value for key, value in share.record(A).items()})
        # The record's file key is derived from its name: the peer cannot
        # open B's record, so every read of B fails typed, and A's own
        # record still serves /a.
        for path in ("/b", "/d"):
            with pytest.raises(ProtectedFsError):
                share.peer.manager.read_content(path)
        assert share.peer.manager.read_content("/a") == A
        assert_serves_model(share.peer, share.model)
        assert not share.remove("/b", share.peer)
        assert share.remove("/a", share.peer)
        assert_serves_model(share.writer, share.model)
        assert share.restart() is None  # its sweep reads B's record

    def test_a_released_object_and_its_record_replayed(self):
        share = _Share()
        share.put("/x", X)
        record = share.record(X)
        obj = share.keys(stored_records(share.writer.manager.dedup)[share.h_name(X)][0])
        assert share.remove("/x")
        assert not share.record(X) and not share.stores.dedup.exists(next(iter(obj)))
        share.write(record)
        share.write(obj)
        assert_serves_model(share.peer, share.model)
        # The resurrected object holds exactly X, so adopting it is correct.
        share.put("/y", X, share.peer)
        assert share.peer.manager.read_content("/y") == X
        restarted = share.restart()
        assert restarted.manager.read_content("/y") == X
        assert_serves_model(share.writer, share.model)

    # A plain object's record is named by the object's random id.  The host
    # has the same moves against it, with the same outcome.

    def test_a_released_plain_record_and_its_object_replayed(self):
        share = _Share()
        name = share.put_plain("/p", X)
        assert len(name) == 32
        record, obj = share.keys("idx:" + name), share.keys("obj:" + name)
        share.put_plain("/p", B)  # releases the first object
        assert not share.keys("idx:" + name) and not share.keys("obj:" + name)
        share.write(record)
        share.write(obj)
        assert_serves_model(share.peer, share.model)
        restarted = share.restart()
        # A leaked object nothing points at, and no identical upload
        # is ever deduplicated against it.
        assert restarted.manager.dedup.refcount(name) == 1
        share.put("/y", X, restarted)
        assert restarted.manager._pointer_target("/y") == share.h_name(X)
        assert restarted.manager.read_content("/y") == X

    def test_a_deleted_plain_record(self):
        share = _Share()
        name = share.put_plain("/p", X)
        for key in share.keys("idx:" + name):
            share.stores.dedup.delete(key)
        with pytest.raises(StorageError):
            share.peer.manager.read_content("/p")
        assert_serves_model(share.peer, share.model)
        assert not share.remove("/p", share.peer)
        restarted = share.restart()
        assert restarted.manager.dedup.refcount(name) == 0
        assert not share.keys("obj:" + name)  # swept: nothing references it

    def test_a_plain_record_swapped_with_a_content_addressed_one(self):
        share = _Share()
        share.put("/c", A)
        name = share.put_plain("/p", X)
        h_a = share.h_name(A)
        plain_record, addressed_record = share.keys("idx:" + name), share.record(A)
        share.write({key.replace(name, h_a): value for key, value in plain_record.items()})
        share.write({key.replace(h_a, name): value for key, value in addressed_record.items()})
        for path in ("/a", "/p"):
            with pytest.raises(ProtectedFsError):
                share.peer.manager.read_content(path)
        assert_serves_model(share.peer, share.model)
        assert share.restart() is None  # its sweep reads both records
