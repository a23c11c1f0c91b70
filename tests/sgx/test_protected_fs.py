"""Protected File System Library clone: chunking, integrity, handles."""

import collections
import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.journal import WriteAheadJournal
from repro.crypto import derive_key
from repro.errors import FaultError, ProtectedFsError
from repro.netsim import ParallelClock, SimClock
from repro.sgx.protected_fs import CHUNK_SIZE, READ_GROUP, ProtectedFs, _Meta
from repro.storage.backends import InMemoryStore
from repro.storage.stores import StoreSet
from repro.store.engine import MAX_BUFFERED_VALUE
from repro.util.serialization import Writer
from tests.support.platform import engine_for, loaded_enclave

KEY = bytes(16)
GROUP_BYTES = READ_GROUP * CHUNK_SIZE


#: A sealed full chunk: IV, ciphertext and tag; chunk i sits at (i - 1) times this.
NODE = CHUNK_SIZE + 28


def _data_key(path):
    """The value holding chunks 1 to n - 1 of ``path``; chunk 0 rides in the node."""
    return path + "\x00data"


def _node_key(path):
    return path + "\x00meta"


def _chunk_blob(store, path, index):
    """Chunk ``index`` (1 or more) of ``path``: its bytes at their offset in the data value."""
    return store.get_range(_data_key(path), (index - 1) * NODE, NODE)


def _blob(store, path, position):
    """The sealed blob at ``position`` of ``path``: 0 is the metadata node."""
    return store.get(_node_key(path)) if position == 0 else _chunk_blob(store, path, position)


def _set_blob(store, path, position, blob):
    """Put ``blob`` where position ``position`` of ``path`` is stored, in place
    of the blob there (a blob of another length shifts those after it)."""
    if position == 0:
        store.put(_node_key(path), blob)
        return
    value, at = store.get(_data_key(path)), (position - 1) * NODE
    store.put(_data_key(path), value[:at] + blob + value[at + len(_chunk_blob(store, path, position)) :])


def _cut_value(store, path, offset):
    """The data value of ``path`` cut short at byte ``offset``."""
    store.put(_data_key(path), store.get(_data_key(path))[:offset])


@pytest.fixture()
def store():
    return InMemoryStore()


@pytest.fixture()
def pfs(store):
    return ProtectedFs(store, master_key=KEY, enclave=loaded_enclave())


class TestRoundTrip:
    @pytest.mark.parametrize(
        "size", [0, 1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 3 * CHUNK_SIZE + 17]
    )
    def test_sizes_round_trip(self, pfs, size):
        data = bytes(i % 256 for i in range(size))
        pfs.write_file("/f", data)
        assert pfs.read_file("/f") == data

    def test_overwrite_shrinks(self, pfs, store):
        pfs.write_file("/f", b"x" * (3 * CHUNK_SIZE))
        assert sorted(store.keys()) == sorted([_node_key("/f"), _data_key("/f")])
        assert store.size(_data_key("/f")) == 2 * NODE
        pfs.write_file("/f", b"y" * (CHUNK_SIZE + 10))
        assert store.size(_data_key("/f")) == 10 + 28  # the ranged write cut the longer value
        pfs.write_file("/f", b"y" * 10)
        assert pfs.read_file("/f") == b"y" * 10
        # The longer version's data value is gone: one blob is left.
        assert list(store.keys()) == [_node_key("/f")]

    def test_exists_and_remove(self, pfs):
        pfs.write_file("/f", b"data")
        assert pfs.exists("/f")
        pfs.remove("/f")
        assert not pfs.exists("/f")
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    def test_stored_size_includes_overhead(self, pfs):
        pfs.write_file("/f", b"x" * 10000)
        stored = pfs.stored_size("/f")
        assert stored > 10000
        assert stored < 10000 * 1.10  # ~1-3% overhead + one meta node


class TestIntegrity:
    def test_ciphertext_is_opaque(self, pfs, store):
        pfs.write_file("/f", b"A" * (2 * CHUNK_SIZE))
        for key in (_node_key("/f"), _data_key("/f")):
            assert b"A" * 16 not in store.get(key)

    def test_tampered_chunk_rejected(self, pfs, store):
        pfs.write_file("/f", b"x" * (2 * CHUNK_SIZE))
        blob = bytearray(_chunk_blob(store, "/f", 1))
        blob[5] ^= 1
        _set_blob(store, "/f", 1, bytes(blob))
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    @staticmethod
    def _swapped_fails(pfs, store, a, b):
        pfs.write_file("/f", bytes(CHUNK_SIZE) + bytes([1]) * CHUNK_SIZE + bytes([2]) * CHUNK_SIZE)
        blob_a, blob_b = _blob(store, "/f", a), _blob(store, "/f", b)
        _set_blob(store, "/f", a, blob_b)
        _set_blob(store, "/f", b, blob_a)
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    def test_chunk_position_swap_rejected(self, pfs, store):
        self._swapped_fails(pfs, store, 1, 2)

    def test_node_and_chunk_swap_rejected(self, pfs, store):
        self._swapped_fails(pfs, store, 0, 1)

    @staticmethod
    def _spliced_fails(pfs, store, position):
        """Another path's blob at the same position: its key and associated
        data bind the other path."""
        pfs.write_file("/f", b"f" * (2 * CHUNK_SIZE))
        pfs.write_file("/g", b"g" * (2 * CHUNK_SIZE))
        _set_blob(store, "/f", position, _blob(store, "/g", position))
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    def test_cross_file_chunk_splice_rejected(self, pfs, store):
        self._spliced_fails(pfs, store, 1)

    def test_cross_file_node_splice_rejected(self, pfs, store):
        self._spliced_fails(pfs, store, 0)

    def test_missing_chunk_rejected(self, pfs, store):
        pfs.write_file("/f", b"x" * (2 * CHUNK_SIZE))
        store.delete(_data_key("/f"))
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    @pytest.mark.parametrize("attack", ["swap-within", "truncate-mid-chunk", "transplant-range", "foreign-value"])
    def test_value_attack_rejected(self, pfs, store, attack):
        """Attacks on the data value as a whole: two chunks swapped inside
        it, the value cut in the middle of a chunk, another object's range
        written at the same offset, and another object's whole value under
        this one's key.  Offsets bind nothing; each chunk's AAD (path and
        index) and the node's tag digest do."""
        data = bytes(index % 251 for index in range(5 * CHUNK_SIZE + 99))
        pfs.write_file("obj:f", data)
        pfs.write_file("obj:g", data)
        value = store.get(_data_key("obj:f"))
        if attack == "swap-within":
            store.put(_data_key("obj:f"), value[NODE : 2 * NODE] + value[:NODE] + value[2 * NODE :])
        elif attack == "truncate-mid-chunk":
            _cut_value(store, "obj:f", 2 * NODE + NODE // 2)
        elif attack == "transplant-range":
            store.put_range(_data_key("obj:f"), NODE, [_chunk_blob(store, "obj:g", 2), value[2 * NODE :]])
        else:
            store.put(_data_key("obj:f"), store.get(_data_key("obj:g")))
        assert store.get(_data_key("obj:f")) != value
        with pytest.raises(ProtectedFsError):
            pfs.read_file("obj:f")
        with pytest.raises(ProtectedFsError):
            with pfs.open_read("obj:f") as reader:
                list(iter(reader.read_chunk, None))
        assert pfs.read_file("obj:g") == data

    def test_meta_tamper_rejected(self, pfs, store):
        pfs.write_file("/f", b"data")
        blob = bytearray(store.get(_node_key("/f")))
        blob[-1] ^= 1
        store.put(_node_key("/f"), bytes(blob))
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    @pytest.mark.parametrize("offset", [60, CHUNK_SIZE // 2, -17], ids=["start", "middle", "end"])
    def test_tampered_head_rejected(self, pfs, store, offset):
        """Chunk 0 rides in the metadata node and is covered by the node's
        own GCM tag: a flipped bit in the head fails the node."""
        pfs.write_file("/f", b"d" * CHUNK_SIZE)
        blob = bytearray(store.get(_node_key("/f")))
        blob[offset] ^= 1
        store.put(_node_key("/f"), bytes(blob))
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    @pytest.mark.parametrize(
        "size, indices",
        [
            (2 * CHUNK_SIZE + 7, (0,)),
            (2 * CHUNK_SIZE + 7, (1,)),
            (2 * CHUNK_SIZE + 7, (2,)),
            (2 * CHUNK_SIZE + 7, (1, 2)),
            (2 * CHUNK_SIZE, (0,)),
            (17 * CHUNK_SIZE, (0,)),
            (40 * CHUNK_SIZE, (0,)),
        ],
        ids=["3-chunks-first", "3-chunks-middle", "3-chunks-short-last", "3-chunks-all",
             "2-chunks-node", "17-chunks-node", "40-chunks-node"],
    )
    def test_rolled_back_chunk_rejected(self, pfs, store, size, indices):
        """Replaying old blobs of the SAME file at the SAME positions passes
        each one's own GCM check, same key and AAD, and is caught by the
        digest of the chunk tags in the node.  Position 0 is the metadata
        node, which carries chunk 0: the previous version's node (old head,
        old digest) over the current chunks 1 to n - 1.  "3-chunks-all" is
        the previous version's whole stored chunk set under the current
        node.  A one-chunk file's node replayed is the whole file rolled
        back, which only the rollback guard can see (tests/core/test_rollback.py
        ``test_one_blob_file_replay_detected``)."""
        pfs.write_file("/f", b"1" * size)
        old_blobs = {index: _blob(store, "/f", index) for index in indices}
        pfs.write_file("/f", b"2" * size)
        for index, blob in old_blobs.items():
            _set_blob(store, "/f", index, blob)
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    def test_different_master_keys_isolate(self, store):
        a = ProtectedFs(store, master_key=bytes(16), enclave=loaded_enclave())
        b = ProtectedFs(store, master_key=bytes(15) + b"\x01", enclave=loaded_enclave())
        a.write_file("/f", b"secret")
        with pytest.raises(ProtectedFsError):
            b.read_file("/f")


class TestGroupAttacks:
    """Store attacks at positions 0 (the metadata node, which carries chunk
    0), 15, 16 and the last of a 40-chunk file (three read groups: 16 + 16 +
    8 chunks), read group by group.

    Each attack on a stored chunk raises :class:`ProtectedFsError` at the
    group it lands in, releases no plaintext of that group (the groups
    before it were complete and verified), and leaves the handle closable,
    so that a writer can open the file afterwards.  An attack on the node
    fails the open, except a replay of the node, which the tag digest
    catches before the last group.
    """

    CHUNKS = 40
    POSITIONS = (0, 15, 16, 39)

    @staticmethod
    def _data():
        return b"".join(bytes([index]) * CHUNK_SIZE for index in range(TestGroupAttacks.CHUNKS))

    @staticmethod
    def _swap(store, a, b):
        blob_a, blob_b = _blob(store, "/f", a), _blob(store, "/f", b)
        _set_blob(store, "/f", a, blob_b)
        _set_blob(store, "/f", b, blob_a)

    def _attack(self, pfs, store, kind, position):
        """Mount the attack; returns the index of the chunk whose group
        fails, or None if the open fails.  A chunk is attacked at its
        offset in the data value; deleting it cuts the value there."""
        failing = None if position == 0 else position
        if kind == "tamper":
            blob = bytearray(_blob(store, "/f", position))
            blob[20] ^= 1
            _set_blob(store, "/f", position, bytes(blob))
            return failing
        if kind == "delete":
            if position == 0:
                store.delete(_node_key("/f"))
            else:
                _cut_value(store, "/f", (position - 1) * NODE)
            return failing
        if kind == "splice":  # another path's blob at the same position
            pfs.write_file("/g", self._data())
            _set_blob(store, "/f", position, _blob(store, "/g", position))
            return failing
        if kind == "swap-in-group":
            partner = position ^ 1  # 0<->1, 15<->14, 16<->17, 39<->38
            self._swap(store, position, partner)
            return None if 0 in (position, partner) else min(position, partner)
        if kind == "swap-across-groups":
            partner = position + READ_GROUP if position + READ_GROUP < self.CHUNKS else position - READ_GROUP
            self._swap(store, position, partner)
            return None if 0 in (position, partner) else min(position, partner)
        # replay: the same file's older blob at the same position passes its
        # own GCM check; the tag digest catches it before the last group.
        old = _blob(store, "/f", position)
        pfs.write_file("/f", self._data())
        _set_blob(store, "/f", position, old)
        return self.CHUNKS - 1

    @pytest.mark.parametrize("position", POSITIONS)
    @pytest.mark.parametrize("kind", ["tamper", "delete", "splice", "swap-in-group", "swap-across-groups", "replay"])
    def test_attack_fails_its_group(self, pfs, store, kind, position):
        data = self._data()
        pfs.write_file("/f", data)
        failing = self._attack(pfs, store, kind, position)
        if failing is None:
            with pytest.raises(ProtectedFsError):
                pfs.open_read("/f")
            pfs.open_write("/f").close()
            return
        released = []
        reader = pfs.open_read("/f")
        with pytest.raises(ProtectedFsError) as raised:
            while (group := reader.read_chunk()) is not None:
                released.append(group)
        if kind == "delete":
            assert f"chunk {position} " in str(raised.value)
        # Exactly the groups before the failing one came out, each intact.
        assert len(released) == failing // READ_GROUP
        assert released == [data[i * GROUP_BYTES : (i + 1) * GROUP_BYTES] for i in range(len(released))]
        reader.close()
        pfs.open_write("/f").close()


class _FlakyStore(InMemoryStore):
    """Raises a transient fault on the next read of a key containing ``armed``, once."""

    armed = ""

    def _flake(self, key):
        if self.armed and self.armed in key:
            self.armed = ""
            raise FaultError("injected: store unavailable")

    def get(self, key):
        self._flake(key)
        return super().get(key)

    def get_range(self, key, offset, length):
        self._flake(key)
        return super().get_range(key, offset, length)


def test_transient_fault_on_a_chunk_get_stays_retryable():
    """A store fault while a group loads is not a missing chunk: it reaches
    the caller as the retryable FaultError, and the handle still works."""
    store = _FlakyStore()
    pfs = ProtectedFs(store, master_key=KEY, enclave=loaded_enclave())
    data = bytes(range(256)) * (2 * GROUP_BYTES // 256)
    pfs.write_file("/f", data)
    with pfs.open_read("/f") as reader:
        store.armed = "\x00data"
        with pytest.raises(FaultError):
            reader.read_chunk()
        assert reader.read_chunk() + reader.read_chunk() == data


def test_transient_fault_on_the_node_get_stays_retryable():
    """The node is read with one get and no exists probe: a store fault
    there reaches the caller as FaultError, never as a missing file, while
    a key that is really absent is one."""
    store = _FlakyStore()
    pfs = ProtectedFs(store, master_key=KEY, enclave=loaded_enclave())
    pfs.write_file("/f", b"small")
    store.armed = "\x00meta"
    with pytest.raises(FaultError):
        pfs.open_read("/f")
    assert not pfs.has_reader("/f")
    assert pfs.read_file("/f") == b"small"
    with pytest.raises(ProtectedFsError, match="no protected file"):
        pfs.read_file("/absent")


class _CountingStore(InMemoryStore):
    """Counts puts, gets, deletes, exists probes and ranged calls."""

    def __init__(self):
        super().__init__()
        self.ops = collections.Counter()

    def put(self, key, value):
        self.ops["put"] += 1
        super().put(key, value)

    def get(self, key):
        self.ops["get"] += 1
        return super().get(key)

    def delete(self, key):
        self.ops["delete"] += 1
        super().delete(key)

    def exists(self, key):
        self.ops["exists"] += 1
        return super().exists(key)

    def put_range(self, key, offset, blobs):
        self.ops["put_range"] += 1
        super().put_range(key, offset, blobs)

    def get_range(self, key, offset, length):
        self.ops["get_range"] += 1
        return super().get_range(key, offset, length)


@pytest.mark.parametrize("size", [0, 1, CHUNK_SIZE])
def test_a_one_chunk_file_is_one_put_and_one_get(size):
    """A file of up to 4 KiB is one sealed blob: writing it stores one
    object, with one put (and the probe for a stale chunk 1 of a longer
    previous version), and reading it is one get."""
    store = _CountingStore()
    pfs = ProtectedFs(store, master_key=KEY, enclave=loaded_enclave())
    pfs.write_file("/f", b"x" * size)
    assert store.ops == {"put": 1, "exists": 1}
    assert list(store.keys()) == [_node_key("/f")]
    assert store.size(_node_key("/f")) <= MAX_BUFFERED_VALUE  # an armed DeferredStore buffers it
    store.ops.clear()
    assert pfs.read_file("/f") == b"x" * size
    assert store.ops == {"get": 1}


@pytest.mark.parametrize("chunks", [2, 16, 17, 40])
def test_a_group_of_chunks_is_one_ranged_call(chunks):
    """An n-chunk object streamed in 64 KiB writes is the node's put and one
    ranged write per 16-chunk group; reading it is the node's get and one
    ranged read per group; and its reclaim deletes two keys, the node and
    the data value, whatever n is."""
    store = _CountingStore()
    pfs = ProtectedFs(store, master_key=KEY, enclave=loaded_enclave())
    data = bytes(index % 251 for index in range(chunks * CHUNK_SIZE))
    with pfs.open_write("obj:f") as writer:
        for offset in range(0, len(data), GROUP_BYTES):
            writer.write(data[offset : offset + GROUP_BYTES])
    groups = -(-chunks // READ_GROUP)
    assert store.ops == {"put_range": groups, "put": 1}
    store.ops.clear()
    assert pfs.read_file("obj:f") == data
    assert store.ops == {"get": 1, "get_range": groups}
    journal = WriteAheadJournal(StoreSet(InMemoryStore(), InMemoryStore(), store), bytes(32))
    store.ops.clear()
    journal.reclaim("obj:f")
    assert store.ops == {"delete": 2}
    assert list(store.keys()) == []


@pytest.mark.parametrize("path", ["/dir/file.txt", "/ünïcødé/文件", ""], ids=["ascii", "non-ascii", "empty"])
def test_file_key_is_the_labelled_derivation(path):
    """The mount's precomputed HKDF-extract leaves every file key
    byte-identical to the full derivation from the master key."""
    master = bytes(range(32))
    pfs = ProtectedFs(InMemoryStore(), master_key=master, enclave=loaded_enclave())
    assert pfs._file_key(path) == derive_key(master, "pfs/file-key", path.encode("utf-8"), length=16)


class TestKeyMemo:
    """A mount derives a path's file key and chunk AAD prefix once (docs/PERF.md §23)."""

    def test_a_file_written_under_the_memo_opens_with_a_fresh_derivation(self, store):
        writer = ProtectedFs(store, master_key=KEY, enclave=loaded_enclave())
        data = bytes(range(256)) * 40  # the node and chunks 1 and 2
        writer.write_file("/f", data)
        writer.write_file("/f", data)  # a second write, served by the memo
        key = derive_key(KEY, "pfs/file-key", b"/f", length=16)
        aad = Writer().str("/f").take()
        assert writer._keys_of("/f") == (key, aad)
        fresh = ProtectedFs(store, master_key=KEY, enclave=loaded_enclave())
        assert not fresh._keys
        fresh._pae.decrypt(key, store.get(_node_key("/f")), aad=b"pfs-meta\x00/f")
        for index in (1, 2):
            fresh._pae.decrypt(key, _chunk_blob(store, "/f", index), aad=aad + index.to_bytes(4, "big"))
        assert fresh.read_file("/f") == data

    def test_the_memo_is_bounded_and_evicts_in_insertion_order(self, pfs, monkeypatch):
        monkeypatch.setattr("repro.sgx.protected_fs.KEY_MEMO", 3)
        for index in range(6):
            pfs.write_file(f"/f{index}", b"x")
        assert list(pfs._keys) == ["/f3", "/f4", "/f5"]
        assert pfs.read_file("/f3") == b"x"  # a hit does not reorder
        pfs.write_file("/f6", b"x")
        assert list(pfs._keys) == ["/f4", "/f5", "/f6"]
        assert pfs.read_file("/f0") == b"x"  # an evicted path derives again


class TestHandles:
    def test_single_writer_enforced(self, pfs):
        handle = pfs.open_write("/f")
        with pytest.raises(ProtectedFsError):
            pfs.open_write("/f")
        handle.close()
        pfs.open_write("/f").close()

    def test_meta_digest_is_sha256_over_the_stored_chunk_tags(self, pfs, store):
        """The metadata node carries chunk 0 and binds SHA-256 over each
        stored chunk's trailing 16 bytes (its GCM tag), in index order;
        ``chunk_count`` still counts chunk 0."""
        data = b"a" * CHUNK_SIZE + b"z" * (CHUNK_SIZE + 1)
        pfs.write_file("/f", data)
        tags = b"".join(_chunk_blob(store, "/f", index)[-16:] for index in (1, 2))
        meta = pfs._load_meta("/f")
        assert meta.chunk_count == 3
        assert meta.head == data[:CHUNK_SIZE]
        assert meta.tag_digest == hashlib.sha256(tags).digest()

    def test_handle_state_does_not_grow_with_chunk_count(self, pfs):
        """A handle's enclave memory is constant in file size: its state
        after the 64th group of chunks is the size it was after the first,
        and a reader hands out one group (64 KiB) at a time."""

        def footprint(handle):
            return {name: sys.getsizeof(value) for name, value in vars(handle).items()}

        group = bytes(range(256)) * (GROUP_BYTES // 256)
        writer = pfs.open_write("/f")
        writer.write(group)
        after_first = footprint(writer)
        for _ in range(63):
            writer.write(group)
        assert footprint(writer) == after_first
        writer.close()

        reader = pfs.open_read("/f")
        assert reader.read_chunk() == group
        after_first = footprint(reader)
        for _ in range(63):
            assert reader.read_chunk() == group
        assert footprint(reader) == after_first
        assert reader.read_chunk() is None
        reader.close()

    def test_many_readers_allowed(self, pfs):
        pfs.write_file("/f", b"data")
        r1 = pfs.open_read("/f")
        r2 = pfs.open_read("/f")
        assert r1.read_all() == b"data"
        assert r2.read_all() == b"data"
        r1.close()
        r2.close()

    def test_writer_blocks_readers_and_vice_versa(self, pfs):
        pfs.write_file("/f", b"data")
        reader = pfs.open_read("/f")
        with pytest.raises(ProtectedFsError):
            pfs.open_write("/f")
        reader.close()
        writer = pfs.open_write("/f")
        with pytest.raises(ProtectedFsError):
            pfs.open_read("/f")
        writer.close()

    def test_streaming_write_and_read(self, pfs):
        with pfs.open_write("/f") as handle:
            for i in range(10):
                handle.write(bytes([i]) * 1000)
        with pfs.open_read("/f") as handle:
            assert handle.size == 10000
            chunks = []
            while (chunk := handle.read_chunk()) is not None:
                chunks.append(chunk)
        assert b"".join(chunks) == b"".join(bytes([i]) * 1000 for i in range(10))
        assert all(len(c) <= GROUP_BYTES for c in chunks)

    def test_aborted_write_releases_lock(self, pfs):
        try:
            with pfs.open_write("/f") as handle:
                handle.write(b"partial")
                raise RuntimeError("simulated failure")
        except RuntimeError:
            pass
        pfs.open_write("/f").close()  # lock was released

    def test_remove_with_open_handle_rejected(self, pfs):
        pfs.write_file("/f", b"data")
        reader = pfs.open_read("/f")
        with pytest.raises(ProtectedFsError):
            pfs.remove("/f")
        reader.close()


@settings(max_examples=20, deadline=None)
@given(st.binary(max_size=3 * CHUNK_SIZE))
def test_round_trip_property(data):
    pfs = ProtectedFs(InMemoryStore(), master_key=KEY, enclave=loaded_enclave())
    pfs.write_file("/p", data)
    assert pfs.read_file("/p") == data


@st.composite
def _split_writes(draw):
    """A size within a chunk of a read-group boundary, cut into random writes."""
    groups = draw(st.integers(min_value=0, max_value=2))
    size = max(0, groups * GROUP_BYTES + draw(st.integers(min_value=-CHUNK_SIZE - 1, max_value=CHUNK_SIZE + 1)))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=size), max_size=6)))
    return size, [b - a for a, b in zip([0, *cuts], [*cuts, size])]


@settings(max_examples=25, deadline=None)
@given(_split_writes())
def test_split_writes_round_trip_in_groups(split):
    """Any split of the writes stores the same chunks, and reading hands
    out full groups until the last."""
    size, pieces = split
    data = bytes(index % 251 for index in range(size))
    pfs = ProtectedFs(InMemoryStore(), master_key=KEY, enclave=loaded_enclave())
    with pfs.open_write("/p") as writer:
        offset = 0
        for length in pieces:
            writer.write(data[offset : offset + length])
            offset += length
    assert pfs._load_meta("/p").chunk_count == max(1, -(-size // CHUNK_SIZE))
    with pfs.open_read("/p") as reader:
        groups = list(iter(reader.read_chunk, None))
    assert b"".join(groups) == data
    assert all(len(group) == GROUP_BYTES for group in groups[:-1])


class TestChargeSequence:
    """Group sealing and opening leave every clock exactly where storing
    chunks one by one did: the same charges, in the same order."""

    @staticmethod
    def _reference(clock, pfs, size):
        """Replay the one-chunk-at-a-time charges of writing and then reading
        ``size`` bytes.  Chunk 0 rides in the metadata node, whose crypto
        charge covers it; per stored chunk (1 to n - 1), crypto then OCALL
        on write, OCALL then the read charge on read; the node's after them
        on write and before them on read."""
        costs = pfs._enclave.platform.costs
        overhead = pfs._pae.overhead
        head, *stored = [min(CHUNK_SIZE, size - offset) for offset in range(0, size, CHUNK_SIZE)] or [0]
        node = _Meta(size=size, chunk_count=1 + len(stored), tag_digest=bytes(32), head=bytes(head))
        meta = len(node.serialize())
        for length in stored:
            clock.charge(costs.aead_time(length), "pfs-crypto")
            clock.charge(costs.ocall_transition, "pfs-io")
        clock.charge(costs.aead_time(meta), "pfs-crypto")
        clock.charge(costs.ocall_transition, "pfs-io")
        for length in [meta, *stored]:
            clock.charge(costs.ocall_transition, "pfs-io")
            nbytes = length + overhead
            clock.charge(costs.aead_time(nbytes) + nbytes / costs.pfs_read_bytes_per_second, "pfs-crypto")

    @pytest.mark.parametrize("clock_kind", ["serial", "parallel-track"])
    @pytest.mark.parametrize("stack", ["bare", "engine"])
    @pytest.mark.parametrize("chunks", [0, 1, 2, 16, 17, 40])
    def test_clock_matches_the_per_chunk_reference(self, chunks, stack, clock_kind):
        size = chunks * CHUNK_SIZE - (chunks > 1) * 100  # a short last chunk
        clocks = []
        for _ in range(2):
            clock = SimClock() if clock_kind == "serial" else ParallelClock()
            track = None if clock_kind == "serial" else clock.open_track("op")
            clocks.append((clock, track))
        (clock, track), (ref_clock, ref_track) = clocks
        enclave = loaded_enclave(clock)
        if stack == "bare":
            store = InMemoryStore()
        else:  # the unarmed deferred stack an upload streams through
            store = engine_for(StoreSet.over(InMemoryStore()), enclave).backends.dedup
        pfs = ProtectedFs(store, master_key=KEY, enclave=enclave)
        data = bytes(index % 253 for index in range(size))
        with pfs.open_write("/f") as writer:
            writer.write(data[: size // 3])
            writer.write(data[size // 3 :])
        assert pfs.read_file("/f") == data
        self._reference(ref_clock, pfs, size)
        if clock_kind == "parallel-track":
            assert track.now() == ref_track.now() and track.accounts == ref_track.accounts
            clock.close_track(track)
            ref_clock.close_track(ref_track)
        assert clock.now() == ref_clock.now()
        assert clock.accounts() == ref_clock.accounts()

    @pytest.mark.parametrize("stack", ["bare", "engine"])
    def test_an_old_layout_node_fails_closed(self, stack):
        """A node in the layout before chunk 0 moved into it (no head field)
        is authentic but unreadable: a typed error, no migration, and no
        charge beyond the node's own read."""
        clock, ref_clock = SimClock(), SimClock()
        enclave = loaded_enclave(clock)
        inner = InMemoryStore()
        store = inner if stack == "bare" else engine_for(StoreSet.over(inner), enclave).backends.dedup
        pfs = ProtectedFs(store, master_key=KEY, enclave=enclave)
        old = Writer().u64(2 * CHUNK_SIZE).u32(2).bytes(bytes(32)).take()
        node = pfs._pae.encrypt(pfs._file_key("/f"), old, aad=b"pfs-meta\x00/f")
        inner.put(_node_key("/f") if stack == "bare" else "dedup/" + _node_key("/f"), node)
        ref_clock.charge(clock.now(), "setup")
        with pytest.raises(ProtectedFsError, match="failed verification"):
            pfs.read_file("/f")
        costs = enclave.platform.costs
        ref_clock.charge(costs.ocall_transition, "pfs-io")
        ref_clock.charge(costs.aead_time(len(node)) + len(node) / costs.pfs_read_bytes_per_second, "pfs-crypto")
        assert clock.now() == ref_clock.now()


class TestDebris:
    """What a crash leaves of a half-written or half-removed file."""

    def test_owners_sees_chunks_without_metadata(self, pfs, store):
        pfs.write_file("obj:whole", b"x" * (CHUNK_SIZE + 1))
        writer = pfs.open_write("obj:torn")
        writer.write(b"y" * (2 * CHUNK_SIZE))  # never closed: no metadata
        pfs.write_file("/other", b"not under the prefix")
        assert pfs.exists("obj:whole") and pfs.exists("/other")
        assert not pfs.exists("obj:torn")
        assert pfs.owners("obj:") == {"obj:whole", "obj:torn"}

    def test_purge_needs_no_metadata(self, pfs, store):
        pfs.write_file("obj:ab", b"keep" * CHUNK_SIZE)
        pfs.write_file("obj:a", b"x" * (2 * CHUNK_SIZE + 5))
        store.delete("obj:a\x00meta")  # a remove() that got no further
        with pytest.raises(ProtectedFsError):
            pfs.remove("obj:a")
        pfs.purge("obj:a")
        assert pfs.owners("obj:") == {"obj:ab"}
        assert pfs.read_file("obj:ab") == b"keep" * CHUNK_SIZE

    def test_purge_refuses_a_file_with_open_handles(self, pfs):
        writer = pfs.open_write("obj:a")
        with pytest.raises(ProtectedFsError):
            pfs.purge("obj:a")
        writer.close()
