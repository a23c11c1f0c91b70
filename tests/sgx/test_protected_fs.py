"""Protected File System Library clone: chunking, integrity, handles."""

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtectedFsError
from repro.sgx.protected_fs import CHUNK_SIZE, ProtectedFs, _chunk_key
from repro.storage.backends import InMemoryStore
from tests.support.platform import loaded_enclave

KEY = bytes(16)


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
        pfs.write_file("/f", b"y" * 10)
        assert pfs.read_file("/f") == b"y" * 10
        # Stale chunks from the longer version are gone.
        assert not store.exists(_chunk_key("/f", 1))

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
        pfs.write_file("/f", b"A" * CHUNK_SIZE)
        chunk = store.get(_chunk_key("/f", 0))
        assert b"A" * 16 not in chunk

    def test_tampered_chunk_rejected(self, pfs, store):
        pfs.write_file("/f", b"x" * (2 * CHUNK_SIZE))
        key = _chunk_key("/f", 1)
        blob = bytearray(store.get(key))
        blob[5] ^= 1
        store.put(key, bytes(blob))
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    def test_chunk_position_swap_rejected(self, pfs, store):
        pfs.write_file("/f", bytes(CHUNK_SIZE) + bytes([1]) * CHUNK_SIZE)
        a, b = _chunk_key("/f", 0), _chunk_key("/f", 1)
        chunk_a, chunk_b = store.get(a), store.get(b)
        store.put(a, chunk_b)
        store.put(b, chunk_a)
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    def test_cross_file_chunk_splice_rejected(self, pfs, store):
        pfs.write_file("/f", b"f" * CHUNK_SIZE)
        pfs.write_file("/g", b"g" * CHUNK_SIZE)
        store.put(_chunk_key("/f", 0), store.get(_chunk_key("/g", 0)))
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    def test_missing_chunk_rejected(self, pfs, store):
        pfs.write_file("/f", b"x" * (2 * CHUNK_SIZE))
        store.delete(_chunk_key("/f", 1))
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    def test_meta_tamper_rejected(self, pfs, store):
        pfs.write_file("/f", b"data")
        meta_key = "/f\x00meta"
        blob = bytearray(store.get(meta_key))
        blob[-1] ^= 1
        store.put(meta_key, bytes(blob))
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    @pytest.mark.parametrize(
        "size, indices",
        [
            (2 * CHUNK_SIZE + 7, (0,)),
            (2 * CHUNK_SIZE + 7, (1,)),
            (2 * CHUNK_SIZE + 7, (2,)),
            (CHUNK_SIZE, (0,)),
            (2 * CHUNK_SIZE + 7, (0, 1, 2)),
        ],
        ids=["3-chunks-first", "3-chunks-middle", "3-chunks-short-last", "1-chunk", "3-chunks-all"],
    )
    def test_rolled_back_chunk_rejected(self, pfs, store, size, indices):
        """Replaying old chunks of the SAME file at the SAME positions (the
        last case: the previous version's whole chunk set under the current
        metadata node) passes each chunk's own GCM check, same key and AAD,
        and is caught by the digest of the chunk tags in the metadata node."""
        pfs.write_file("/f", b"1" * size)
        old_chunks = {index: store.get(_chunk_key("/f", index)) for index in indices}
        pfs.write_file("/f", b"2" * size)
        for index, blob in old_chunks.items():
            store.put(_chunk_key("/f", index), blob)
        with pytest.raises(ProtectedFsError):
            pfs.read_file("/f")

    def test_different_master_keys_isolate(self, store):
        a = ProtectedFs(store, master_key=bytes(16), enclave=loaded_enclave())
        b = ProtectedFs(store, master_key=bytes(15) + b"\x01", enclave=loaded_enclave())
        a.write_file("/f", b"secret")
        with pytest.raises(ProtectedFsError):
            b.read_file("/f")


class TestHandles:
    def test_single_writer_enforced(self, pfs):
        handle = pfs.open_write("/f")
        with pytest.raises(ProtectedFsError):
            pfs.open_write("/f")
        handle.close()
        pfs.open_write("/f").close()

    def test_meta_digest_is_sha256_over_the_stored_chunk_tags(self, pfs, store):
        """The metadata node binds SHA-256 over each stored chunk's trailing
        16 bytes (its GCM tag), in index order."""
        pfs.write_file("/f", b"z" * (2 * CHUNK_SIZE + 1))
        tags = b"".join(store.get(_chunk_key("/f", index))[-16:] for index in range(3))
        meta = pfs._load_meta("/f")
        assert meta.chunk_count == 3
        assert meta.tag_digest == hashlib.sha256(tags).digest()

    def test_handle_state_does_not_grow_with_chunk_count(self, pfs):
        """A handle's enclave memory is constant in file size: its state
        after the 64th chunk is the size it was after the first."""

        def footprint(handle):
            return {name: sys.getsizeof(value) for name, value in vars(handle).items()}

        chunk = bytes(range(256)) * (CHUNK_SIZE // 256)
        writer = pfs.open_write("/f")
        writer.write(chunk)
        after_first = footprint(writer)
        for _ in range(63):
            writer.write(chunk)
        assert footprint(writer) == after_first
        writer.close()

        reader = pfs.open_read("/f")
        assert reader.read_chunk() == chunk
        after_first = footprint(reader)
        for _ in range(63):
            assert reader.read_chunk() == chunk
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
        assert all(len(c) <= CHUNK_SIZE for c in chunks)

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
