"""Protected File System Library clone: chunking, integrity, handles."""

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultError, ProtectedFsError
from repro.netsim import ParallelClock, SimClock
from repro.sgx.protected_fs import CHUNK_SIZE, READ_GROUP, ProtectedFs, _chunk_key, _Meta
from repro.storage.backends import InMemoryStore
from repro.storage.stores import StoreSet
from tests.support.platform import engine_for, loaded_enclave

KEY = bytes(16)
GROUP_BYTES = READ_GROUP * CHUNK_SIZE


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


class TestGroupAttacks:
    """Store attacks at chunk positions 0, 15, 16 and the last of a 40-chunk
    file (three read groups: 16 + 16 + 8 chunks), read group by group.

    Each attack raises :class:`ProtectedFsError` at the group it lands in,
    releases no plaintext of that group (the groups before it were
    complete and verified), and leaves the handle closable, so that a
    writer can open the file afterwards.
    """

    CHUNKS = 40
    POSITIONS = (0, 15, 16, 39)

    @staticmethod
    def _data():
        return b"".join(bytes([index]) * CHUNK_SIZE for index in range(TestGroupAttacks.CHUNKS))

    @staticmethod
    def _swap(store, a, b):
        blob_a, blob_b = store.get(_chunk_key("/f", a)), store.get(_chunk_key("/f", b))
        store.put(_chunk_key("/f", a), blob_b)
        store.put(_chunk_key("/f", b), blob_a)

    def _attack(self, pfs, store, kind, position):
        """Mount the attack; returns the index of the chunk whose group fails."""
        key = _chunk_key("/f", position)
        if kind == "tamper":
            blob = bytearray(store.get(key))
            blob[20] ^= 1
            store.put(key, bytes(blob))
            return position
        if kind == "delete":
            store.delete(key)
            return position
        if kind == "swap-in-group":
            partner = position ^ 1  # 0<->1, 15<->14, 16<->17, 39<->38
            self._swap(store, position, partner)
            return min(position, partner)
        if kind == "swap-across-groups":
            partner = position + READ_GROUP if position + READ_GROUP < self.CHUNKS else position - READ_GROUP
            self._swap(store, position, partner)
            return min(position, partner)
        # replay: the same file's older chunk at the same position passes its
        # own GCM check; the tag digest catches it before the last group.
        old = store.get(key)
        pfs.write_file("/f", self._data())
        store.put(key, old)
        return self.CHUNKS - 1

    @pytest.mark.parametrize("position", POSITIONS)
    @pytest.mark.parametrize("kind", ["tamper", "delete", "swap-in-group", "swap-across-groups", "replay"])
    def test_attack_fails_its_group(self, pfs, store, kind, position):
        data = self._data()
        pfs.write_file("/f", data)
        failing = self._attack(pfs, store, kind, position)
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
    """Raises a transient fault on the next get of a chunk key, once."""

    armed = False

    def get(self, key):
        if self.armed and "\x00chunk\x00" in key:
            self.armed = False
            raise FaultError("injected: store unavailable")
        return super().get(key)


def test_transient_fault_on_a_chunk_get_stays_retryable():
    """A store fault while a group loads is not a missing chunk: it reaches
    the caller as the retryable FaultError, and the handle still works."""
    store = _FlakyStore()
    pfs = ProtectedFs(store, master_key=KEY, enclave=loaded_enclave())
    data = bytes(range(256)) * (2 * GROUP_BYTES // 256)
    pfs.write_file("/f", data)
    with pfs.open_read("/f") as reader:
        store.armed = True
        with pytest.raises(FaultError):
            reader.read_chunk()
        assert reader.read_chunk() + reader.read_chunk() == data


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
    assert pfs.chunk_count("/p") == max(1, -(-size // CHUNK_SIZE))
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
        ``size`` bytes: per chunk, crypto then OCALL on write, OCALL then
        the read charge on read; the metadata node's around them."""
        costs = pfs._enclave.platform.costs
        overhead = pfs._pae.overhead
        chunks = [min(CHUNK_SIZE, size - offset) for offset in range(0, size, CHUNK_SIZE)] or [0]
        meta = len(_Meta(size=size, chunk_count=len(chunks), tag_digest=bytes(32)).serialize())
        for length in chunks:
            clock.charge(costs.aead_time(length), "pfs-crypto")
            clock.charge(costs.ocall_transition, "pfs-io")
        clock.charge(costs.aead_time(meta), "pfs-crypto")
        clock.charge(costs.ocall_transition, "pfs-io")
        for length in [meta, *chunks]:
            clock.charge(costs.ocall_transition, "pfs-io")
            nbytes = length + overhead
            clock.charge(costs.aead_time(nbytes) + nbytes / costs.pfs_read_bytes_per_second, "pfs-crypto")

    @pytest.mark.parametrize("clock_kind", ["serial", "parallel-track"])
    @pytest.mark.parametrize("stack", ["bare", "engine"])
    @pytest.mark.parametrize("chunks", [0, 1, 16, 17, 40])
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
