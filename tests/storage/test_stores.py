"""Store sets, prefixed views, and the shard router."""

import pytest

from repro.core.journal import TAG_CONTENT, WriteAheadJournal
from repro.errors import FaultError, StorageError
from repro.faults import FaultPlan, FaultyStore
from repro.storage import DiskStore, InMemoryStore, StoreSet
from repro.storage.stores import PrefixedStore
from repro.store import ShardedStore
from repro.store.engine import DeferredStore, TransactionStats
from tests.support.platform import loaded_enclave


class TestPrefixedStore:
    def test_namespacing(self):
        backend = InMemoryStore()
        a = PrefixedStore(backend, "a/")
        b = PrefixedStore(backend, "b/")
        a.put("k", b"from-a")
        b.put("k", b"from-b")
        assert a.get("k") == b"from-a"
        assert b.get("k") == b"from-b"
        assert sorted(backend.keys()) == ["a/k", "b/k"]

    def test_keys_are_stripped(self):
        backend = InMemoryStore()
        view = PrefixedStore(backend, "p/")
        view.put("x", b"1")
        backend.put("other", b"2")
        assert list(view.keys()) == ["x"]

    def test_delete_and_exists(self):
        view = PrefixedStore(InMemoryStore(), "p/")
        view.put("x", b"1")
        assert view.exists("x")
        view.delete("x")
        with pytest.raises(StorageError):
            view.get("x")

    def test_scan_composes_prefixes(self):
        backend = InMemoryStore()
        view = PrefixedStore(backend, "p/")
        view.put("a/1", b"1")
        view.put("a/2", b"2")
        view.put("b/1", b"3")
        backend.put("other/a/9", b"4")
        assert sorted(view.scan("a/")) == ["a/1", "a/2"]
        assert sorted(view.scan("")) == ["a/1", "a/2", "b/1"]


class TestStoreSet:
    def test_in_memory_are_independent(self):
        stores = StoreSet.in_memory()
        stores.content.put("k", b"c")
        assert not stores.group.exists("k")
        assert not stores.dedup.exists("k")

    def test_over_shares_one_backend(self):
        backend = InMemoryStore()
        stores = StoreSet.over(backend)
        stores.content.put("k", b"c")
        stores.group.put("k", b"g")
        stores.dedup.put("k", b"d")
        assert sorted(backend.keys()) == ["content/k", "dedup/k", "group/k"]
        # A second store set over the same backend sees the same data —
        # the replication deployment model.
        other = StoreSet.over(backend)
        assert other.group.get("k") == b"g"

    def test_over_records_the_router(self):
        backend = InMemoryStore()
        assert StoreSet.over(backend).router is backend
        assert StoreSet.in_memory().router is None

    def test_sharded_routes_all_members(self):
        shards = [InMemoryStore() for _ in range(3)]
        stores = StoreSet.sharded(shards)
        assert isinstance(stores.router, ShardedStore)
        stores.content.put("k", b"c")
        stores.group.put("k", b"g")
        stores.dedup.put("k", b"d")
        spread = {key for shard in shards for key in shard.keys()}
        assert spread == {"content/k", "group/k", "dedup/k"}
        assert stores.content.get("k") == b"c"


class TestShardedStore:
    def test_requires_a_backend(self):
        with pytest.raises(ValueError):
            ShardedStore([])

    def test_placement_is_deterministic_and_content_independent(self):
        keys = [f"key-{i}" for i in range(64)]
        a = ShardedStore([InMemoryStore() for _ in range(4)])
        b = ShardedStore([InMemoryStore() for _ in range(4)])
        assert [a.shard_index(k) for k in keys] == [b.shard_index(k) for k in keys]
        for k in keys:
            a.put(k, k.encode())
        # Every key is readable through the router and lives on exactly
        # the shard placement names.
        for k in keys:
            assert a.get(k) == k.encode()
            holders = [i for i, s in enumerate(a._backends) if s.exists(k)]
            assert holders == [a.shard_index(k)]
        # 64 HMAC-placed keys over 4 shards leave no shard empty.
        assert all(a.stats()["objects"])

    def test_store_contract_across_shards(self):
        store = ShardedStore([InMemoryStore() for _ in range(3)])
        store.put("a", b"1")
        store.put("b", b"22")
        assert store.exists("a") and not store.exists("ghost")
        assert sorted(store.keys()) == ["a", "b"]
        assert store.size("b") == 2
        assert store.total_bytes() == 3
        store.delete("a")
        with pytest.raises(StorageError):
            store.get("a")

    def test_scan_chains_shards(self):
        store = ShardedStore([InMemoryStore() for _ in range(4)])
        for i in range(16):
            store.put(f"p/{i}", b"x")
        store.put("q/0", b"y")
        assert sorted(store.scan("p/")) == sorted(f"p/{i}" for i in range(16))

    def test_snapshot_restore_round_trip(self):
        store = ShardedStore([InMemoryStore() for _ in range(3)])
        store.put("a", b"1")
        snapshot = store.snapshot()
        store.put("a", b"2")
        store.put("b", b"3")
        store.restore(snapshot)
        assert store.get("a") == b"1"
        assert not store.exists("b")
        with pytest.raises(StorageError):
            store.restore(snapshot[:1])  # shard-count mismatch

    def test_snapshot_requires_capable_shards(self, tmp_path):
        store = ShardedStore([InMemoryStore(), DiskStore(str(tmp_path / "d"))])
        with pytest.raises(StorageError):
            store.snapshot()

    def test_stats_counts_per_shard_ops(self):
        store = ShardedStore([InMemoryStore() for _ in range(2)])
        store.put("k", b"abc")
        store.get("k")
        store.delete("k")
        stats = store.stats()
        assert stats["shards"] == 2
        hot = stats["ops"][store.shard_index("k")]
        assert (hot["puts"], hot["gets"], hot["deletes"], hot["put_bytes"]) == (1, 1, 1, 3)
        assert stats["objects"] == [0, 0]


# -- a missing key: StorageError, never a transient fault ---------------------------
#
# The protected FS reads a metadata node with one get and no exists probe: a
# StorageError that is not a FaultError means "no such file", a FaultError a
# retryable failure.  Every store the node can be read through keeps that split.


def _deferred(state):
    stores = StoreSet.in_memory()
    journal = WriteAheadJournal(stores, bytes(32))
    store = DeferredStore(stores.content, loaded_enclave(), TransactionStats(), journal, TAG_CONTENT)
    if state != "unarmed":
        store.arm()
    if state in ("tombstoned", "journaled"):  # a buffered delete shadows the stored key
        store.inner.put("absent", b"stored")
        store.delete("absent")
    if state == "journaled":  # the overlay spilled into a sealed record part
        journal.open_epoch("spill")
        store._spill()
    return store


MISSING_KEY_STORES = {
    "in-memory": lambda tmp_path: InMemoryStore(),
    "disk": lambda tmp_path: DiskStore(str(tmp_path / "store")),
    "prefixed": lambda tmp_path: PrefixedStore(InMemoryStore(), "p/"),
    "sharded": lambda tmp_path: ShardedStore([InMemoryStore() for _ in range(3)]),
    "deferred-unarmed": lambda tmp_path: _deferred("unarmed"),
    "deferred-armed": lambda tmp_path: _deferred("armed"),
    "deferred-tombstoned": lambda tmp_path: _deferred("tombstoned"),
    "journaled": lambda tmp_path: _deferred("journaled"),
}


@pytest.mark.parametrize("read", ["get", "get_many"])
@pytest.mark.parametrize("kind", list(MISSING_KEY_STORES))
def test_a_missing_key_is_a_storage_error_not_a_fault(tmp_path, kind, read):
    store = MISSING_KEY_STORES[kind](tmp_path)
    store.put("present", b"value")
    with pytest.raises(StorageError) as raised:
        if read == "get":
            store.get("absent")
        else:
            list(store.get_many(["present", "absent"]))
    assert not isinstance(raised.value, FaultError)


#: Every store that implements the ranged pair itself.
RANGED_STORES = {
    "in-memory": lambda tmp_path: InMemoryStore(),
    "disk": lambda tmp_path: DiskStore(str(tmp_path / "store")),
    "sharded": lambda tmp_path: ShardedStore([InMemoryStore() for _ in range(3)]),
    "prefixed": lambda tmp_path: PrefixedStore(InMemoryStore(), "p/"),
    "faulty": lambda tmp_path: FaultyStore(InMemoryStore(), FaultPlan()),
}


@pytest.mark.parametrize("kind", list(RANGED_STORES))
def test_the_ranged_pair_conforms(tmp_path, kind):
    """``put_range`` writes a run of blobs at an offset of one value, which
    then ends where the run ends (a gap before it reads as zeros);
    ``get_range`` reads a byte range, short past the end.  Both agree with
    ``put``, ``get`` and ``size`` on the same value."""
    store = RANGED_STORES[kind](tmp_path)
    store.put_range("v", 0, [b"abc", b"def"])
    assert store.get("v") == b"abcdef" and store.size("v") == 6
    store.put_range("v", 6, [b"ghi"])
    assert store.get_range("v", 2, 5) == b"cdefg"  # across two runs
    assert store.get_range("v", 7, 100) == b"hi"
    assert store.get_range("v", 9, 4) == b""
    store.put_range("v", 4, [b"XY"])
    assert store.get("v") == b"abcdXY"
    store.put_range("v", 8, [b"Z"])
    assert store.get("v") == b"abcdXY\0\0Z" and store.size("v") == 9
    store.put("w", b"whole")
    store.put_range("w", 2, [b"LE"])
    assert store.get("w") == b"whLE" and store.get_range("w", 1, 2) == b"hL"
    store.put("w", b"put again")
    assert store.get_range("w", 4, 5) == b"again"
    assert sorted(store.keys()) == ["v", "w"]
    store.delete("v")
    assert not store.exists("v")
    with pytest.raises(StorageError) as raised:
        store.get_range("v", 0, 1)
    assert not isinstance(raised.value, FaultError)


def test_a_snapshot_does_not_see_a_later_ranged_write():
    """A backup taken before a ranged write keeps the bytes it copied: the
    write neither grows nor cuts the snapshot's values."""
    store = InMemoryStore()
    store.put_range("v", 0, [b"0123", b"4567"])
    store.put("w", b"whole")
    snapshot = store.snapshot()
    store.put_range("v", 8, [b"89"])
    store.put_range("v", 2, [b"xx"])
    store.put_range("w", 1, [b"!"])
    assert snapshot == {"v": b"01234567", "w": b"whole"}
    store.restore(snapshot)
    store.put_range("v", 4, [b"yy"])
    assert snapshot == {"v": b"01234567", "w": b"whole"}
    assert store.get("v") == b"0123yy"
