"""Thread-safety regression tests for the leaf-locked components.

The concurrency pipeline (docs/PERF.md §5) models parallelism in virtual
time, but real deployments may also run the untrusted host with worker
threads — so the shared mutable leaves (the enclave metadata cache and
the storage backends) must tolerate genuine OS-thread interleavings.
Lock-ordering discipline: these are *leaf* locks, acquired after any
LockManager path lock and never the other way around (see the class
docstrings); these tests hammer the leaves directly.

The scenario the cache lock exists for: one thread serving read-hits
(get refreshes LRU order and charges EPC) while another invalidates
(clear / put / discard).  Unlocked, the OrderedDict mutates under
move_to_end and the byte accounting drifts; locked, every interleaving
ends with accounting that matches the surviving entries exactly.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.cache import MetadataCache
from repro.errors import StorageError
from repro.storage import DiskStore, InMemoryStore
from tests.support.platform import sim_platform

THREADS = 4
ROUNDS = 400


def _run_threads(workers):
    """Start, join, and re-raise the first exception from any worker."""
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - propagate to the test
                errors.append(exc)

        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestMetadataCacheThreading:
    def test_read_hit_vs_invalidation(self):
        """Readers hammer get() while writers put() and clear() underneath."""
        cache = MetadataCache(capacity_bytes=64 * 1024, epc=sim_platform().epc, max_entry_bytes=4096)
        keys = [f"/f{i}" for i in range(32)]
        for key in keys:
            cache.put("content", key, key.encode() * 8)
        barrier = threading.Barrier(THREADS)
        absent = []

        def reader():
            barrier.wait()
            for i in range(ROUNDS):
                value = cache.get("content", keys[i % len(keys)])
                # A hit must return the full value the writer put, never
                # a torn or stale-length one.
                if value is not None:
                    assert len(value) % len(keys[i % len(keys)].encode()) == 0
                else:
                    absent.append(i)

        def writer():
            barrier.wait()
            for i in range(ROUNDS):
                key = keys[i % len(keys)]
                if i % 37 == 0:
                    cache.clear()
                elif i % 11 == 0:
                    cache.discard("content", key)
                else:
                    cache.put("content", key, key.encode() * (1 + i % 16))

        _run_threads([reader, reader, writer, writer])

        # Accounting must match the surviving entries exactly — drift here
        # is the classic symptom of an unlocked eviction racing a hit.
        expected = sum(len(entry.value) for entry in cache._entries.values())
        assert cache.stats.current_bytes == expected
        assert len(cache) == len(cache._entries)
        # Every get is one hit or one absent key (which counts no miss).
        assert cache.stats.hits + len(absent) == 2 * ROUNDS

    def test_eviction_race_keeps_capacity_bound(self):
        """Concurrent inserts never leave the cache over capacity."""
        capacity = 8 * 1024
        cache = MetadataCache(capacity_bytes=capacity, epc=sim_platform().epc, max_entry_bytes=1024)
        barrier = threading.Barrier(THREADS)

        def writer(seed):
            def run():
                barrier.wait()
                for i in range(ROUNDS):
                    cache.put("node", f"/n{(seed * ROUNDS + i) % 64}", b"x" * 512)

            return run

        _run_threads([writer(s) for s in range(THREADS)])
        assert cache.stats.current_bytes <= capacity
        assert cache.stats.current_bytes == sum(
            len(entry.value) for entry in cache._entries.values()
        )


class TestMemoThreading:
    """The enclave's decoded-metadata and file-key memos (docs/PERF.md §23,
    §28): concurrent misses past the bound never raise, never overfill, and
    never mix up an entry."""

    def test_decoded_file_misses_race_at_the_bound(self):
        """Decoded reads of a small cache: threads fill slots on hits while
        misses insert and evict entries under them."""
        from repro.fsmodel import DirectoryFile

        plaintexts = [DirectoryFile([f"/{i}"]).serialize() for i in range(64)]
        capacity = 16 * len(plaintexts[0])
        cache = MetadataCache(capacity_bytes=capacity, epc=sim_platform().epc, max_entry_bytes=1024)
        barrier = threading.Barrier(THREADS)

        def reader(seed):
            def run():
                barrier.wait()
                for i in range(ROUNDS):
                    index = (seed * 7 + i) % len(plaintexts)
                    decoded = cache.get("content", f"/{index}/", DirectoryFile.deserialize)
                    if decoded is None:  # a miss: fill as a verified read would
                        cache.put("content", f"/{index}/", plaintexts[index])
                    else:
                        assert decoded.children == [f"/{index}"]

            return run

        _with_fast_switching(lambda: _run_threads([reader(s) for s in range(THREADS)]))
        assert cache.stats.current_bytes <= capacity
        for entry in cache._entries.values():
            assert entry.slot is None or entry.slot[1].serialize() == entry.value

    def test_file_key_misses_race_at_the_bound(self, monkeypatch):
        from repro.sgx.protected_fs import ProtectedFs
        from tests.support.platform import loaded_enclave

        monkeypatch.setattr("repro.sgx.protected_fs.KEY_MEMO", 16)
        pfs = ProtectedFs(InMemoryStore(), master_key=bytes(16), enclave=loaded_enclave())
        barrier = threading.Barrier(THREADS)

        def deriver(seed):
            def run():
                barrier.wait()
                for i in range(ROUNDS):
                    path = f"/{(seed * 7 + i) % 64}"
                    assert pfs._keys_of(path)[0] == pfs._file_key(path)

            return run

        _with_fast_switching(lambda: _run_threads([deriver(s) for s in range(THREADS)]))
        assert len(pfs._keys) <= 16


class TestNodeMemoThreading:
    """A guard's nodes stay decoded in the slots of a small cache
    (docs/PERF.md §28).  Threads that load different versions of the same
    nodes flip the entries under each other: every load is a version of its
    node, every surviving slot decodes from its own entry's bytes, and the
    cache never overfills."""

    def test_loads_of_two_versions_race_at_the_bound(self):
        from tests.core.conftest import build_world

        capacity = 8 * 1024
        world = build_world(rollback=True, buckets=4, cache_bytes=capacity)
        guard, mount, cache = world.guard, world.manager.content, world.manager.engine.cache
        versions = {}
        for i in range(32):
            node = guard._empty_node(f"/d{i}/", bytes(32))
            older = guard._encode_node(node)
            node.update(i % 4, None, b"child %d" % i)
            versions[guard._node_path(f"/d{i}/")] = older, guard._encode_node(node)
        version = threading.local()
        mount._load = lambda node_path: versions[node_path][version.which]
        barrier = threading.Barrier(THREADS)

        def loader(seed):
            def run():
                version.which = seed % 2
                barrier.wait()
                for i in range(ROUNDS):
                    path = f"/d{(seed * 7 + i) % 32}/"
                    loaded = guard._encode_node(guard._load_node(path))
                    assert loaded in versions[guard._node_path(path)]
                    if i % 13 == 0:
                        cache.discard(mount.namespace, guard._node_path(path))

            return run

        _with_fast_switching(lambda: _run_threads([loader(s) for s in range(THREADS)]))
        assert cache.stats.current_bytes <= capacity
        slots = [entry for (_, key), entry in cache._entries.items() if key in versions and entry.slot]
        assert slots
        for entry in slots:
            assert guard._encode_node(entry.slot[1]) == entry.value


def _with_fast_switching(run):
    """Run with the interpreter switching threads as often as it can."""
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run()
    finally:
        sys.setswitchinterval(saved)


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryStore()
    return DiskStore(str(tmp_path / "store"))


class TestBackendThreading:
    def test_put_delete_keys_interleaving(self, store):
        """Writers churn keys while a scanner iterates keys()/get().

        The DiskStore case is the interesting one: put/delete touch a
        data file plus a sidecar, and an unlocked scanner can observe
        the gap between them.
        """
        stable = [f"stable/{i}" for i in range(8)]
        for key in stable:
            store.put(key, b"pinned")
        barrier = threading.Barrier(THREADS)

        def churner(seed):
            def run():
                barrier.wait()
                for i in range(ROUNDS // 4):
                    key = f"churn/{seed}/{i % 8}"
                    store.put(key, b"v%d" % i)
                    if i % 3 == 0:
                        try:
                            store.delete(key)
                        except StorageError:
                            pass

            return run

        def scanner():
            barrier.wait()
            for _ in range(ROUNDS // 8):
                seen = list(store.keys())
                # The pinned keys are never deleted: every scan sees them
                # all, and every one resolves through get().
                for key in stable:
                    assert key in seen
                    assert store.get(key) == b"pinned"

        _run_threads([churner(0), churner(1), scanner, scanner])
        for key in stable:
            assert store.get(key) == b"pinned"
