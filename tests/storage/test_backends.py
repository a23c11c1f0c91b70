"""Untrusted store backends: dict-backed and disk-backed."""

import os

import pytest

from repro.errors import EnclaveCrashed, StorageError
from repro.faults import FaultPlan, FaultyStore
from repro.storage import DiskStore, InMemoryStore


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryStore()
    return DiskStore(str(tmp_path / "store"))


class TestCommonContract:
    def test_put_get(self, store):
        store.put("key", b"value")
        assert store.get("key") == b"value"

    def test_overwrite(self, store):
        store.put("key", b"v1")
        store.put("key", b"v2")
        assert store.get("key") == b"v2"

    def test_missing_get_raises(self, store):
        with pytest.raises(StorageError):
            store.get("ghost")

    def test_delete(self, store):
        store.put("key", b"value")
        store.delete("key")
        assert not store.exists("key")
        with pytest.raises(StorageError):
            store.delete("key")

    def test_keys_and_sizes(self, store):
        store.put("a", b"x")
        store.put("b/c", b"yy")
        assert sorted(store.keys()) == ["a", "b/c"]
        assert store.size("b/c") == 2
        assert store.total_bytes() == 3

    def test_size_of_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.size("ghost")

    def test_awkward_keys(self, store):
        # SeGShare keys contain slashes, NULs, and unicode.
        for key in ("/D/f.txt", "member:\x00users", "grüße", "a\x00chunk\x000"):
            store.put(key, key.encode())
        for key in ("/D/f.txt", "member:\x00users", "grüße", "a\x00chunk\x000"):
            assert store.get(key) == key.encode()

    def test_values_are_isolated(self, store):
        data = bytearray(b"mutable")
        store.put("key", bytes(data))
        data[0] = 0
        assert store.get("key") == b"mutable"

    def test_scan_filters_by_prefix(self, store):
        for key in ("a/1", "a/2", "ab", "b/1"):
            store.put(key, b"x")
        assert sorted(store.scan("a/")) == ["a/1", "a/2"]
        assert sorted(store.scan("a")) == ["a/1", "a/2", "ab"]
        assert list(store.scan("zzz")) == []
        # Empty prefix enumerates everything, exactly like keys().
        assert sorted(store.scan("")) == sorted(store.keys())

    def test_scan_tracks_mutations(self, store):
        store.put("p/x", b"1")
        store.put("p/y", b"2")
        store.delete("p/x")
        store.put("q/y", store.get("p/y"))
        store.delete("p/y")
        assert list(store.scan("p/")) == []
        assert list(store.scan("q/")) == ["q/y"]


class TestInMemorySnapshots:
    def test_snapshot_restore(self):
        store = InMemoryStore()
        store.put("a", b"1")
        snapshot = store.snapshot()
        store.put("a", b"2")
        store.put("b", b"3")
        store.restore(snapshot)
        assert store.get("a") == b"1"
        assert not store.exists("b")


class TestDiskPersistence:
    def test_reopen_sees_data(self, tmp_path):
        path = str(tmp_path / "persist")
        DiskStore(path).put("k", b"v")
        assert DiskStore(path).get("k") == b"v"
        assert list(DiskStore(path).keys()) == ["k"]

    def test_reopen_rebuilds_scan_index(self, tmp_path):
        path = str(tmp_path / "persist")
        first = DiskStore(path)
        for key in ("a/1", "a/2", "b/1"):
            first.put(key, key.encode())
        assert sorted(DiskStore(path).scan("a/")) == ["a/1", "a/2"]


def _dir_snapshot(root: str) -> dict[str, bytes]:
    snapshot = {}
    for name in os.listdir(root):
        with open(os.path.join(root, name), "rb") as fh:
            snapshot[name] = fh.read()
    return snapshot


def _dir_restore(root: str, snapshot: dict[str, bytes]) -> None:
    for name in os.listdir(root):
        if name not in snapshot:
            os.remove(os.path.join(root, name))
    for name, data in snapshot.items():
        with open(os.path.join(root, name), "wb") as fh:
            fh.write(data)


class TestDiskCrashConsistency:
    def test_mutations_fsync_data_and_directory(self, tmp_path, monkeypatch):
        store = DiskStore(str(tmp_path / "store"))
        real_fsync, calls = os.fsync, []
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))[1])
        store.put("k", b"v")
        # Data file + sidecar, each fsynced before the rename and the
        # directory fsynced after it: four barriers per put.
        assert len(calls) == 4
        del calls[:]
        store.delete("k")
        assert len(calls) == 1  # directory barrier after the unlink

    def test_crash_before_dir_fsync_recovers_old_value(self, tmp_path):
        root = str(tmp_path / "store")
        store = DiskStore(root)
        store.put("k", b"old")
        # A power loss after os.replace but before the directory fsync can
        # roll the directory entry back to the old inode.  Simulate it:
        # snapshot the durable directory state, crash inside the window,
        # and restore the snapshot as "what the disk actually kept".
        durable = _dir_snapshot(root)
        plan = FaultPlan().crash_after_effects(2)  # temp write, replace
        with pytest.raises(EnclaveCrashed):
            FaultyStore(store, plan).put("k", b"new")
        assert plan.events[0][1].startswith("diskstore:fsync-dir")
        _dir_restore(root, durable)

        reopened = DiskStore(root)
        assert reopened.get("k") == b"old"
        assert list(reopened.keys()) == ["k"]
        assert list(reopened.scan("k")) == ["k"]

    def test_crash_hook_wires_into_fault_plans(self, tmp_path):
        """A wrapped DiskStore reports each syscall as one effect: a new
        key's sidecar lands before its data, so a crash at any of a put's
        six leaves no data file without its key, and a reopen removes a
        sidecar whose data never landed, or an unrenamed temp file."""
        root = str(tmp_path / "store")
        plan = FaultPlan(seed=7)
        store = FaultyStore(DiskStore(root), plan)
        store.put("a", b"1")
        assert plan.effects == 6
        for k in range(6):
            plan.crash_after_effects(k)
            with pytest.raises(EnclaveCrashed):
                store.put("b", b"2")
            landed = k == 5  # only the directory fsync was left
            assert sorted(DiskStore(root).keys()) == ["a", "b"][: 1 + landed]
            assert len(os.listdir(root)) == 2 + 2 * landed  # data and sidecar each
        syscalls = [event[1].split()[0] for event in plan.events]
        assert syscalls == [f"diskstore:{name}" for name in ("write", "replace", "fsync-dir") * 2]

    def test_a_crash_after_a_ranged_write_keeps_its_bytes(self, tmp_path):
        """A ranged write is ``pwrite`` in place, fsynced before the next
        effect: a crash there leaves the run durable, and an indexed value
        cut by the run stays cut after a reopen.  A fresh value's sidecar
        lands first, so a crash before its pwrite leaves nothing."""
        store = FaultyStore(DiskStore(str(tmp_path / "store")), FaultPlan())
        store.put_range("v", 0, [b"0123", b"4567"])
        store._plan.crash_after_effects(1)
        store.put_range("v", 2, [b"xy"])
        with pytest.raises(EnclaveCrashed):
            store.put_range("w", 0, [b"never"])
        store._plan.crash_after_effects(3)  # the sidecar's write, replace, fsync
        with pytest.raises(EnclaveCrashed):
            store.put_range("w", 0, [b"never"])
        reopened = DiskStore(store.inner.root)
        assert list(reopened.keys()) == ["v"]
        assert reopened.get("v") == b"01xy" and reopened.get_range("v", 1, 9) == b"1xy"
        assert len(os.listdir(store.inner.root)) == 2
