"""Untrusted key-value storage backends.

Everything the enclave persists goes through this interface — it is the
"untrusted memory" of the paper.  Objects are opaque byte strings under
string keys; the backend gives no confidentiality, integrity, or freshness
guarantees whatsoever (tests exercise exactly those attacks by mutating
the backend directly).

Two implementations:

* :class:`InMemoryStore` — a dict; the default for tests and benchmarks.
* :class:`DiskStore` — a directory of files, for the examples that persist
  a share across process runs.

:class:`repro.store.ShardedStore` adds a deterministic N-way router over
several of these for multi-backend deployments.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import os
import tempfile
import threading
from abc import ABC, abstractmethod
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import StorageError


class UntrustedStore(ABC):
    """Abstract untrusted object store."""

    @abstractmethod
    def put(self, key: str, value: bytes) -> None:
        """Create or overwrite the object at ``key``."""

    @abstractmethod
    def get(self, key: str) -> bytes:
        """Return the object at ``key``; raise :class:`StorageError` if absent."""

    @abstractmethod
    def delete(self, key: str) -> None:
        """Remove the object at ``key``; raise :class:`StorageError` if absent."""

    @abstractmethod
    def put_range(self, key: str, offset: int, blobs: Sequence[bytes]) -> None:
        """Write ``blobs``, back to back, at byte ``offset`` of the value at
        ``key`` (created if absent); the value then ends where they end.

        A gap before ``offset`` reads as zero bytes.  Not atomic: only a
        value no stored key references yet is written this way (a protected
        file's fresh object), so a torn run is stranded, never read.
        """

    @abstractmethod
    def get_range(self, key: str, offset: int, length: int) -> bytes:
        """Up to ``length`` bytes of the value at ``key`` from ``offset``
        (fewer past its end); raise :class:`StorageError` if absent."""

    def get_many(self, keys: Iterable[str]) -> Iterable[bytes]:
        """The objects at ``keys``, in order, each fetched as the iteration
        reaches it; a missing key raises :class:`StorageError` there."""
        return map(self.get, keys)

    @abstractmethod
    def exists(self, key: str) -> bool:
        """True if an object exists at ``key``."""

    @abstractmethod
    def keys(self) -> Iterator[str]:
        """Iterate over all keys (order unspecified)."""

    @abstractmethod
    def size(self, key: str) -> int:
        """Stored size in bytes of the object at ``key``."""

    def scan(self, prefix: str) -> Iterator[str]:
        """Iterate over the keys starting with ``prefix``.

        The default filters :meth:`keys`; backends with an index override
        it so namespaced views (:class:`~repro.storage.stores.PrefixedStore`,
        the shard router) don't pay a full scan per prefix.
        """
        return (key for key in self.keys() if key.startswith(prefix))

    def total_bytes(self) -> int:
        """Total stored bytes across all objects (for storage-overhead benches)."""
        return sum(self.size(key) for key in self.keys())


class _Runs:
    """A value written by range: the runs that made it, in offset order.

    Growing it appends a run, so a value never copies itself to grow and
    keeps no growth slack; ``ends[i]`` is where ``runs[i]`` ends.
    """

    __slots__ = ("runs", "ends")

    def __init__(self, value: bytes) -> None:
        self.runs = [value] if value else []
        self.ends = [len(value)] if value else []

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    def __bytes__(self) -> bytes:
        return b"".join(self.runs)

    def write(self, offset: int, run: bytes) -> None:
        size = len(self)
        if offset < size:  # the value ends where the run ends: cut it at offset
            index = bisect.bisect_right(self.ends, offset)
            head = self.runs[index][: offset - (self.ends[index - 1] if index else 0)]
            del self.runs[index:], self.ends[index:]
            if head:
                self.runs.append(head)
                self.ends.append(offset)
        elif offset > size:
            self.runs.append(bytes(offset - size))
            self.ends.append(offset)
        if run:
            self.runs.append(run)
            self.ends.append(offset + len(run))

    def read(self, offset: int, length: int) -> bytes:
        index = bisect.bisect_right(self.ends, offset)
        pieces = []
        while length > 0 and index < len(self.runs):
            at = offset - (self.ends[index - 1] if index else 0)
            piece = self.runs[index][at : at + length]
            pieces.append(piece)
            offset, length, index = offset + len(piece), length - len(piece), index + 1
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)


class InMemoryStore(UntrustedStore):
    """Dict-backed store; thread-safe because the server may use worker threads."""

    def __init__(self) -> None:
        self._objects: dict[str, bytes | _Runs] = {}
        self._lock = threading.RLock()

    def _value(self, key: str) -> bytes | _Runs:
        try:
            return self._objects[key]
        except KeyError:
            raise StorageError(f"no object at key {key!r}") from None

    def put(self, key: str, value: bytes) -> None:
        with self._lock:
            self._objects[key] = bytes(value)

    def get(self, key: str) -> bytes:
        with self._lock:
            try:
                value = self._objects[key]
            except KeyError:
                raise StorageError(f"no object at key {key!r}") from None
            return value if type(value) is bytes else bytes(value)

    def put_range(self, key: str, offset: int, blobs: Sequence[bytes]) -> None:
        run = b"".join(blobs)
        with self._lock:
            value = self._objects.get(key, b"")
            if isinstance(value, bytes):
                value = self._objects[key] = _Runs(value)
            value.write(offset, run)

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        with self._lock:
            value = self._value(key)
            if isinstance(value, bytes):
                return value[offset : offset + length]
            return value.read(offset, length)

    def delete(self, key: str) -> None:
        with self._lock:
            if key not in self._objects:
                raise StorageError(f"no object at key {key!r}")
            del self._objects[key]

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._objects

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._objects))

    def scan(self, prefix: str) -> Iterator[str]:
        with self._lock:
            return iter([key for key in self._objects if key.startswith(prefix)])

    def size(self, key: str) -> int:
        with self._lock:
            return len(self._value(key))

    def snapshot(self) -> dict[str, bytes]:
        """Copy of all objects — the cloud provider's trivial backup (§V-G)."""
        with self._lock:
            return {key: bytes(value) for key, value in self._objects.items()}

    def restore(self, snapshot: dict[str, bytes]) -> None:
        """Replace contents with ``snapshot`` — also how rollback attacks are staged."""
        with self._lock:
            self._objects = dict(snapshot)


class DiskStore(UntrustedStore):
    """Directory-backed store.

    Keys may contain characters that are not filesystem-safe (SeGShare
    paths contain ``/``), so each key is stored under the hex SHA-256 of
    the key with the original key recorded in a sidecar index file.  The
    sidecars are read once at construction into an in-memory key index,
    which backs :meth:`keys` and :meth:`scan` without directory walks.

    Crash consistency: ``os.replace`` makes each ``put`` atomic (a ranged
    write is ``pwrite`` in place, and only fresh values take it), but
    the *directory entry* produced by the rename is not durable until the
    containing directory is fsynced — a power loss after the rename can
    resurface the old file contents (or lose a delete).  Every mutation
    therefore fsyncs the data before the rename and the directory after
    it.  A new key's sidecar is written before its data and removed after
    it, so no data file lacks its key: a crash leaves at most a sidecar
    without data, or an unrenamed temp file, and construction removes
    both.  Each syscall that changes the directory is reported to
    ``effects`` (a :class:`~repro.faults.FaultPlan`, set by the
    :class:`~repro.faults.FaultyStore` wrapping this store) before it acts.

    Thread-safe like :class:`InMemoryStore`: although each individual
    file write is atomic, operations that touch the data file *and* its
    sidecar (put/delete) span two syscalls — one lock keeps a
    concurrent reader from observing a data file whose sidecar is
    missing.  The lock is a leaf: nothing is acquired while holding it.
    """

    _INDEX_SUFFIX = ".key"

    def __init__(self, root: str) -> None:
        self.root = root
        self._lock = threading.RLock()
        self.effects: Any = None
        os.makedirs(root, exist_ok=True)
        self._keys: set[str] = set()
        for name in os.listdir(root):
            path = os.path.join(root, name)
            if name.endswith(".tmp") or (
                name.endswith(self._INDEX_SUFFIX) and not os.path.exists(path[: -len(self._INDEX_SUFFIX)])
            ):
                os.remove(path)
            elif name.endswith(self._INDEX_SUFFIX):
                with open(path, encoding="utf-8") as fh:
                    self._keys.add(fh.read())

    def _path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.root, digest)

    def _effect(self, syscall: str, path: str) -> None:
        if self.effects is not None:
            self.effects.on_effect(f"diskstore:{syscall} {os.path.basename(path)}")

    def _fsync_dir(self) -> None:
        self._effect("fsync-dir", self.root)
        fd = os.open(self.root, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _write_atomic(self, path: str, data: bytes) -> None:
        self._effect("write", path)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise
        self._effect("replace", path)
        os.replace(tmp, path)
        self._fsync_dir()

    def _index(self, key: str, path: str) -> None:
        if key not in self._keys:
            self._write_atomic(path + self._INDEX_SUFFIX, key.encode("utf-8"))

    def put(self, key: str, value: bytes) -> None:
        with self._lock:
            path = self._path(key)
            self._index(key, path)
            self._write_atomic(path, value)
            self._keys.add(key)

    def get(self, key: str) -> bytes:
        with self._lock:
            try:
                with open(self._path(key), "rb") as fh:
                    return fh.read()
            except FileNotFoundError:
                raise StorageError(f"no object at key {key!r}") from None

    def put_range(self, key: str, offset: int, blobs: Sequence[bytes]) -> None:
        # In place, not atomic: only a value no stored key references yet is
        # written by range, so a torn one is stranded, never read.
        with self._lock:
            path = self._path(key)
            self._index(key, path)
            self._effect("pwrite", path)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
            try:
                run = b"".join(blobs)
                os.pwrite(fd, run, offset)
                os.ftruncate(fd, offset + len(run))
                os.fsync(fd)
            finally:
                os.close(fd)
            self._keys.add(key)

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        with self._lock:
            try:
                fd = os.open(self._path(key), os.O_RDONLY)
            except FileNotFoundError:
                raise StorageError(f"no object at key {key!r}") from None
            try:
                return os.pread(fd, length, offset)
            finally:
                os.close(fd)

    def delete(self, key: str) -> None:
        with self._lock:
            path = self._path(key)
            if not os.path.exists(path):
                raise StorageError(f"no object at key {key!r}")
            self._effect("unlink", path)
            os.remove(path)
            self._keys.discard(key)
            self._effect("unlink", path + self._INDEX_SUFFIX)
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + self._INDEX_SUFFIX)
            self._fsync_dir()

    def exists(self, key: str) -> bool:
        with self._lock:
            return os.path.exists(self._path(key))

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._keys))

    def scan(self, prefix: str) -> Iterator[str]:
        with self._lock:
            return iter([key for key in self._keys if key.startswith(prefix)])

    def size(self, key: str) -> int:
        with self._lock:
            try:
                return os.path.getsize(self._path(key))
            except FileNotFoundError:
                raise StorageError(f"no object at key {key!r}") from None
