"""The Intel Protected File System Library, re-implemented (Section II-A).

Data is split into 4 KiB chunks.  As in Intel's library, the encrypted metadata
node carries chunk 0, so a small file is one sealed blob; chunks 1 to n - 1 are
each sealed with PAE (AES-128-GCM), and their GCM tags are the integrity values:
the node binds the size, the chunk count and SHA-256 over those tags in index
order.  A file may have one writer handle or any number of reader handles.
Chunks 1 to n - 1 are one stored value at fixed offsets, as the SDK keeps one
host file; a group moves in one ranged call, each chunk keeping its own charges.

Keys: the file-system master key is provided by the caller (the enclave
derives it from its root key).  Each file gets its own key derived from
the master key and the file path (once per mount, kept in a bounded memo),
and every chunk's associated data binds (path, chunk index) so chunks
cannot be swapped between files or positions.

Note the scope: this protects *individual file* integrity.  Freshness of
the file *system* (rollback across files) is the job of
:mod:`repro.core.rollback`, mirroring the paper's split.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.crypto import default_pae
from repro.crypto.kdf import KDF_SALT, hkdf_expand, hkdf_extract
from repro.errors import FaultError, IntegrityError, ProtectedFsError, StorageError
from repro.sgx.enclave import Enclave
from repro.storage.backends import UntrustedStore
from repro.util.serialization import SerializationError, Writer

CHUNK_SIZE = 4096
#: Chunks a reader opens per ``read_chunk``: 64 KiB, one TLS stream record.
READ_GROUP = 16
#: Paths whose file key and chunk AAD prefix a mount keeps; the oldest goes first.
KEY_MEMO = 1024

_META_SUFFIX = "\x00meta"
_DATA_SUFFIX = "\x00data"
#: The keys a file owns: its metadata node, then (past one chunk) its data value.
SUFFIXES = (_META_SUFFIX, _DATA_SUFFIX)
#: The metadata node: ``size (u64) || chunk_count (u32) || tag digest length
#: (u32)``, the digest, then chunk 0 as a u32-length-prefixed string.
_NODE = struct.Struct(">QII")
_LEN = struct.Struct(">I")
#: The tag digest of a one-chunk file: SHA-256 over no tags.
_NO_TAGS = hashlib.sha256().digest()


@dataclass
class _Meta:
    size: int
    chunk_count: int  # counting chunk 0
    tag_digest: bytes  # SHA-256 over the GCM tags of chunks 1 to n - 1, in index order
    head: bytes  # chunk 0's plaintext

    def serialize(self) -> bytes:
        digest, head = self.tag_digest, self.head
        return b"".join((_NODE.pack(self.size, self.chunk_count, len(digest)), digest, _LEN.pack(len(head)), head))

    @classmethod
    def deserialize(cls, data: bytes) -> "_Meta":
        if len(data) < _NODE.size:
            raise SerializationError("truncated metadata node")
        size, chunk_count, digest_len = _NODE.unpack_from(data)
        at = _NODE.size + digest_len  # the head's length prefix
        if len(data) < at + 4 or _LEN.unpack_from(data, at)[0] != len(data) - at - 4:
            raise SerializationError("metadata node length disagrees with its contents")
        return cls(size, chunk_count, data[_NODE.size : at], data[at + 4 :])


class ProtectedFs:
    """A protected file system over an untrusted store.

    ``enclave`` is only the clock to charge crypto and OCALL time to.
    """

    def __init__(
        self,
        store: UntrustedStore,
        master_key: bytes,
        enclave: Enclave,
    ) -> None:
        # The HKDF-extract of every file key, done once per mount.
        self._prk = hkdf_extract(KDF_SALT, master_key)
        self._store = store
        self._enclave = enclave
        self._pae = default_pae()
        #: A sealed full chunk's size, the stride of the data value.
        self._node = CHUNK_SIZE + self._pae.overhead
        #: The engine's write buffers charge each single-key call themselves,
        #: and tell which ranged calls stay in enclave memory; on any other
        #: store every call pays here, a ranged one an OCALL per node.
        self._holds: Callable[[str, bool], bool] | None = getattr(store, "holds", None)
        self._keys: dict[str, tuple[bytes, bytes]] = {}
        self._keys_lock = threading.Lock()  # inserts only; a hit is one dict.get
        self._open_writers: set[str] = set()
        self._open_readers: dict[str, int] = {}
        #: Called with a path when its last reader handle closes.
        self.on_last_reader: Callable[[str], None] | None = None

    # -- cost accounting ------------------------------------------------------

    def _charge_ocall(self) -> None:
        if self._holds is None:
            self._enclave.ocall(account="pfs-io")

    def _charge_nodes(self, key: str, write: bool, crypto: list[float]) -> None:
        # A ranged call's charges, per node as the SDK pays them: crypto then
        # OCALL on write, OCALL then crypto on read, the OCALL unless the store
        # holds the call in enclave memory.  The clock sums the same terms in
        # the same order as when every chunk was its own stored key.
        charge, ocall = self._enclave.platform.clock.charge, self._enclave.platform.costs.ocall_transition
        held = self._holds is not None and self._holds(key, write)
        for seconds in crypto:
            if write:
                charge(seconds, "pfs-crypto")
            if not held:
                charge(ocall, "pfs-io")
            if not write:
                charge(seconds, "pfs-crypto")

    # -- keys -----------------------------------------------------------------

    def _file_key(self, path: str) -> bytes:
        # derive_key(master_key, "pfs/file-key", path, 16): one HMAC.
        return hkdf_expand(self._prk, b"pfs/file-key\x00" + path.encode("utf-8"), 16)

    def _keys_of(self, path: str) -> tuple[bytes, bytes]:
        """``path``'s file key and chunk AAD prefix, derived once per mount."""
        keys = self._keys.get(path)
        if keys is None:
            keys = self._file_key(path), Writer().str(path).take()
            with self._keys_lock:
                if len(self._keys) >= KEY_MEMO:
                    self._keys.pop(next(iter(self._keys)))
                self._keys[path] = keys
        return keys

    # -- handle bookkeeping ---------------------------------------------------

    def _acquire_writer(self, path: str) -> None:
        if path in self._open_writers:
            raise ProtectedFsError(f"{path!r} already has an open writer handle")
        if self._open_readers.get(path):
            raise ProtectedFsError(f"{path!r} has open reader handles")
        self._open_writers.add(path)

    def _release_writer(self, path: str) -> None:
        self._open_writers.discard(path)

    def _acquire_reader(self, path: str) -> None:
        if path in self._open_writers:
            raise ProtectedFsError(f"{path!r} has an open writer handle")
        self._open_readers[path] = self._open_readers.get(path, 0) + 1

    def _release_reader(self, path: str) -> None:
        count = self._open_readers.pop(path, 0) - 1
        if count > 0:
            self._open_readers[path] = count
        elif self.on_last_reader is not None:
            self.on_last_reader(path)

    def _check_unopened(self, path: str) -> None:
        if path in self._open_writers or self._open_readers.get(path):
            raise ProtectedFsError(f"{path!r} has open handles")

    def has_reader(self, path: str) -> bool:
        return path in self._open_readers

    # -- whole-file API -------------------------------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        """Create or replace ``path``; one chunk at most is sealed into its node, with no handle."""
        if len(data) <= CHUNK_SIZE:
            self._check_unopened(path)
            return self._store_meta(path, _Meta(len(data), 1, _NO_TAGS, data), self._keys_of(path)[0])
        with self.open_write(path) as handle:
            handle.write(data)

    def read_file(self, path: str) -> bytes:
        """Read and verify the whole protected file at ``path``."""
        with self.open_read(path) as handle:
            return handle.read_all()

    def exists(self, path: str) -> bool:
        return self._store.exists(path + _META_SUFFIX)

    def remove(self, path: str, delete: Callable[[str], None] | None = None) -> None:
        """Delete the file's node and data value (through ``delete`` if given)."""
        self._check_unopened(path)
        meta = self._load_meta(path)
        self._charge_ocall()
        for suffix in SUFFIXES[: 1 + (meta.chunk_count > 1)]:
            (delete or self._store.delete)(path + suffix)

    def owners(self, prefix: str) -> set[str]:
        """Paths under ``prefix`` owning any stored key, metadata *or* data."""
        # Data values count too, so this sees what a crash left of a file whose
        # write had not reached close() or whose removal had only begun.  Every
        # key is ``path + "\x00..."``; paths themselves hold no NUL.
        return {key.partition("\x00")[0] for key in self._store.scan(prefix)} - {""}

    def purge(self, path: str) -> None:
        """Delete whatever keys ``path`` owns, without needing its metadata."""
        self._check_unopened(path)
        self._charge_ocall()
        for key in list(self._store.scan(path + "\x00")):
            self._store.delete(key)

    def stored_size(self, path: str) -> int:
        """Total untrusted bytes used by the file (meta + data)."""
        return sum(self._store.size(path + suffix) for suffix in SUFFIXES[: 1 + (self._load_meta(path).chunk_count > 1)])

    # -- streaming handles ----------------------------------------------------

    def open_write(self, path: str) -> "WriteHandle":
        self._acquire_writer(path)
        return WriteHandle(self, path, *self._keys_of(path))

    def open_read(self, path: str) -> "ReadHandle":
        file_key, aad = self._keys_of(path)
        meta = self._load_meta(path, file_key)
        self._acquire_reader(path)
        return ReadHandle(self, path, meta, file_key, aad)

    # -- internals -----------------------------------------------------------

    def _load_meta(self, path: str, file_key: bytes | None = None) -> _Meta:
        self._charge_ocall()
        try:
            blob = self._store.get(path + _META_SUFFIX)
        except FaultError:  # transient: the caller retries, as for any store fault
            raise
        except StorageError:
            raise ProtectedFsError(f"no protected file at {path!r}") from None
        self._enclave.charge(self._enclave.platform.costs.pfs_read_time(len(blob)), account="pfs-crypto")
        try:
            plain = self._pae.decrypt(file_key or self._keys_of(path)[0], blob, aad=b"pfs-meta\x00" + path.encode())
            return _Meta.deserialize(plain)  # an old-layout node, without a head, fails here
        except (IntegrityError, SerializationError) as exc:
            raise ProtectedFsError(f"metadata of {path!r} failed verification") from exc

    def _store_meta(self, path: str, meta: _Meta, file_key: bytes) -> None:
        # A longer file's first ranged write cut any previous data value;
        # a one-chunk file has none, so a previous version's goes.
        if meta.chunk_count == 1 and self._store.exists(key := path + _DATA_SUFFIX):
            self._store.delete(key)
        plain = meta.serialize()
        self._enclave.charge(self._enclave.platform.costs.aead_time(len(plain)), account="pfs-crypto")
        blob = self._pae.encrypt(file_key, plain, aad=b"pfs-meta\x00" + path.encode())
        self._charge_ocall()
        self._store.put(path + _META_SUFFIX, blob)

    def _seal_chunks(self, path: str, first: int, chunks: list[bytes], file_key: bytes, aad: bytes) -> bytes:
        # Seal chunks ``first, first + 1, ...`` and write them with one ranged
        # call at their offset; returns their GCM tags.
        aads = [aad + i.to_bytes(4, "big") for i in range(first, first + len(chunks))]
        blobs = self._pae.encrypt_many(file_key, chunks, aads)
        self._charge_nodes(key := path + _DATA_SUFFIX, True, list(map(self._enclave.platform.costs.aead_time, map(len, chunks))))
        self._store.put_range(key, (first - 1) * self._node, blobs)
        return b"".join([blob[-self._pae.tag_size :] for blob in blobs])

    def _open_chunks(self, path: str, first: int, stop: int, meta: _Meta, file_key: bytes, aad: bytes) -> tuple[list[bytes], bytes]:
        # Load chunks ``first`` to ``stop - 1`` with one ranged read and verify
        # them: (plaintexts, GCM tags), all or none.  The data value ends n - 1
        # overheads past the bytes of chunks 1 to n - 1.
        key, node, offset = path + _DATA_SUFFIX, self._node, (first - 1) * self._node
        length = min((stop - 1) * node, meta.size - CHUNK_SIZE + (meta.chunk_count - 1) * self._pae.overhead) - offset
        try:
            data = self._store.get_range(key, offset, length)
        except FaultError:  # transient: the caller retries, as for any store fault
            raise
        except StorageError:
            data = b""
        if len(data) != length:
            raise ProtectedFsError(f"chunk {first + len(data) // node} of {path!r} is missing")
        blobs = [memoryview(data)[at : at + node] for at in range(0, length, node)]
        self._charge_nodes(key, False, list(map(self._enclave.platform.costs.pfs_read_time, map(len, blobs))))
        try:
            plain = self._pae.decrypt_many(file_key, blobs, [aad + i.to_bytes(4, "big") for i in range(first, stop)])
        except IntegrityError as exc:
            raise ProtectedFsError(f"chunks {first}-{stop - 1} of {path!r} failed verification") from exc
        return plain, b"".join([blob[-self._pae.tag_size :] for blob in blobs])


class WriteHandle:
    """Exclusive, append-only writer.  Closing seals the metadata node, chunk 0 in it."""

    def __init__(self, fs: ProtectedFs, path: str, file_key: bytes, aad: bytes) -> None:
        self._fs = fs
        self._path = path
        self._key = file_key
        # Every chunk's AAD: this, then the chunk index as a big-endian u32.
        self._aad = aad
        self._head = b""
        self._buffer = bytearray()
        self._size = 0
        self._count = 0
        self._tags = hashlib.sha256()
        self._closed = False

    def write(self, data: bytes) -> None:
        if self._closed:
            raise ProtectedFsError("write on closed handle")
        self._size += len(data)
        if self._buffer:  # then whole chunks are sealed from ``data`` in place, uncopied
            self._buffer += data
            data, self._buffer = bytes(self._buffer), bytearray()
        whole = len(data) // CHUNK_SIZE * CHUNK_SIZE
        if whole:
            view = memoryview(data)
            self._put_chunks([view[offset : offset + CHUNK_SIZE] for offset in range(0, whole, CHUNK_SIZE)])
        self._buffer += data[whole:]

    def _put_chunks(self, chunks: list[bytes]) -> None:
        if not self._count:  # chunk 0 is held for the metadata node
            self._head, self._count, chunks = bytes(chunks[0]), 1, chunks[1:]
        if chunks:
            self._tags.update(self._fs._seal_chunks(self._path, self._count, chunks, self._key, self._aad))
            self._count += len(chunks)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if self._buffer or not self._count:
                self._put_chunks([bytes(self._buffer)])
            meta = _Meta(size=self._size, chunk_count=self._count, tag_digest=self._tags.digest(), head=self._head)
            self._fs._store_meta(self._path, meta, self._key)
        finally:
            self._fs._release_writer(self._path)

    def __enter__(self) -> "WriteHandle":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True
            self._fs._release_writer(self._path)


class ReadHandle:
    """Shared, sequential reader; every chunk of a group verifies before the group is returned."""

    def __init__(self, fs: ProtectedFs, path: str, meta: _Meta, file_key: bytes, aad: bytes) -> None:
        self._fs = fs
        self._path = path
        self._meta = meta
        self._key = file_key
        self._aad = aad
        self._count = 0
        self._tags = hashlib.sha256()
        self._closed = False

    @property
    def size(self) -> int:
        return self._meta.size

    def read_chunk(self) -> bytes | None:
        """Plaintext of the next :data:`READ_GROUP` chunks (fewer at the end), or None at end of file.

        The first group is the metadata node's chunk 0 and chunks 1 to 15.  The
        digest of the tags is checked before the final group is returned; a
        replayed, truncated or spliced file therefore cannot be fully read
        without raising.
        """
        if self._closed:
            raise ProtectedFsError("read on closed handle")
        first, count = self._count, self._meta.chunk_count
        if first >= count:
            return None
        stop = min(first + READ_GROUP, count)
        plaintexts: list[bytes] = []
        if stop > 1:
            plaintexts, tags = self._fs._open_chunks(self._path, first or 1, stop, self._meta, self._key, self._aad)
            self._tags.update(tags)
        self._count = stop
        if stop == count:
            self._verify_tags()
        if not first:  # the metadata node's chunk 0, held no longer than the first group
            plaintexts.insert(0, self._meta.head)
            self._meta.head = b""
        return b"".join(plaintexts)

    def read_all(self) -> bytes:
        data = b"".join(iter(self.read_chunk, None))
        if len(data) != self._meta.size:
            raise ProtectedFsError(f"size mismatch reading {self._path!r}")
        return data

    def _verify_tags(self) -> None:
        if not hmac.compare_digest(self._tags.digest(), self._meta.tag_digest):
            raise ProtectedFsError(f"chunk tags of {self._path!r} do not match its metadata")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fs._release_reader(self._path)

    def __iter__(self) -> Iterator[bytes]:
        try:
            yield from iter(self.read_chunk, None)
        finally:
            self.close()

    def __enter__(self) -> "ReadHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
