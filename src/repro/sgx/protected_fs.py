"""The Intel Protected File System Library, re-implemented (Section II-A).

On write, data is split into 4 KiB chunks, each sealed with PAE (AES-128-GCM).
As in Intel's library, the GCM tags are the integrity values: an encrypted
metadata node binds the size, the chunk count and SHA-256 over the tags in
index order.  On read, every chunk and then that digest is verified.  At
any point, a file may have one writer handle or any number of reader handles.

Keys: the file-system master key is provided by the caller (the enclave
derives it from its root key).  Each file gets its own key derived from
the master key and the file path, and every chunk's associated data binds
(path, chunk index) so chunks cannot be swapped between files or positions.

Note the scope: this protects *individual file* integrity.  Freshness of
the file *system* (rollback across files) is the job of
:mod:`repro.core.rollback`, mirroring the paper's split.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.crypto import default_pae, derive_key
from repro.errors import IntegrityError, ProtectedFsError
from repro.sgx.enclave import Enclave
from repro.storage.backends import UntrustedStore
from repro.util.serialization import Reader, Writer

CHUNK_SIZE = 4096

_META_SUFFIX = "\x00meta"


def _chunk_key(path: str, index: int) -> str:
    return f"{path}\x00chunk\x00{index}"


def stored_keys(path: str, chunk_count: int) -> list[str]:
    return [path + _META_SUFFIX] + [_chunk_key(path, index) for index in range(chunk_count)]


def _chunk_aad(path: str) -> bytes:
    # What the associated data of every chunk of ``path`` starts with; the
    # chunk index follows as a big-endian u32.
    return Writer().str(path).take()


@dataclass
class _Meta:
    size: int
    chunk_count: int
    tag_digest: bytes  # SHA-256 over the chunks' GCM tags, in index order

    def serialize(self) -> bytes:
        return Writer().u64(self.size).u32(self.chunk_count).bytes(self.tag_digest).take()

    @classmethod
    def deserialize(cls, data: bytes) -> "_Meta":
        r = Reader(data)
        meta = cls(size=r.u64(), chunk_count=r.u32(), tag_digest=r.bytes())
        r.expect_end()
        return meta


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
        self._master_key = master_key
        self._store = store
        self._enclave = enclave
        self._pae = default_pae()
        self._open_writers: set[str] = set()
        self._open_readers: dict[str, int] = {}
        #: Called with a path when its last reader handle closes.
        self.on_last_reader: Callable[[str], None] | None = None

    # -- cost accounting ------------------------------------------------------

    def _charge_crypto(self, nbytes: int) -> None:
        self._enclave.charge(
            self._enclave.platform.costs.aead_time(nbytes), account="pfs-crypto"
        )

    def _charge_read(self, nbytes: int) -> None:
        """The read path pays decryption plus integrity-verification time."""
        costs = self._enclave.platform.costs
        self._enclave.charge(
            costs.aead_time(nbytes) + nbytes / costs.pfs_read_bytes_per_second,
            account="pfs-crypto",
        )

    def _charge_ocall(self) -> None:
        if getattr(self._store, "owns_ocall_accounting", False):
            # The storage engine's deferred stores charge per actual
            # round-trip themselves — buffered ops are charged once per
            # flushed group at transaction commit.
            return
        self._enclave.ocall(account="pfs-io")

    # -- keys -----------------------------------------------------------------

    def _file_key(self, path: str) -> bytes:
        return derive_key(self._master_key, "pfs/file-key", path.encode("utf-8"), length=16)

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

    def has_reader(self, path: str) -> bool:
        return path in self._open_readers

    # -- whole-file API -------------------------------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        """Create or replace the protected file at ``path``."""
        with self.open_write(path) as handle:
            handle.write(data)

    def read_file(self, path: str) -> bytes:
        """Read and verify the whole protected file at ``path``."""
        with self.open_read(path) as handle:
            return handle.read_all()

    def exists(self, path: str) -> bool:
        return self._store.exists(path + _META_SUFFIX)

    def remove(self, path: str, delete: Callable[[str], None] | None = None) -> None:
        """Delete the file and all its chunks (through ``delete`` if given)."""
        if path in self._open_writers or self._open_readers.get(path):
            raise ProtectedFsError(f"{path!r} has open handles")
        meta = self._load_meta(path)
        self._charge_ocall()
        for key in stored_keys(path, meta.chunk_count):
            (delete or self._store.delete)(key)

    def chunk_count(self, path: str) -> int:
        return self._load_meta(path).chunk_count

    def owners(self, prefix: str) -> set[str]:
        """Paths under ``prefix`` owning any stored key, metadata *or* chunk."""
        # Chunks count too, so this sees what a crash left of a file whose
        # write had not reached close() or whose removal had only begun.  Every
        # key is ``path + "\x00..."``; paths themselves hold no NUL.
        return {key.partition("\x00")[0] for key in self._store.scan(prefix)} - {""}

    def purge(self, path: str) -> None:
        """Delete whatever keys ``path`` owns, without needing its metadata."""
        if path in self._open_writers or self._open_readers.get(path):
            raise ProtectedFsError(f"{path!r} has open handles")
        self._charge_ocall()
        for key in list(self._store.scan(path + "\x00")):
            self._store.delete(key)

    def stored_size(self, path: str) -> int:
        """Total untrusted bytes used by the file (meta + chunks)."""
        meta = self._load_meta(path)
        total = self._store.size(path + _META_SUFFIX)
        for index in range(meta.chunk_count):
            total += self._store.size(_chunk_key(path, index))
        return total

    # -- streaming handles ----------------------------------------------------

    def open_write(self, path: str) -> "WriteHandle":
        self._acquire_writer(path)
        return WriteHandle(self, path, self._file_key(path))

    def open_read(self, path: str) -> "ReadHandle":
        file_key = self._file_key(path)
        meta = self._load_meta(path, file_key)
        self._acquire_reader(path)
        return ReadHandle(self, path, meta, file_key)

    # -- internals -----------------------------------------------------------

    def _load_meta(self, path: str, file_key: bytes | None = None) -> _Meta:
        self._charge_ocall()
        key = path + _META_SUFFIX
        if not self._store.exists(key):
            raise ProtectedFsError(f"no protected file at {path!r}")
        blob = self._store.get(key)
        self._charge_read(len(blob))
        try:
            plain = self._pae.decrypt(file_key or self._file_key(path), blob, aad=b"pfs-meta\x00" + path.encode())
        except IntegrityError as exc:
            raise ProtectedFsError(f"metadata of {path!r} failed verification") from exc
        return _Meta.deserialize(plain)

    def _store_meta(self, path: str, meta: _Meta, file_key: bytes) -> None:
        plain = meta.serialize()
        self._charge_crypto(len(plain))
        blob = self._pae.encrypt(file_key, plain, aad=b"pfs-meta\x00" + path.encode())
        self._charge_ocall()
        self._store.put(path + _META_SUFFIX, blob)

    def _write_chunk(self, path: str, index: int, chunk: bytes, file_key: bytes, aad: bytes) -> bytes:
        """Encrypt and store one chunk; returns its GCM tag."""
        self._charge_crypto(len(chunk))
        blob = self._pae.encrypt(file_key, chunk, aad=aad + index.to_bytes(4, "big"))
        self._charge_ocall()
        self._store.put(_chunk_key(path, index), blob)
        return blob[-self._pae.tag_size :]

    def _read_chunk(self, path: str, index: int, file_key: bytes, aad: bytes) -> tuple[bytes, bytes]:
        """Load and verify one chunk; returns (plaintext, GCM tag)."""
        self._charge_ocall()
        key = _chunk_key(path, index)
        if not self._store.exists(key):
            raise ProtectedFsError(f"chunk {index} of {path!r} is missing")
        blob = self._store.get(key)
        self._charge_read(len(blob))
        try:
            plain = self._pae.decrypt(file_key, blob, aad=aad + index.to_bytes(4, "big"))
        except IntegrityError as exc:
            raise ProtectedFsError(f"chunk {index} of {path!r} failed verification") from exc
        return plain, blob[-self._pae.tag_size :]


class WriteHandle:
    """Exclusive, append-only writer.  Closing seals the metadata node."""

    def __init__(self, fs: ProtectedFs, path: str, file_key: bytes) -> None:
        self._fs = fs
        self._path = path
        self._key = file_key
        self._aad = _chunk_aad(path)
        self._buffer = bytearray()
        self._size = 0
        self._count = 0
        self._tags = hashlib.sha256()
        self._closed = False

    def write(self, data: bytes) -> None:
        if self._closed:
            raise ProtectedFsError("write on closed handle")
        self._buffer.extend(data)
        self._size += len(data)
        while len(self._buffer) >= CHUNK_SIZE:
            chunk = bytes(self._buffer[:CHUNK_SIZE])
            del self._buffer[:CHUNK_SIZE]
            self._put_chunk(chunk)

    def _put_chunk(self, chunk: bytes) -> None:
        self._tags.update(self._fs._write_chunk(self._path, self._count, chunk, self._key, self._aad))
        self._count += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if self._buffer or not self._count:
                self._put_chunk(bytes(self._buffer))
            # Remove stale chunks from a previous, longer version of the file.
            stale = self._count
            while self._fs._store.exists(_chunk_key(self._path, stale)):
                self._fs._store.delete(_chunk_key(self._path, stale))
                stale += 1
            meta = _Meta(size=self._size, chunk_count=self._count, tag_digest=self._tags.digest())
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
    """Shared, sequential reader with chunk-by-chunk verification."""

    def __init__(self, fs: ProtectedFs, path: str, meta: _Meta, file_key: bytes) -> None:
        self._fs = fs
        self._path = path
        self._meta = meta
        self._key = file_key
        self._aad = _chunk_aad(path)
        self._count = 0
        self._tags = hashlib.sha256()
        self._closed = False

    @property
    def size(self) -> int:
        return self._meta.size

    def read_chunk(self) -> bytes | None:
        """Next plaintext chunk, or None at end of file.

        The digest of the tags is checked once the final chunk has been
        read; a replayed, truncated or spliced file therefore cannot be
        fully read without raising.
        """
        if self._closed:
            raise ProtectedFsError("read on closed handle")
        if self._count >= self._meta.chunk_count:
            return None
        plain, tag = self._fs._read_chunk(self._path, self._count, self._key, self._aad)
        self._tags.update(tag)
        self._count += 1
        if self._count == self._meta.chunk_count:
            self._verify_tags()
        return plain

    def read_all(self) -> bytes:
        parts = []
        while (chunk := self.read_chunk()) is not None:
            parts.append(chunk)
        data = b"".join(parts)
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
            while (chunk := self.read_chunk()) is not None:
                yield chunk
        finally:
            self.close()

    def __enter__(self) -> "ReadHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
