"""Server-side, file-based deduplication (paper Section V-A).

Uploaded plaintext is deduplicated *inside* the enclave — possible only
because the enclave holds the file keys — and a single encrypted copy is
kept, shared across users and groups.  Per the paper:

* the incoming file is streamed into the deduplication store under a
  unique random name while an HMAC over its content (keyed with the root
  key SK_r) is computed,
* the HMAC's hex string ``hName`` identifies the content; if an object
  for ``hName`` already exists the fresh copy is deleted, otherwise it is
  adopted,
* the content file in the content store holds only ``hName`` — a
  symbolic-link-like indirection.

Beyond the paper, the store reference-counts ``hName`` entries so that
deleting the last referring file reclaims the stored copy.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from typing import TYPE_CHECKING

from repro.crypto import derive_key
from repro.errors import StorageError
from repro.sgx.protected_fs import ProtectedFs
from repro.util.serialization import SerializationError, pack_str, pack_u32, unpack_str, unpack_u32

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.engine import StorageEngine

_INDEX_PATH = "dedup-index"
_OBJECT_PREFIX = "obj:"

#: Metadata-cache namespace for the serialized index.
_NS_DEDUP = "dedup"


class DedupStore:
    """The deduplication store: content-addressed objects plus an index."""

    def __init__(
        self, pfs: ProtectedFs, root_key: bytes, engine: "StorageEngine"
    ) -> None:
        self._pfs = pfs
        self._hmac_key = derive_key(root_key, "segshare/dedup-hmac")
        # The storage engine's cache facade holds the serialized index
        # under the "dedup" namespace, so a rebuild of this store object
        # (reload, enclave component rebuild) skips the PFS decrypt.
        self._engine = engine
        # hName -> (object id, reference count, the entry as the index
        # file encodes it).  The bytes are kept so that persisting the
        # index re-encodes only the entry that changed.
        self._index: dict[str, tuple[str, int, bytes]] = {}
        #: The index changed since it was last sealed.  Inside a storage
        #: engine span the seal waits for the span's end (``seal_index``),
        #: so a request that touches several entries writes it once.
        self._dirty = False
        if self._pfs.exists(_INDEX_PATH):
            self._load_index()

    # -- index persistence -----------------------------------------------------

    def _load_index(self) -> None:
        data = self._engine.lookup(_NS_DEDUP, _INDEX_PATH)
        if data is None:
            data = self._pfs.read_file(_INDEX_PATH)
            self._engine.fill(_NS_DEDUP, _INDEX_PATH, data)
        count, offset = unpack_u32(data)
        self._index = {}
        for _ in range(count):
            start = offset
            h_name, offset = unpack_str(data, offset)
            object_id, offset = unpack_str(data, offset)
            refcount, offset = unpack_u32(data, offset)
            # The encoding is canonical, so the slice is what _set would build.
            self._index[h_name] = (object_id, refcount, data[start:offset])
        if offset != len(data):
            raise SerializationError(f"{len(data) - offset} trailing bytes")

    def _set(self, h_name: str, object_id: str, refcount: int) -> None:
        """Every change to an entry lands here, so its encoding never goes stale."""
        encoded = pack_str(h_name) + pack_str(object_id) + pack_u32(refcount)
        self._index[h_name] = (object_id, refcount, encoded)

    def _changed(self) -> None:
        """Seal now, or at the end of the engine span this change belongs to."""
        self._dirty = True
        if not self._engine.in_span:
            self.seal_index()

    def seal_index(self) -> None:
        """Write the index if it changed since it was last sealed."""
        if self._dirty:
            self._store_index()

    def _store_index(self) -> None:
        index = self._index
        blob = pack_u32(len(index)) + b"".join([index[h_name][2] for h_name in sorted(index)])
        self._engine.invalidate(_NS_DEDUP, _INDEX_PATH)
        self._pfs.write_file(_INDEX_PATH, blob)
        self._engine.write_back(_NS_DEDUP, _INDEX_PATH, blob)
        self._dirty = False

    # -- content hashing -----------------------------------------------------

    def hasher(self) -> "hmac.HMAC":
        """Incremental HMAC for streaming uploads."""
        return hmac.new(self._hmac_key, digestmod=hashlib.sha256)

    def h_name(self, content: bytes) -> str:
        digest = hmac.new(self._hmac_key, content, hashlib.sha256).digest()
        return digest.hex()

    # -- ingestion -----------------------------------------------------------

    def begin_upload(self) -> "DedupUpload":
        """Start streaming an upload into a temporary object."""
        object_id = _OBJECT_PREFIX + secrets.token_hex(16)
        return DedupUpload(self, object_id)

    def _commit(self, object_id: str, h_name: str) -> str:
        """Adopt or discard a freshly written object; returns the ``hName``."""
        self._engine.coherence_check()
        existing = self._index.get(h_name)
        if existing is not None:
            # `obj:*` blobs are never metadata-cached; only the index file
            # is, and _store_index() invalidates it before writing.
            self._pfs.remove(object_id)
            self._set(h_name, existing[0], existing[1] + 1)
        else:
            self._set(h_name, object_id, 1)
        self._changed()
        return h_name

    def put(self, content: bytes) -> str:
        """Non-streaming ingestion of a whole value."""
        upload = self.begin_upload()
        upload.write(content)
        return upload.finish()

    # -- access and lifecycle ---------------------------------------------------
    #
    # Every entry point that consults ``self._index`` calls
    # ``coherence_check()`` first: the index is enclave-resident derived
    # state, so in a cluster "verify on hit" means applying any peer
    # invalidation epochs (which reload the index) before trusting it.
    # Object *contents* are self-verifying via content addressing.

    def get(self, h_name: str) -> bytes:
        """Read an object, verifying it still hashes to ``h_name``.

        Content addressing doubles as rollback protection for this store:
        replaying an *older* object under the same name changes its HMAC
        and is caught here.
        """
        self._engine.coherence_check()
        entry = self._index.get(h_name)
        if entry is None:
            raise StorageError(f"no deduplicated object {h_name!r}")
        content = self._pfs.read_file(entry[0])
        if not hmac.compare_digest(self.h_name(content), h_name):
            raise StorageError(f"deduplicated object {h_name!r} failed content check")
        return content

    def open_read(self, h_name: str):
        self._engine.coherence_check()
        entry = self._index.get(h_name)
        if entry is None:
            raise StorageError(f"no deduplicated object {h_name!r}")
        return self._pfs.open_read(entry[0])

    def size(self, h_name: str) -> int:
        self._engine.coherence_check()
        entry = self._index.get(h_name)
        if entry is None:
            raise StorageError(f"no deduplicated object {h_name!r}")
        with self._pfs.open_read(entry[0]) as handle:
            return handle.size

    def add_reference(self, h_name: str) -> None:
        """A second content file now points at ``h_name``."""
        self._engine.coherence_check()
        object_id, refcount, _ = self._index[h_name]
        self._set(h_name, object_id, refcount + 1)
        self._changed()

    def release(self, h_name: str) -> None:
        """Drop one reference; the last reference reclaims the object."""
        self._engine.coherence_check()
        entry = self._index.get(h_name)
        if entry is None:
            raise StorageError(f"no deduplicated object {h_name!r}")
        object_id, refcount, _ = entry
        if refcount <= 1:
            del self._index[h_name]
            # Object blobs bypass the metadata cache (see _commit).
            self._pfs.remove(object_id)
        else:
            self._set(h_name, object_id, refcount - 1)
        self._changed()

    def refcount(self, h_name: str) -> int:
        self._engine.coherence_check()
        entry = self._index.get(h_name)
        return 0 if entry is None else entry[1]

    def reload_index(self) -> None:
        """Drop the in-memory index and re-read the persisted one.

        An undo-journal rollback restores the on-disk index bytes
        underneath this cache; the in-memory copy must follow or later
        refcounts act on the aborted batch's state.  Unsealed changes go
        with it: they belong to the aborted span.
        """
        # A reload while a span still runs (a peer invalidation, or a host
        # bumping the coherence board) would drop the span's unsealed
        # changes while its object links commit.  Fail the span instead;
        # its rollback reloads.
        if self._dirty and self._engine.in_span:
            raise StorageError("dedup index invalidated under an uncommitted change")
        self._dirty = False
        # Re-read storage, not a cached copy of the aborted state.
        self._engine.invalidate(_NS_DEDUP, _INDEX_PATH)
        if self._pfs.exists(_INDEX_PATH):
            self._load_index()
        else:
            self._index = {}

    def sweep_orphans(self) -> int:
        """Reclaim objects the index does not reference; returns the count.

        A crash can strand objects: streamed chunks land in the store
        before the index adopts them, and an undo-log rollback restores
        the index without deleting the abandoned object.  The converse
        (referenced-but-missing) cannot happen: the index and the object
        links commit atomically in one journaled span, so sweeping
        unreferenced ``obj:`` keys after crash recovery is always safe.
        """
        # The candidates come from a scan of every key, not of metadata: a
        # stranded upload has chunks but no metadata yet (close() writes
        # it).  Only for the store's sole writer: on a store shared with live
        # peers an unreferenced object may be a peer's upload still streaming.
        referenced = {entry[0] for entry in self._index.values()}
        orphans = sorted(self._pfs.owners(_OBJECT_PREFIX) - referenced)
        for path in orphans:
            # Orphaned object blobs were never cached (see _commit).
            self._pfs.purge(path)
        return len(orphans)

    def object_count(self) -> int:
        return len(self._index)


class DedupUpload:
    """A streaming upload into the deduplication store."""

    def __init__(self, store: DedupStore, object_id: str) -> None:
        self._store = store
        self._object_id = object_id
        self._handle = store._pfs.open_write(object_id)
        self._hasher = store.hasher()
        self._done = False

    def write(self, chunk: bytes) -> None:
        self._hasher.update(chunk)
        self._handle.write(chunk)

    def finish(self) -> str:
        """Close the object and commit it; returns the content's ``hName``."""
        if self._done:
            raise StorageError("upload already finished")
        self._done = True
        self._handle.close()
        return self._store._commit(self._object_id, self._hasher.hexdigest())

    def abort(self) -> None:
        if not self._done:
            self._done = True
            self._handle.close()
            self._store._pfs.remove(self._object_id)
