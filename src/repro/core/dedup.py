"""The object store: every file's content, deduplicated on request (paper §V-A).

Every content file is a symbolic-link-like pointer to one object here:
an upload streams into a fresh object under a unique id (its writer's
tag, then random bits), one PFS chunk at a time, before its ``PUT_FILE``
transaction opens, and the transaction adopts it under a *name*.
Deduplication decides only that name.  With it on, the name is the
paper's ``hName``: the hex HMAC of the content under a key derived from
the root key SK_r, computed as the chunks stream past.  If an object for
``hName`` already exists the fresh copy is deleted, otherwise it is
adopted, so one encrypted copy is shared across users and groups —
possible only because the enclave holds the file keys.  With it off, the
name is the object's own id (32 characters, never a 64-digit ``hName``)
at refcount 1: nothing derived from the content is stored, and equal
uploads stay separate objects.

Beyond the paper, the store reference-counts names: the last reference
going reclaims the object once its span commits and its last reader
closes.  Each name has one sealed record, the protected file
``idx:<name>`` holding the object id and the reference count.  The
records are the index: the enclave keeps no entry of its own, only what
the metadata cache holds of them.  A record is read and changed like the
other unguarded records, through the engine's cached path (namespace
``dedup``), so inside a span a change sits in the write buffers, an
abort drops it with them, and a peer's commit only discards the cached
copies it names.

A record is bound to its name by its protected-file key, not kept fresh:
the host may replay, delete or mix records of different ages.  Object
ids are never reused, an object is written once, and it is adopted only
under the ``hName`` of its content or under its own id, so any object a
record names holds exactly the bytes that name was given — a stale
record costs a refcount or an availability error, never other bytes.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import hmac
import secrets
from typing import TYPE_CHECKING

from repro.crypto import derive_key
from repro.errors import StorageError
from repro.sgx.protected_fs import ProtectedFs
from repro.util.serialization import Reader, Writer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.engine import StorageEngine

_RECORD_PREFIX = "idx:"
_OBJECT_PREFIX = "obj:"

#: Cache and coherence namespace of the records: a committed change
#: publishes ``(NS_DEDUP, name)``, and a peer discards its cached copy.
NS_DEDUP = "dedup"

#: Length of an ``hName``; a plain object's name is half as long.
_HNAME_LENGTH = 64


@functools.cache
def object_prefix(writer: str) -> str:
    """``obj:`` and ``writer``'s tag: 48 bits of its id's hash, in base64url."""
    tag = hashlib.sha256(writer.encode("utf-8")).digest()[:6]
    return _OBJECT_PREFIX + base64.urlsafe_b64encode(tag).decode("ascii")


def decode_record(data: bytes) -> tuple[str, int]:
    """A record's object id and reference count; other bytes fail typed."""
    r = Reader(data)
    entry = (r.str(), r.u32())
    r.expect_end()
    return entry


class DedupStore:
    """The object store: named objects plus one record per name."""

    def __init__(
        self, pfs: ProtectedFs, root_key: bytes, engine: "StorageEngine", deduplicate: bool = True
    ) -> None:
        self._pfs = pfs
        pfs.on_last_reader = engine.reader_closed
        #: True while a reader handle holds the named object open.
        self.reading = pfs.has_reader
        self._hmac_key = derive_key(root_key, "segshare/dedup-hmac")
        self._engine = engine
        #: Names the objects this enclave creates (``object_prefix``).
        self._writer = engine.journal.writer
        #: Name new objects by their content's ``hName`` (else by their id).
        self.deduplicate = deduplicate

    # -- records -----------------------------------------------------------------

    def _record(self, name: str) -> tuple[str, int] | None:
        """``name``'s record, or None: one cache check, then the store."""
        return self._engine.read(NS_DEDUP, name, self._load_record, decode=decode_record)

    def _load_record(self, name: str) -> bytes | None:
        path = _RECORD_PREFIX + name
        return self._pfs.read_file(path) if self._pfs.exists(path) else None

    def _set(self, name: str, object_id: str, refcount: int) -> None:
        """Write ``name``'s record; a count of 0 removes it."""
        path = _RECORD_PREFIX + name
        self._engine.invalidate(NS_DEDUP, name)
        if refcount:
            data = Writer().str(object_id).u32(refcount).take()
            self._pfs.write_file(path, data)
            self._engine.write_back(NS_DEDUP, name, data, (decode_record, (object_id, refcount)))
        else:
            self._pfs.remove(path)

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
        # obj: and 32 base64url characters: the 8 of the tag, 144 random bits.
        object_id = object_prefix(self._writer) + secrets.token_urlsafe(18)
        return DedupUpload(self, object_id)

    def _commit(self, object_id: str, name: str) -> str:
        """Adopt or discard a freshly written object; returns its name."""
        existing = self._record(name)
        if existing is not None:
            # `obj:*` blobs are never metadata-cached, and nothing refers
            # to the fresh copy.
            self._pfs.remove(object_id, delete=self._engine.delete_object_key)
            self._set(name, existing[0], existing[1] + 1)
        else:
            self._set(name, object_id, 1)
        return name

    def put(self, content: bytes) -> str:
        """Non-streaming ingestion of a whole value."""
        upload = self.begin_upload()
        upload.write(content)
        return upload.finish()

    # -- access and lifecycle ---------------------------------------------------
    #
    # Every access reads the name's record.  Object *contents* are
    # self-verifying via content addressing, or written once under a
    # never-reused id.

    def _entry(self, h_name: str) -> tuple[str, int]:
        entry = self._record(h_name)
        if entry is None:
            raise StorageError(f"no deduplicated object {h_name!r}")
        return entry

    def get(self, h_name: str) -> bytes:
        """Read an object, verifying a content-addressed one still hashes
        to its ``hName``.

        Content addressing doubles as rollback protection for this store:
        replaying an *older* object under the same name changes its HMAC
        and is caught here.  A plain object is written once, so it has no
        older version to replay.
        """
        content = self._pfs.read_file(self._entry(h_name)[0])
        addressed = len(h_name) == _HNAME_LENGTH
        if addressed and not hmac.compare_digest(self.h_name(content), h_name):
            raise StorageError(f"deduplicated object {h_name!r} failed content check")
        return content

    def open_read(self, h_name: str):
        return self._pfs.open_read(self._entry(h_name)[0])

    def size(self, h_name: str) -> int:
        with self._pfs.open_read(self._entry(h_name)[0]) as handle:
            return handle.size

    def stored_size(self, h_name: str) -> int:
        """Untrusted bytes behind ``h_name``: its object plus its record."""
        object_id = self._entry(h_name)[0]
        return self._pfs.stored_size(object_id) + self._pfs.stored_size(_RECORD_PREFIX + h_name)

    def add_reference(self, h_name: str) -> None:
        """A second content file now points at ``h_name``."""
        object_id, refcount = self._entry(h_name)
        self._set(h_name, object_id, refcount + 1)

    def release(self, h_name: str) -> None:
        """Drop one reference; the last reference reclaims the object."""
        object_id, refcount = self._entry(h_name)
        self._set(h_name, object_id, refcount - 1)
        if refcount <= 1:
            # Object blobs bypass the metadata cache (see _commit).
            self._engine.release_object(object_id)

    def refcount(self, h_name: str) -> int:
        entry = self._record(h_name)
        return 0 if entry is None else entry[1]

    def sweep_orphans(self, writer: str | None = None) -> int:
        """Reclaim ``writer``'s (default: our) unreferenced objects; the count.

        A crash can strand objects, with dedup on or off: every upload's
        streamed chunks land in the store before a record adopts them,
        and an abort or a crash before the commit point leaves the
        records without ever naming it.  The converse
        (referenced-but-missing) cannot happen honestly: the records and
        the object links commit atomically in one redo record, so
        sweeping a writer's unreferenced objects after its recovery is
        always safe.  Only ``obj:`` keys are swept; an ``idx:`` record is
        removed by the span that released its last reference.
        """
        # The candidates come from a scan of the writer's keys, not of
        # metadata: a stranded upload has a data value, perhaps torn, but no
        # metadata yet (close() writes it).  Another writer's objects stay: one may be a live peer's
        # upload still streaming.  The referenced set is read from the records
        # as stored, and only when there is a candidate; a record that does not
        # open fails the sweep.  An object we still read stays too: its
        # release waits for the reader, and its intent deletes it.
        candidates = self._pfs.owners(object_prefix(writer or self._writer))
        if not candidates:
            return 0
        records = sorted(self._pfs.owners(_RECORD_PREFIX))
        referenced = {decode_record(self._pfs.read_file(path))[0] for path in records}
        orphans = sorted(path for path in candidates - referenced if not self.reading(path))
        for path in orphans:
            # Orphaned object blobs were never cached (see _commit).
            self._pfs.purge(path)
        return len(orphans)


class DedupUpload:
    """A streaming upload into the object store."""

    def __init__(self, store: DedupStore, object_id: str) -> None:
        self._store = store
        self._object_id = object_id
        self._handle = store._pfs.open_write(object_id)
        self._hasher = store.hasher() if store.deduplicate else None
        self._done = False

    def write(self, chunk: bytes) -> None:
        if self._hasher is not None:
            self._hasher.update(chunk)
        self._handle.write(chunk)

    def finish(self) -> str:
        """Close the object and commit it; returns its name: the content's
        ``hName``, or without dedup the object's own random id."""
        if self._done:
            raise StorageError("upload already finished")
        self._done = True
        self._handle.close()
        if self._hasher is None:
            return self._store._commit(self._object_id, self._object_id[len(_OBJECT_PREFIX):])
        return self._store._commit(self._object_id, self._hasher.hexdigest())

    def abort(self) -> None:
        if not self._done:
            self._done = True
            self._handle.close()
            self._store._pfs.remove(self._object_id)
