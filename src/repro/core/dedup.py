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
``idx:<name>`` holding the object id and the reference count, so a change
seals only the records it touched and a peer replica re-reads only the
records a coherence epoch names.  The enclave keeps every entry in
memory, loaded once from a sorted scan of the ``idx:`` keys; the record
bytes are never cached.

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
from typing import TYPE_CHECKING, Iterable

from repro.crypto import derive_key
from repro.errors import StorageError
from repro.sgx.protected_fs import ProtectedFs
from repro.util.serialization import Reader, Writer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.engine import StorageEngine

_RECORD_PREFIX = "idx:"
_OBJECT_PREFIX = "obj:"

#: Coherence namespace of the records: a committed change publishes
#: ``(NS_DEDUP, name)``, and a peer re-reads exactly that record.
NS_DEDUP = "dedup"

#: Length of an ``hName``; a plain object's name is half as long.
_HNAME_LENGTH = 64


@functools.cache
def object_prefix(writer: str) -> str:
    """``obj:`` and ``writer``'s tag: 48 bits of its id's hash, in base64url."""
    tag = hashlib.sha256(writer.encode("utf-8")).digest()[:6]
    return _OBJECT_PREFIX + base64.urlsafe_b64encode(tag).decode("ascii")


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
        #: name -> (object id, reference count), one entry per record.
        self._index: dict[str, tuple[str, int]] = {}
        #: Names whose entry changed since its record was last sealed.
        #: Inside a storage engine span the seal waits for the span's end
        #: (``seal_index``), so a request writes each touched record once.
        #: Kept in insertion order: an ``hName`` is keyed by this
        #: deployment's secret, so sorted names would seal in a different
        #: order, charging the clocks in a different order, in every run.
        self._dirty: dict[str, None] = {}
        self.reload_index()

    # -- record persistence ------------------------------------------------------

    def _reread(self, h_name: str) -> None:
        """Replace the entry of ``h_name`` with its sealed record, if any."""
        path = _RECORD_PREFIX + h_name
        if not self._pfs.exists(path):
            self._index.pop(h_name, None)
            return
        r = Reader(self._pfs.read_file(path))
        entry = (r.str(), r.u32())
        r.expect_end()
        self._index[h_name] = entry

    def _changed(self, h_name: str) -> None:
        """Seal now, or at the end of the engine span this change belongs to."""
        self._dirty[h_name] = None
        if not self._engine.in_span:
            self.seal_index()

    def seal_index(self) -> None:
        """Write every changed record; remove those whose last reference went."""
        for h_name in list(self._dirty):
            path = _RECORD_PREFIX + h_name
            # Names the record in this span's coherence entry; no record
            # bytes are cached, so there is nothing to write back.
            self._engine.invalidate(NS_DEDUP, h_name)
            entry = self._index.get(h_name)
            if entry is not None:
                self._pfs.write_file(path, Writer().str(entry[0]).u32(entry[1]).take())
            elif self._pfs.exists(path):
                self._pfs.remove(path)
        self._dirty.clear()

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
        self._engine.coherence_check()
        existing = self._index.get(name)
        if existing is not None:
            # `obj:*` blobs are never metadata-cached, and nothing refers
            # to the fresh copy.
            self._pfs.remove(object_id, delete=self._engine.delete_object_key)
            self._index[name] = (existing[0], existing[1] + 1)
        else:
            self._index[name] = (object_id, 1)
        self._changed(name)
        return name

    def put(self, content: bytes) -> str:
        """Non-streaming ingestion of a whole value."""
        upload = self.begin_upload()
        upload.write(content)
        return upload.finish()

    # -- access and lifecycle ---------------------------------------------------
    #
    # Every entry point that consults ``self._index`` calls
    # ``coherence_check()`` first: the entries are enclave-resident derived
    # state, so in a cluster "verify on hit" means applying any peer
    # invalidation epochs (which re-read the records they name) before
    # trusting them.  Object *contents* are self-verifying via content
    # addressing, or written once under a never-reused id.

    def _entry(self, h_name: str) -> tuple[str, int]:
        self._engine.coherence_check()
        entry = self._index.get(h_name)
        if entry is None and h_name not in self._dirty:
            # A replica without a coherence log shares the store with
            # writers whose records it never loaded: read the one asked
            # for, as a restart would.
            self._reread(h_name)
            entry = self._index.get(h_name)
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
        self._index[h_name] = (object_id, refcount + 1)
        self._changed(h_name)

    def release(self, h_name: str) -> None:
        """Drop one reference; the last reference reclaims the object."""
        object_id, refcount = self._entry(h_name)
        if refcount > 1:
            self._index[h_name] = (object_id, refcount - 1)
        else:
            del self._index[h_name]
        self._changed(h_name)
        if refcount <= 1:
            # Object blobs bypass the metadata cache (see _commit).
            self._engine.release_object(object_id, self._pfs.chunk_count(object_id))

    def refcount(self, h_name: str) -> int:
        self._engine.coherence_check()
        entry = self._index.get(h_name)
        return 0 if entry is None else entry[1]

    def _refuse_reload(self, h_names: Iterable[str]) -> None:
        # Re-reading a record while a span still runs (a peer invalidation,
        # or a host bumping the coherence board) would drop the span's
        # unsealed change to it while its object links commit.  Fail the
        # span instead; its rollback reloads.
        if self._engine.in_span and not self._dirty.keys().isdisjoint(h_names):
            raise StorageError("dedup records invalidated under an uncommitted change")

    def reload_records(self, h_names: list[str]) -> None:
        """Re-read the named records: a peer's commit changed them."""
        self._refuse_reload(h_names)
        for h_name in h_names:
            self._reread(h_name)

    def reload_index(self) -> None:
        """Drop every entry and re-read all records.

        An aborted span's changes never reached the stored records, and a
        recovery or peer may have replaced them underneath this copy; the
        in-memory entries must follow or later refcounts act on the
        aborted span's state.  Unsealed changes go with them: they belong
        to the aborted span.
        """
        self._refuse_reload(self._dirty)  # every unsealed change would go
        self._dirty.clear()
        self._index = {}
        for path in sorted(self._pfs.owners(_RECORD_PREFIX)):
            self._reread(path[len(_RECORD_PREFIX):])

    def sweep_orphans(self, writer: str | None = None) -> int:
        """Reclaim ``writer``'s (default: our) unreferenced objects; the count.

        A crash can strand objects, with dedup on or off: every upload's
        streamed chunks land in the store before a record adopts them,
        and an abort or a crash before the commit point leaves the
        records without ever naming it.  The converse
        (referenced-but-missing) cannot happen honestly: the records and
        the object links commit atomically in one redo record, so
        sweeping a writer's unreferenced objects after its recovery is
        always safe.  Only ``obj:`` keys are swept; ``idx:`` records are
        removed by the seal of the span that released their last
        reference.
        """
        # The candidates come from a scan of the writer's keys, not of
        # metadata: a stranded upload has chunks but no metadata yet (close()
        # writes it).  Another writer's objects stay: one may be a live peer's
        # upload still streaming.  The entries must be the records as stored,
        # not a view lagging a peer's commits.  An object we still read stays
        # too: its release waits for the reader, and its intent deletes it.
        referenced = {entry[0] for entry in self._index.values()}
        unreferenced = self._pfs.owners(object_prefix(writer or self._writer)) - referenced
        orphans = sorted(path for path in unreferenced if not self.reading(path))
        for path in orphans:
            # Orphaned object blobs were never cached (see _commit).
            self._pfs.purge(path)
        return len(orphans)

    def object_count(self) -> int:
        return len(self._index)


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
