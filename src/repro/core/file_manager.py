"""Trusted and untrusted file managers (paper Section IV-B, Fig. 1).

The **trusted file manager** runs inside the enclave.  It encrypts and
decrypts every stored file with PAE under a per-file key derived from the
root key SK_r, optionally hides paths (Section V-C), deduplicates content
(Section V-A), and drives the rollback guard (Section V-D).  Storage goes
through the Protected File System Library clone, whose 4 KiB chunks,
each authenticated by its own AES-GCM tag, mirror Intel's library.

Persistence itself — the redo journal, the guard batches, the metadata
cache, and the deferred write buffers — is owned by the
:class:`repro.store.engine.StorageEngine`; the manager expresses reads
and writes against the engine's facade and brackets multi-key mutations
in :meth:`TrustedFileManager.transaction`.

The **untrusted file manager** is the raw object store — here the
:class:`repro.storage.StoreSet` handed in from the host.  The trusted
side reaches it only through the ProtectedFs OCALL accounting, never with
plaintext.

Content-store plaintext formats:

* directory files (paths ending in ``/``): a serialized
  :class:`repro.fsmodel.DirectoryFile`,
* content files: the kind byte POINTER (1) followed by the name of an
  object in the object store (:mod:`repro.core.dedup`) — the
  symbolic-link-style indirection of Section V-A, for every file: the
  content's ``hName`` with dedup, a random name without.  Any other kind
  byte is a :class:`FileSystemError`.
"""

from __future__ import annotations

import contextlib
import hashlib
from typing import TYPE_CHECKING, Any, Callable

from repro.core.acl import (
    GROUP_LIST_PATH,
    AclFile,
    GroupListFile,
    MemberListFile,
    acl_path,
    member_list_path,
    quota_path,
)
from repro.core.dedup import DedupStore
from repro.core.hiding import HmacPathTransform, IdentityTransform
from repro.crypto import derive_key
from repro.errors import FileSystemError, ProtectedFsError
from repro.fsmodel import DirectoryFile
from repro.sgx.enclave import Enclave
from repro.sgx.protected_fs import ProtectedFs, ReadHandle
from repro.store.engine import StorageEngine
from repro.util.serialization import Reader, Writer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cache import Slot
    from repro.core.rollback import FlatStoreGuard, RollbackGuard

_KIND_POINTER = 1

#: Logical-path prefix for rollback-guard node objects.  Contains NUL,
#: which is invalid in user paths, so collisions are impossible.
GUARD_PREFIX = "\x00rb:"

#: Same, for the group store's flat guard (its one node).
GROUP_GUARD_PREFIX = "\x00rbg:"

#: Group-store prefix for authorization-backend records (envelope state).
#: Contains NUL, which is invalid in user ids and paths, so the records
#: can never collide with member lists, quota ledgers, or guard objects.
AUTHZ_PREFIX = "\x00authz:"


def _pointer_name(record: bytes) -> str:
    """The object name a content record points to; any other record is a FileSystemError."""
    r = Reader(record)
    if r.u8() != _KIND_POINTER:
        raise FileSystemError("not a content record")
    return r.str()


class Mount:
    """One protected store as the enclave sees it.

    Bundles the ProtectedFs mount, its metadata-cache namespace, the
    logical-path prefix of its rollback-guard objects, and the attached
    guard (``None`` = unguarded).  The content and the group store are
    two instances; every read and write of either goes through here.
    """

    def __init__(
        self, manager: "TrustedFileManager", pfs: ProtectedFs, namespace: str, guard_prefix: str
    ) -> None:
        self._engine = manager.engine
        self._sp = manager._sp
        self._content_hash = manager._content_hash
        self.pfs = pfs
        self.namespace = namespace
        self.guard_prefix = guard_prefix
        self.guard: "RollbackGuard | FlatStoreGuard | None" = None

    def _load(self, path: str) -> bytes:
        """Decrypt the stored object; a missing one is a FileSystemError."""
        sp = self._sp(path)
        try:
            return self.pfs.read_file(sp)
        except ProtectedFsError:
            if self.pfs.exists(sp):
                raise  # present but failing verification: not "missing"
            raise FileSystemError(f"no file at {path!r}") from None

    def _load_present(self, path: str) -> bytes | None:
        """``_load`` after an existence probe: None if there is no file."""
        return self._load(path) if self.raw_exists(path) else None

    def _verify(self, path: str, data: bytes) -> None:
        if self.guard is not None:
            self.guard.verify_read(path, self._content_hash(data))

    def _current_hash(self, path: str) -> bytes:
        """Content hash of the stored version (the guard's ``old_hash``)."""
        return self._content_hash(self._engine.read(self.namespace, path, self._load, fill=False))

    # -- guarded I/O ---------------------------------------------------------------

    def guarded_read(self, path: str, decode: "Callable[[bytes], Any] | None" = None) -> Any:
        # Cache hit: the plaintext was verified when it entered the cache
        # (or written by this enclave); serving it from enclave memory
        # skips the existence probe, the PFS decrypt AND the per-level
        # guard recomputation.
        data = self._engine.read(self.namespace, path, self._load_present, self._verify, decode=decode)
        if data is None:
            raise FileSystemError(f"no file at {path!r}")
        return data

    def guarded_write(self, path: str, data: bytes, slot: "Slot | None" = None) -> None:
        """Write ``data`` (with the ``slot`` it was serialized from, which the
        caller then leaves alone) through the guard."""
        old_hash = self._current_hash(path) if self.guard is not None and self.raw_exists(path) else None
        new_hash = self._content_hash(data) if self.guard is not None else b""
        if new_hash == old_hash:
            return  # the stored content already: no seal, pre-image, guard walk or write-back
        self._engine.invalidate(self.namespace, path)
        self.pfs.write_file(self._sp(path), data)
        if self.guard is not None:
            self.guard.on_write(path, new_hash, old_hash)
        self._engine.write_back(self.namespace, path, data, slot)

    def guarded_delete(self, path: str) -> None:
        if not self.raw_exists(path):
            raise FileSystemError(f"no file at {path!r}")
        old_hash = self._current_hash(path) if self.guard is not None else None
        self.raw_delete(path)
        if self.guard is not None:
            self.guard.on_delete(path, old_hash)

    # -- unverified access (guard internals, self-authenticating records) --------------

    def raw_read(self, path: str, decode: "Callable[[bytes], Any] | None" = None) -> Any:
        """Read without rollback verification.

        Consults the cache (entries are only ever inserted verified or
        write-through, so they are at least as fresh as storage) but fills
        it only for guard objects: a guard node read here still gets
        authenticated by its parent's bucket up to the counter-checked
        anchor, whereas a sibling file read during bucket recomputation is
        never individually verified and must not be laundered into the
        cache.
        """
        return self._engine.read(
            self.namespace, path, self._load, fill=path.startswith(self.guard_prefix), decode=decode
        )

    def raw_exists(self, path: str) -> bool:
        if self._engine.cached(self.namespace, path):
            return True
        return self.pfs.exists(self._sp(path))

    def raw_write(self, path: str, data: bytes, slot: "Slot | None" = None) -> None:
        """Write without guard hooks (guard nodes, unguarded records)."""
        self._engine.invalidate(self.namespace, path)
        self.pfs.write_file(self._sp(path), data)
        self._engine.write_back(self.namespace, path, data, slot)

    def raw_delete(self, path: str) -> None:
        self._engine.invalidate(self.namespace, path)
        self.pfs.remove(self._sp(path))

    def read_record(self, path: str) -> bytes | None:
        """An unguarded record (quota ledger, authz envelopes), or None.

        These are unguarded in the uncached baseline too: the PFS chunk
        tag check is all the integrity either path provides, and whole-FS
        freshness rides the relation files every decision reads — so
        caching the decrypted record loses nothing.
        """
        return self._engine.read(self.namespace, path, self._load_present)


class TrustedFileManager:
    """The enclave component owning all persistent state."""

    def __init__(
        self,
        engine: StorageEngine,
        root_key: bytes,
        enclave: Enclave,
        hide_paths: bool = False,
        enable_dedup: bool = False,
    ) -> None:
        self._root_key = root_key
        self._enclave = enclave
        self._engine = engine
        backends = engine.backends

        def pfs(store, name: str) -> ProtectedFs:
            key = derive_key(root_key, f"segshare/store/{name}", length=16)
            return ProtectedFs(store, master_key=key, enclave=enclave)

        self._transform = HmacPathTransform(root_key) if hide_paths else IdentityTransform()
        self.content = Mount(self, pfs(backends.content, "content"), "content", GUARD_PREFIX)
        self.group = Mount(self, pfs(backends.group, "group"), "group", GROUP_GUARD_PREFIX)
        #: Unverified content-store access for the audit chain, whose
        #: records authenticate themselves (repro/core/audit.py).
        self.raw_read, self.raw_write = self.content.raw_read, self.content.raw_write
        self.raw_exists = self.content.raw_exists
        self.dedup = DedupStore(
            pfs(backends.dedup, "dedup"), root_key, engine=engine, deduplicate=enable_dedup
        )
        engine.attach_dedup(self.dedup)
        self._stores = engine.raw

    # -- engine facade -------------------------------------------------------------

    @property
    def engine(self) -> StorageEngine:
        return self._engine

    def transaction(self, label: str) -> "contextlib.AbstractContextManager[None]":
        """Run a multi-key mutation as one all-or-nothing engine span.

        See :meth:`repro.store.engine.StorageEngine.transaction` for the
        crash/abort semantics; nested spans join the outer one.
        """
        return self._engine.transaction(label)

    # -- helpers -----------------------------------------------------------------

    def _sp(self, path: str) -> str:
        """Logical path -> storage path (possibly hidden)."""
        return self._transform.storage_path(path)

    def _charge_hash(self, nbytes: int) -> None:
        self._enclave.charge(
            self._enclave.platform.costs.hash_time(nbytes), account="hashing"
        )

    def _content_hash(self, data: bytes) -> bytes:
        self._charge_hash(len(data))
        return hashlib.sha256(data).digest()

    # -- existence ----------------------------------------------------------------

    def exists(self, path: str) -> bool:
        """Table IV ``exists_f``: is there a stored file at ``path``?"""
        return self.content.raw_exists(path)

    # -- directory files ------------------------------------------------------------

    def read_dir(self, path: str) -> DirectoryFile:
        return self.content.guarded_read(path, DirectoryFile.deserialize).copy()

    def write_dir(self, path: str, directory: DirectoryFile) -> None:
        self.content.guarded_write(path, directory.serialize(), (DirectoryFile.deserialize, directory))

    # -- content files ---------------------------------------------------------------

    def write_content(self, path: str, data: bytes) -> None:
        """Store a content file: a new object, and ``path`` pointing at it."""
        self._point(path, self.dedup.put(data), self._pointer_target(path))

    def _point(self, path: str, name: str, old_name: str | None) -> None:
        """Make ``path`` a pointer to ``name``, releasing the object it replaced."""
        self.content.guarded_write(path, Writer().u8(_KIND_POINTER).str(name).take())
        if old_name is not None:
            self.dedup.release(old_name)

    def _object_name(self, path: str) -> str:
        """The object a content file points to, read guard-verified."""
        return self.content.guarded_read(path, _pointer_name)

    def read_content(self, path: str) -> bytes:
        return self.dedup.get(self._object_name(path))

    def content_size(self, path: str) -> int:
        return self.dedup.size(self._object_name(path))

    def move_content(self, src: str, dst: str) -> None:
        """Re-point: ``dst`` takes ``src``'s record; the object and its
        reference count stay, and no payload byte is read."""
        self.content.guarded_write(dst, self.content.guarded_read(src))
        self.content.guarded_delete(src)

    def _pointer_target(self, path: str) -> str | None:
        """The object name the current record points to, if any."""
        try:
            return self._engine.read(
                self.content.namespace, path, self.content._load_present, fill=False, decode=_pointer_name
            )
        except (FileSystemError, ProtectedFsError):  # no file, a directory, or failing verification
            return None

    def delete_content(self, path: str) -> None:
        """Delete a content or directory file (releasing its object reference)."""
        pointer = self._pointer_target(path)
        self.content.guarded_delete(path)
        if pointer is not None:
            self.dedup.release(pointer)

    # -- streaming content -----------------------------------------------------------

    def open_content_upload(self, path: str) -> "ContentUpload":
        """Begin a chunk-by-chunk upload to ``path`` (constant enclave buffer)."""
        return ContentUpload(self, path)

    def iter_content(self, path: str) -> tuple[int, ReadHandle]:
        """(plaintext size, chunk iterator) for a streamed download.

        The rollback guard verifies the small pointer record; the object's
        chunks are then pulled one at a time from its reader handle, which
        whoever ends the stream closes.
        """
        handle = self.dedup.open_read(self._object_name(path))
        return handle.size, handle

    # -- ACL files -------------------------------------------------------------------

    def acl_exists(self, path: str) -> bool:
        return self.exists(acl_path(path))

    def read_acl(self, path: str) -> AclFile:
        return self.content.guarded_read(acl_path(path), AclFile.deserialize).copy()

    def find_acl(self, path: str) -> AclFile | None:
        """``path``'s ACL, or None if it has none: one guarded read."""
        try:
            return self.read_acl(path)
        except FileSystemError:
            return None

    def write_acl(self, path: str, acl: AclFile) -> None:
        self.content.guarded_write(acl_path(path), acl.serialize(), (AclFile.deserialize, acl))

    def delete_acl(self, path: str) -> None:
        self.content.guarded_delete(acl_path(path))

    # -- group store -------------------------------------------------------------------

    def _group_file(self, kind: type, path: str):
        """A guarded group-store file, deserialized; absent reads as empty."""
        try:
            decoded = self.group.guarded_read(path, kind.deserialize)
        except FileSystemError:
            return kind()
        return decoded.copy()

    def read_group_list(self) -> GroupListFile:
        return self._group_file(GroupListFile, GROUP_LIST_PATH)

    def write_group_list(self, group_list: GroupListFile) -> None:
        self.group.guarded_write(GROUP_LIST_PATH, group_list.serialize(), (GroupListFile.deserialize, group_list))

    def member_list_exists(self, user_id: str) -> bool:
        return self.group.raw_exists(member_list_path(user_id))

    def read_member_list(self, user_id: str) -> MemberListFile:
        return self._group_file(MemberListFile, member_list_path(user_id))

    def write_member_list(self, user_id: str, members: MemberListFile) -> None:
        self.group.guarded_write(member_list_path(user_id), members.serialize(), (MemberListFile.deserialize, members))

    # -- quota ledger (group store; resource accounting, not a security
    # -- boundary — see repro/core/request_handler.py) --------------------------------

    def read_quota(self, user_id: str) -> int:
        """Bytes currently accounted to ``user_id``."""
        data = self.group.read_record(quota_path(user_id))
        if data is None:
            return 0
        r = Reader(data)
        used = r.u64()
        r.expect_end()
        return used

    def write_quota(self, user_id: str, used: int) -> None:
        self.group.raw_write(quota_path(user_id), Writer().u64(used).take())

    # -- authorization-backend records (group store; envelope state for the
    # -- crypto backends — see repro/core/authz) --------------------------------------

    def derive_subkey(self, label: str, length: int = 16) -> bytes:
        """A deterministic sub-key of SK_r for enclave components.

        Survives enclave restarts by construction (SK_r is sealed), so
        backends may derive their master secrets here instead of
        persisting them.
        """
        return derive_key(self._root_key, label, length=length)

    def read_authz_record(self, name: str) -> bytes | None:
        return self.group.read_record(AUTHZ_PREFIX + name)

    def write_authz_record(self, name: str, data: bytes) -> None:
        self.group.raw_write(AUTHZ_PREFIX + name, data)

    def delete_authz_record(self, name: str) -> None:
        if self.group.raw_exists(AUTHZ_PREFIX + name):
            self.group.raw_delete(AUTHZ_PREFIX + name)

    # -- statistics -------------------------------------------------------------------------

    def stored_bytes(self) -> dict[str, int]:
        """Bytes per store in untrusted storage — the overhead experiments."""
        return {
            "content": self._stores.content.total_bytes(),
            "group": self._stores.group.total_bytes(),
            "dedup": self._stores.dedup.total_bytes(),
        }

    def content_stored_size(self, path: str) -> int:
        """Untrusted bytes behind one file (following its pointer)."""
        total = self.content.pfs.stored_size(self._sp(path))
        pointer = self._pointer_target(path)
        if pointer is not None:
            total += self.dedup.stored_size(pointer)
        return total


class ContentUpload:
    """Streaming upload sink used by the request handler.

    Chunks flow straight into a fresh object in the object store as they
    arrive (with dedup, while the HMAC for ``hName`` is computed
    incrementally), so the enclave holds one chunk at a time whatever the
    file size.  :meth:`finish`, inside the ``PUT_FILE`` transaction,
    adopts the object and points ``path`` at it.
    """

    def __init__(self, manager: TrustedFileManager, path: str) -> None:
        self._manager = manager
        self._path = path
        self._size = 0
        self._object = manager.dedup.begin_upload()

    def write(self, chunk: bytes) -> None:
        self._size += len(chunk)
        self._object.write(chunk)

    def finish(self) -> None:
        """Commit the upload as the content of ``path``."""
        old_name = self._manager._pointer_target(self._path)
        self._manager._point(self._path, self._object.finish(), old_name)

    def abort(self) -> None:
        self._object.abort()
