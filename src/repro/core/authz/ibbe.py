"""IBBE-SGX-style cryptographic group access control.

The opposing design to the paper's enclave-enforced ACLs: access *is*
key possession.  Every file has a **file content key** (FCK); every
group has a **group decryption key** (GDK) kept enclave-resident and
distributed to members as per-user **envelopes** (the GDK wrapped under
a key only that member — via the enclave — can use, the per-receiver
envelope idiom of IBBE-SGX and Commune).  Granting a group access to a
file wraps the FCK under the group's GDK.

Authorization *decisions* delegate to the inherited ACL logic — both
backends must answer identically (the backend-invariance property test)
— what changes is the **cost of revocation**:

* ``remove_member`` re-keys the group: fresh GDK at a bumped epoch and a
  new envelope for every REMAINING member — O(|group|) crypto work on
  the spot (vs. the ACL backend's single member-list write);
* file envelopes wrapped under the old GDK become *stale*;
  :meth:`reconcile` later rotates each affected file's FCK, re-encrypts
  the content, and re-wraps the envelopes — the "lazy re-encryption"
  trade IBBE-SGX makes.

Envelope state lives in authz records on the group store (PFS-encrypted,
cache-coherent, journaled); every mutation happens inside the caller's
storage transaction, so a crash anywhere in a re-key leaves the
transaction's redo record or nothing.
"""

from __future__ import annotations

import secrets
from typing import TYPE_CHECKING

from repro.core.access_control import AccessControl
from repro.core.model import default_group_member, is_default_group
from repro.crypto import default_pae, derive_key
from repro.fsmodel import is_dir_path
from repro.util.serialization import Reader, Writer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.file_manager import TrustedFileManager
    from repro.sgx.enclave import Enclave

_KEY_SIZE = 16
_GROUP_PREFIX = "g:"
_FILE_PREFIX = "f:"
_INDEX_KEY = "index"


class GroupKeyRecord:
    """One group's key state: epoch, sealed GDK, member envelopes, grants."""

    def __init__(self) -> None:
        self.epoch = 1
        self.sealed_gdk = b""
        #: user id -> GDK wrapped under that user's KEK (current epoch).
        self.envelopes: dict[str, bytes] = {}
        #: paths whose ACL grants this group (the re-wrap work list).
        self.files: set[str] = set()

    def serialize(self) -> bytes:
        w = Writer()
        w.u32(self.epoch)
        w.bytes(self.sealed_gdk)
        w.u32(len(self.envelopes))
        for user_id in sorted(self.envelopes):
            w.str(user_id)
            w.bytes(self.envelopes[user_id])
        w.str_list(sorted(self.files))
        return w.take()

    @classmethod
    def deserialize(cls, data: bytes) -> "GroupKeyRecord":
        r = Reader(data)
        record = cls()
        record.epoch = r.u32()
        record.sealed_gdk = r.bytes()
        for _ in range(r.u32()):
            user_id = r.str()
            record.envelopes[user_id] = r.bytes()
        record.files = set(r.str_list())
        r.expect_end()
        return record


class FileKeyRecord:
    """One file's key state: sealed FCK and its per-group envelopes."""

    def __init__(self) -> None:
        self.generation = 1
        self.sealed_fck = b""
        #: FCK rotation owed (a grant was removed; the revoked group
        #: still holds the generation's FCK via its old envelope).
        self.stale = False
        #: group id -> (group epoch at wrap time, FCK wrapped under GDK).
        self.envelopes: dict[str, tuple[int, bytes]] = {}

    def serialize(self) -> bytes:
        w = Writer()
        w.u32(self.generation)
        w.bytes(self.sealed_fck)
        w.bool(self.stale)
        w.u32(len(self.envelopes))
        for group_id in sorted(self.envelopes):
            epoch, envelope = self.envelopes[group_id]
            w.str(group_id)
            w.u32(epoch)
            w.bytes(envelope)
        return w.take()

    @classmethod
    def deserialize(cls, data: bytes) -> "FileKeyRecord":
        r = Reader(data)
        record = cls()
        record.generation = r.u32()
        record.sealed_fck = r.bytes()
        record.stale = r.bool()
        for _ in range(r.u32()):
            group_id = r.str()
            epoch = r.u32()
            record.envelopes[group_id] = (epoch, r.bytes())
        r.expect_end()
        return record


class IbbeEnvelopeBackend(AccessControl):
    """Per-receiver envelopes: O(|group|) re-key + lazy re-encryption."""

    name = "ibbe"

    def __init__(
        self,
        manager: "TrustedFileManager",
        enclave: "Enclave",
    ) -> None:
        super().__init__(manager, enclave)
        self._pae = default_pae()
        self._master = manager.derive_subkey("segshare/authz/ibbe")
        #: group id -> (epoch, plaintext GDK); enclave-resident only.
        self._gdk_cache: dict[str, tuple[int, bytes]] = {}

    # -- crypto helpers -----------------------------------------------------------

    def _user_kek(self, user_id: str) -> bytes:
        """The per-user key-encryption key.

        Stands in for the user's IBBE decryption position: real IBBE-SGX
        derives it from the broadcast ciphertext, here the enclave
        derives it from the master secret — the *count* of envelope
        operations (what the benchmark measures) is identical.
        """
        return derive_key(self._master, "kek/" + user_id, length=_KEY_SIZE)

    def _wrap(self, key: bytes, payload: bytes, context: str) -> bytes:
        return self._pae.encrypt(key, payload, aad=context.encode())

    def _unwrap(self, key: bytes, blob: bytes, context: str) -> bytes:
        return self._pae.decrypt(key, blob, aad=context.encode())

    def _charge_wraps(self, count: int) -> None:
        """Virtual-clock cost of ``count`` envelope operations.

        Each envelope stands for one public-key operation (modelled with
        the cost table's key-agreement figure) plus an AEAD pass over the
        wrapped key.
        """
        enclave = self._enclave
        if count <= 0:
            return
        costs = enclave.platform.costs
        enclave.charge(
            count * (costs.dh_exchange + costs.aead_time(_KEY_SIZE)),
            account="authz-crypto",
        )

    # -- record persistence ------------------------------------------------------------

    def _load_group(self, group_id: str) -> GroupKeyRecord | None:
        data = self._manager.read_authz_record(_GROUP_PREFIX + group_id)
        return None if data is None else GroupKeyRecord.deserialize(data)

    def _store_group(self, group_id: str, record: GroupKeyRecord) -> None:
        self._manager.write_authz_record(_GROUP_PREFIX + group_id, record.serialize())

    def _load_file(self, path: str) -> FileKeyRecord | None:
        data = self._manager.read_authz_record(_FILE_PREFIX + path)
        return None if data is None else FileKeyRecord.deserialize(data)

    def _store_file(self, path: str, record: FileKeyRecord) -> None:
        self._manager.write_authz_record(_FILE_PREFIX + path, record.serialize())

    def _delete_record(self, key: str) -> None:
        self._manager.delete_authz_record(key)

    def _load_index(self) -> list[str]:
        """All group ids with a key record (default groups included) —
        needed because default-group records exist outside the group list
        and storage keys cannot be enumerated under path hiding."""
        data = self._manager.read_authz_record(_INDEX_KEY)
        if data is None:
            return []
        r = Reader(data)
        ids = r.str_list()
        r.expect_end()
        return ids

    def _store_index(self, group_ids: list[str]) -> None:
        blob = Writer().str_list(sorted(group_ids)).take()
        self._manager.write_authz_record(_INDEX_KEY, blob)

    # -- group key management ------------------------------------------------------

    def _group_key(self, group_id: str, record: GroupKeyRecord) -> bytes:
        cached = self._gdk_cache.get(group_id)
        if cached is not None and cached[0] == record.epoch:
            return cached[1]
        gdk = self._unwrap(
            self._master, record.sealed_gdk, f"gdk:{group_id}:{record.epoch}"
        )
        self._charge_wraps(1)
        self._gdk_cache[group_id] = (record.epoch, gdk)
        return gdk

    def _init_group(self, group_id: str, members: list[str]) -> GroupKeyRecord:
        record = GroupKeyRecord()
        gdk = secrets.token_bytes(_KEY_SIZE)
        record.sealed_gdk = self._wrap(self._master, gdk, f"gdk:{group_id}:1")
        for user_id in members:
            record.envelopes[user_id] = self._wrap(
                self._user_kek(user_id), gdk, f"env:{group_id}:1:{user_id}"
            )
        self._charge_wraps(len(members) + 1)
        self._counters["member_envelopes_wrapped"] += len(members)
        self._gdk_cache[group_id] = (record.epoch, gdk)
        self._store_group(group_id, record)
        index = self._load_index()
        if group_id not in index:
            self._store_index([*index, group_id])
        return record

    def _ensure_group(self, group_id: str) -> GroupKeyRecord:
        record = self._load_group(group_id)
        if record is not None:
            return record
        members = (
            [default_group_member(group_id)] if is_default_group(group_id) else []
        )
        return self._init_group(group_id, members)

    # -- relation updates ----------------------------------------------------------

    def create_group(self, creator_id: str, group_id: str) -> None:
        super().create_group(creator_id, group_id)
        self._init_group(group_id, [creator_id])

    def _bootstrap_crypto(
        self, owner_id: str, group_id: str, members: list[str]
    ) -> None:
        self._init_group(group_id, [owner_id, *members])

    def add_member(self, user_id: str, group_id: str) -> None:
        super().add_member(user_id, group_id)
        record = self._ensure_group(group_id)
        if user_id in record.envelopes:
            return
        gdk = self._group_key(group_id, record)
        record.envelopes[user_id] = self._wrap(
            self._user_kek(user_id), gdk, f"env:{group_id}:{record.epoch}:{user_id}"
        )
        self._charge_wraps(1)
        self._counters["member_envelopes_wrapped"] += 1
        self._store_group(group_id, record)

    def remove_member(self, user_id: str, group_id: str) -> None:
        super().remove_member(user_id, group_id)
        record = self._ensure_group(group_id)
        record.envelopes.pop(user_id, None)
        # Forward secrecy: the revoked member holds (an envelope of) the
        # old GDK, so the group re-keys NOW — a fresh GDK at a bumped
        # epoch and a new envelope for every remaining member.  This is
        # the O(|group|) the head-to-head benchmark measures.
        record.epoch += 1
        gdk = secrets.token_bytes(_KEY_SIZE)
        record.sealed_gdk = self._wrap(
            self._master, gdk, f"gdk:{group_id}:{record.epoch}"
        )
        for member_id in sorted(record.envelopes):
            record.envelopes[member_id] = self._wrap(
                self._user_kek(member_id),
                gdk,
                f"env:{group_id}:{record.epoch}:{member_id}",
            )
        self._charge_wraps(len(record.envelopes) + 1)
        self._gdk_cache[group_id] = (record.epoch, gdk)
        self._counters["rekeys"] += 1
        self._counters["member_envelopes_wrapped"] += len(record.envelopes)
        # File envelopes wrapped under the old GDK are stale from here on
        # (their recorded epoch lags the group's); reconcile() owes them
        # an FCK rotation + content re-encryption.
        self._store_group(group_id, record)

    def delete_group(self, group_id: str) -> int:
        # One span for the member-list scan AND the envelope teardown:
        # a crash between them must not leave orphaned key records.
        with self._manager.transaction("delete_group"):
            touched = super().delete_group(group_id)
            record = self._load_group(group_id)
            if record is not None:
                for path in sorted(record.files):
                    file_record = self._load_file(path)
                    if file_record is None or group_id not in file_record.envelopes:
                        continue
                    del file_record.envelopes[group_id]
                    file_record.stale = True
                    self._store_file(path, file_record)
                self._delete_record(_GROUP_PREFIX + group_id)
                self._store_index(
                    [gid for gid in self._load_index() if gid != group_id]
                )
                self._gdk_cache.pop(group_id, None)
            return touched

    # -- grant lifecycle -------------------------------------------------------------

    def _file_key(self, path: str, record: FileKeyRecord) -> bytes:
        return self._unwrap(
            self._master, record.sealed_fck, f"fck:{path}:{record.generation}"
        )

    def on_grant(self, path: str, group_id: str) -> None:
        group = self._ensure_group(group_id)
        gdk = self._group_key(group_id, group)
        record = self._load_file(path)
        if record is None:
            record = FileKeyRecord()
            fck = secrets.token_bytes(_KEY_SIZE)
            record.sealed_fck = self._wrap(self._master, fck, f"fck:{path}:1")
            self._charge_wraps(1)
        else:
            fck = self._file_key(path, record)
        record.envelopes[group_id] = (
            group.epoch,
            self._wrap(
                gdk, fck, f"fenv:{path}:{record.generation}:{group_id}:{group.epoch}"
            ),
        )
        self._charge_wraps(1)
        self._counters["file_envelopes_wrapped"] += 1
        self._store_file(path, record)
        if path not in group.files:
            group.files.add(path)
            self._store_group(group_id, group)

    def on_grant_removed(self, path: str, group_id: str) -> None:
        record = self._load_file(path)
        if record is not None and group_id in record.envelopes:
            del record.envelopes[group_id]
            record.stale = True
            self._store_file(path, record)
        group = self._load_group(group_id)
        if group is not None and path in group.files:
            group.files.discard(path)
            self._store_group(group_id, group)

    def on_file_removed(self, path: str) -> None:
        record = self._load_file(path)
        if record is None:
            return
        for group_id in sorted(record.envelopes):
            group = self._load_group(group_id)
            if group is not None and path in group.files:
                group.files.discard(path)
                self._store_group(group_id, group)
        self._delete_record(_FILE_PREFIX + path)

    def on_file_moved(self, src: str, dst: str) -> None:
        record = self._load_file(src)
        if record is None:
            return
        grantees = sorted(record.envelopes)
        self.on_file_removed(src)
        # The move already re-encrypted content under dst's path key;
        # issue a fresh FCK there, wrapped for every surviving grantee.
        for group_id in grantees:
            if self._load_group(group_id) is not None:
                self.on_grant(dst, group_id)

    # -- lazy re-encryption ------------------------------------------------------------

    def reconcile(self) -> dict[str, int]:
        """Settle the revocation debt: rotate stale files' content keys.

        For every file whose envelopes lag a group re-key (or whose grant
        set shrank), mint a fresh FCK, re-encrypt the content under it,
        and re-wrap the envelopes at the groups' current epochs — the
        deferred O(|file|) half of cryptographic revocation.
        """
        rotated = 0
        rewrapped = 0
        reencrypted = 0
        with self._manager.transaction("authz_reconcile"):
            groups: dict[str, GroupKeyRecord] = {}
            candidates: set[str] = set()
            for group_id in self._load_index():
                record = self._load_group(group_id)
                if record is None:
                    continue
                groups[group_id] = record
                candidates.update(record.files)
            for path in sorted(candidates):
                file_record = self._load_file(path)
                if file_record is None:
                    continue
                stale = file_record.stale or any(
                    group_id in groups and epoch < groups[group_id].epoch
                    for group_id, (epoch, _) in file_record.envelopes.items()
                )
                if not stale:
                    continue
                file_record.generation += 1
                file_record.stale = False
                fck = secrets.token_bytes(_KEY_SIZE)
                file_record.sealed_fck = self._wrap(
                    self._master, fck, f"fck:{path}:{file_record.generation}"
                )
                wraps = 1
                if not is_dir_path(path) and self._manager.exists(path):
                    data = self._manager.read_content(path)
                    self._manager.write_content(path, data)
                    reencrypted += len(data)
                for group_id in sorted(file_record.envelopes):
                    group = groups.get(group_id)
                    if group is None:
                        del file_record.envelopes[group_id]
                        continue
                    gdk = self._group_key(group_id, group)
                    file_record.envelopes[group_id] = (
                        group.epoch,
                        self._wrap(
                            gdk,
                            fck,
                            f"fenv:{path}:{file_record.generation}"
                            f":{group_id}:{group.epoch}",
                        ),
                    )
                    wraps += 1
                    rewrapped += 1
                self._charge_wraps(wraps)
                self._store_file(path, file_record)
                rotated += 1
        self._counters["file_envelopes_rewrapped"] += rewrapped
        self._counters["bytes_reencrypted"] += reencrypted
        return {
            "files_rotated": rotated,
            "envelopes_rewrapped": rewrapped,
            "bytes_reencrypted": reencrypted,
        }
