"""Encrypted write-ahead (undo) journal for crash-consistent mutations.

The problem: one SeGShare request mutates *many* untrusted keys — content
chunks, directory files, ACLs, quota records, dedup records, rollback-guard
nodes, the anchor, and the monotonic counter.  A crash between any two of
those writes leaves the store permanently failing ``verify_read`` (the
anchor no longer matches storage), which is indistinguishable from a
rollback attack.

The fix is a classic undo journal, kept *inside* the trust boundary, run
as **commit epochs**: one epoch carries one or more member transactions
(the storage engine's group-commit coordinator decides how many).

1.  :meth:`WriteAheadJournal.open_epoch` writes an encrypted **marker**
    to the content store before the first mutation.  The marker records
    the whole-FS counter value, freshness-binding the journal itself (see
    below).
2.  Before the first mutation of a group of keys — one flushed write
    buffer, or a single put, delete or rename — the journal persists one
    encrypted **undo entry** listing, for every key of the group the
    member has not recorded yet, a copy of its stored bytes (or an
    "absent" tombstone).  The entry is written *before* every mutation it
    covers, so a crash can always undo them.
3.  A member commits by persisting one small **epoch record**
    (:meth:`WriteAheadJournal.commit_member` — a single object put is its
    atomic commit point) carrying the entry-sequence watermark and the
    guards' expected root hashes, then sweeps its entries.
4.  :meth:`WriteAheadJournal.close_epoch` deletes the marker — the close
    point — after the guards' batched flush, then drops the record and
    any entries left.

A member that fails before its record rolls back its own entries
(:meth:`WriteAheadJournal.rollback_member`).  A failure after the guard
flush began restores everything above the last record's watermark
(:meth:`WriteAheadJournal.rollback`) with recording left open, so the
caller's guard repair is journaled too, and only then closes.

An object whose last reference a member drops is not deleted under the
journal: a sealed **reclaim intent** ``(object id, chunk count)``,
durable before the commit point in the epoch record, names it, and its
keys go after the commit point; intents still open at the close move to
the ``reclaim`` record.  Recovery completes every intent it finds: each
names a committed, unreferenced object, and object ids are never reused.

On enclave restart, a surviving marker means the epoch did not close:
every entry at or above the record's watermark (every entry, without a
record) is restored — the in-flight member and the close-phase guard
flush — while committed members' writes are kept (per-transaction
all-or-nothing); the guards are then repaired from the restored data.
Entries and a record *without* a marker are post-close garbage and are
swept.

Freshness of the journal: the marker and entries are PAE-encrypted under
a key derived from SK_r, with the object key bound as AAD, so the host
can neither forge nor transplant records.  The host *can* replay an old
complete journal together with old data; the marker's recorded counter
value bounds that attack — recovery refuses a journal whose counter is
more than ``MAX_COUNTER_LAG`` increments behind the TEE counter (or ahead
of it, which is outright forgery).  Without whole-FS protection there is
no counter and the check is vacuous, matching the (weaker) guarantees of
those modes.

Every enclave runs its mutations under this journal: the storage
engine (:mod:`repro.store.engine`) wraps each store in a
:class:`JournaledStore` and its transaction span is the only write path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Optional

from repro.crypto import default_pae, derive_key
from repro.errors import (
    EnclaveCrashed,
    IntegrityError,
    ReproError,
    RollbackDetected,
    ServiceUnavailableError,
    StorageError,
)
from repro.sgx.protected_fs import stored_keys
from repro.storage.backends import UntrustedStore
from repro.storage.stores import StoreSet
from repro.util.serialization import Reader, Writer

#: Store tags identifying which member of the :class:`StoreSet` a journal
#: entry belongs to.
TAG_CONTENT, TAG_GROUP, TAG_DEDUP = 0, 1, 2

#: Recovery refuses a journal whose recorded counter value lags the TEE
#: counter by more than this many increments: a replayed old journal
#: (a rollback attack staged through the recovery path) is rejected while
#: repeated crash/recover cycles — which advance the counter a few steps
#: per cycle — stay well inside the bound.
MAX_COUNTER_LAG = 4096

_MARKER_KEY = "\x00journal:batch"
_ENTRY_PREFIX = "\x00journal:entry:"
_STAMP_KEY = "\x00journal:stamp"
_EPOCH_KEY = "\x00journal:epoch"
_RECLAIM_KEY = "\x00journal:reclaim"
_MARKER_AAD = b"segshare-journal:marker"
_ENTRY_AAD = b"segshare-journal:"
_STAMP_AAD = b"segshare-journal:stamp"
_EPOCH_AAD = b"segshare-journal:epoch"
_RECLAIM_AAD = b"segshare-journal:reclaim"

#: Undo-entry kinds: the key was absent / the entry carries a copy of the
#: stored bytes.
_ABSENT, _COPIED = 0, 1


def _pack_intents(w: Writer, intents: dict[str, int]) -> Writer:
    w.u32(len(intents))
    for object_id, chunks in sorted(intents.items()):
        w.str(object_id).u32(chunks)
    return w


def _read_intents(r: Reader) -> dict[str, int]:
    intents = {r.str(): r.u32() for _ in range(r.u32())}
    r.expect_end()
    return intents


@dataclass(frozen=True)
class EpochRecord:
    """The last committed member's record inside a group-commit epoch.

    ``watermark`` is the entry sequence number at that member's commit:
    entries at or above it belong to a later, uncommitted member and are
    the only ones recovery restores.  ``fs_main``/``group_main`` are the
    rollback guards' expected root hashes over the committed state (empty
    when the respective guard is absent) — the epoch kept the guard
    batches in enclave memory, so after a crash the guards are rebuilt
    from data and checked against these.
    """

    label: str
    watermark: int
    members: int
    fs_main: bytes
    group_main: bytes


class WriteAheadJournal:
    """Undo journal over the three untrusted stores of one deployment.

    ``crash_hook`` is called with a site name (``journal:begin``,
    ``journal:entry``, ``journal:mutate``, ``journal:commit``,
    ``journal:committed``, ``journal:epoch-close``,
    ``journal:epoch-closed``, ``journal:reclaim``,
    ``journal:reclaim-record``) at every step boundary; wiring it to
    :meth:`SgxPlatform.crashpoint` lets a fault plan kill the enclave at
    any individual journal step (the crash-matrix tests enumerate them).
    ``counter_probe`` returns the current whole-FS counter value, or is
    ``None`` when no counter protects the deployment.
    """

    def __init__(
        self,
        stores: StoreSet,
        root_key: bytes,
        crash_hook: Optional[Callable[[str], None]] = None,
        counter_probe: Optional[Callable[[], int]] = None,
    ) -> None:
        self._tagged: tuple[UntrustedStore, ...] = (stores.content, stores.group, stores.dedup)
        self._backend = stores.content
        self._key = derive_key(root_key, "segshare/journal", length=16)
        self._pae = default_pae()
        self._crash_hook = crash_hook
        self.counter_probe = counter_probe
        self._active = False
        self._seq = 0
        self._recorded: set[tuple[int, str]] = set()
        #: The open epoch's last member record, or ``None`` before its first
        #: commit.  Recovery sets it from the stored record; the guard repair
        #: (in process and at restart) verifies against it.
        self.epoch: Optional[EpochRecord] = None
        #: True while a closed epoch's record or entries may still be
        #: stored (a fault cut its tidy-up short); the next open finishes it.
        self._untidy = False
        #: True once this journal may have stored the reclaim record.
        self._intent_record = False
        #: Intents completed by the recoveries this journal ran.
        self.intents_recovered = 0
        self._poisoned: Optional[str] = None
        #: Invoked after every undo restore (in-process rollback AND crash
        #: recovery).  The storage engine hangs the metadata cache's
        #: ``clear`` here so restored pre-images can never coexist with
        #: cache entries from the aborted member.
        self.on_restore: Optional[Callable[[], None]] = None

    # -- step boundaries -------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while an epoch's marker is persisted (between members too)."""
        return self._active

    def crashpoint(self, site: str) -> None:
        if self._crash_hook is not None:
            self._crash_hook(site)

    # -- epoch lifecycle ---------------------------------------------------------
    #
    # An epoch is a batch whose marker is shared by its member transactions.
    # The per-member commit point is a single put of the epoch record; the
    # epoch-wide close point is the marker delete.  The invariant "marker
    # persisted => every mutation has a pre-image" holds throughout, with
    # the refinement that entries below the record's watermark cover
    # *committed* members and are garbage.

    def open_epoch(self, label: str) -> None:
        """Open an epoch: persist the marker before any data mutation."""
        if self._poisoned is not None:
            raise ServiceUnavailableError(
                f"mutations are disabled: {self._poisoned} (restart the enclave)"
            )
        if self._active:
            raise StorageError("journal epoch already open")
        if self._untidy:
            # Before the marker: a stale record must never meet a new one.
            self.clear()
        counter_start = self.counter_probe() if self.counter_probe is not None else 0
        plaintext = Writer().str(label).u64(counter_start).take()
        self._backend.put(
            _MARKER_KEY, self._pae.encrypt(self._key, plaintext, aad=_MARKER_AAD)
        )
        self._active = True
        self._seq = 0
        self._recorded.clear()
        self.crashpoint("journal:begin")

    def record(self, tag: int, keys: Collection[str]) -> None:
        """Seal the pre-images of a group of mutations of ``keys`` on store
        ``tag`` into one entry, stored before the first of them lands.

        Keys the member already recorded are left out.
        """
        fresh = [key for key in keys if (tag, key) not in self._recorded] if self._active else []
        if not fresh:
            return
        store = self._tagged[tag]
        body = Writer().u8(tag).u32(len(fresh))
        for key in fresh:
            if store.exists(key):
                body.str(key).u8(_COPIED).bytes(store.get(key))
            else:
                body.str(key).u8(_ABSENT).bytes(b"")
        entry_key = f"{_ENTRY_PREFIX}{self._seq:08d}"
        sealed = self._pae.encrypt(self._key, body.take(), aad=_ENTRY_AAD + entry_key.encode("utf-8"))
        self._backend.put(entry_key, sealed)
        self._seq += 1
        self._recorded.update((tag, key) for key in fresh)
        self.crashpoint("journal:entry")

    def begin_member(self) -> int:
        """Start one member transaction; returns its entry-sequence base.

        Pre-image recording restarts: each member records the values the
        *previous* member committed, so rolling one member back never
        rewinds past its predecessors.
        """
        if not self._active:
            raise StorageError("no commit epoch is open")
        self._recorded.clear()
        return self._seq

    def commit_member(
        self,
        member_base: int,
        fs_main: bytes,
        group_main: bytes,
        members: int,
        label: str,
        intents: "dict[str, int] | None" = None,
    ) -> None:
        """Commit one member: the epoch-record put is its atomic commit point.

        The record carries the watermark (entries below it are now
        committed garbage), the guards' pending root hashes so a crash
        later in the epoch can verify the restored data before rebuilding
        the guard trees (empty when the guards flushed with the member),
        and the reclaim ``intents`` not yet completed.  The member's own
        entries are swept afterwards; a fault or crash mid-sweep leaves
        sub-watermark garbage that recovery ignores and the close removes.
        """
        if not self._active:
            raise StorageError("no commit epoch is open")
        self.crashpoint("journal:commit")
        watermark = self._seq
        record = Writer().str(label).u64(watermark).u32(members).bytes(fs_main).bytes(group_main)
        plaintext = _pack_intents(record, intents or {}).take()
        self._backend.put(
            _EPOCH_KEY, self._pae.encrypt(self._key, plaintext, aad=_EPOCH_AAD)
        )
        self.epoch = EpochRecord(label, watermark, members, fs_main, group_main)
        self.crashpoint("journal:committed")
        self._recorded.clear()
        try:
            self._sweep_entries(range(member_base, watermark))
        except EnclaveCrashed:
            raise
        except ReproError:
            pass  # the member stands; the close sweeps what is left

    def rollback_member(self, member_base: int) -> None:
        """Abort one member: restore and drop its entries; the epoch lives on.

        No guard anchor was written and no counter incremented since the
        member began (the guards batch for the whole epoch), so restoring
        the pre-images alone returns storage to the post-previous-member
        state — no re-anchor is needed and other members are untouched.
        """
        if not self._active:
            raise StorageError("no commit epoch is open")
        self._restore_entries(min_seq=member_base)
        self._sweep_entries(range(member_base, self._seq))
        self._seq = member_base
        self._recorded.clear()

    def rollback(self) -> None:
        """Restore every entry above the last committed member's watermark.

        The journal half of an abort that may have reached past a guard
        flush.  The marker, the record and the entries are deliberately
        *kept* and recording stays open: the caller repairs the guards
        (a multi-key rewrite that must be journaled too — a crash during
        it rewinds to the restored state on restart and re-runs it) and
        then closes the epoch.  Restored keys keep their original
        pre-images, so the restore target stays the committed state.
        """
        watermark = self.epoch.watermark if self.epoch is not None else 0
        self._recorded = set(self._restore_entries(min_seq=watermark))
        # Repair entries are numbered above every committed one, even after
        # a restart found the committed members' entries already swept.
        self._seq = max(self._seq, watermark)

    def close_epoch(self, intents: "dict[str, int] | None" = None) -> None:
        """Close the epoch: the marker delete is the atomic close point.

        Ordering matters: the marker must go *before* the record — a
        crash in between leaves record-but-no-marker, which recovery
        treats as a fully-closed epoch (sweep the leftovers).  Deleting
        the record first would turn a committed epoch's garbage entries
        into a marker-without-record restore-all.  The tidy-up after the
        close point never fails the close.
        """
        if not self._active:
            raise StorageError("no commit epoch is open")
        self.crashpoint("journal:epoch-close")
        self._backend.delete(_MARKER_KEY)
        self._active = False
        self._untidy = True
        self.crashpoint("journal:epoch-closed")
        try:
            # Intents still open outlive the epoch record in the reclaim record.
            self.keep_intents(intents or {})
            self.clear()
        except EnclaveCrashed:
            raise
        except ReproError:
            pass  # the close stands; the next open_epoch finishes the tidy-up

    # benchmarks/e2e/layers.py wraps the journal by these older names too;
    # they stay until that harness wraps by role (ROADMAP item 1).
    begin = open_epoch
    commit = close_epoch

    def clear(self) -> None:
        """Drop the marker, the record and the epoch's numbered entries."""
        self._active = False
        for key in (_MARKER_KEY, _EPOCH_KEY):
            if self._backend.exists(key):
                self._backend.delete(key)
        self._sweep_entries(range(self._seq))
        self.epoch = None
        self._recorded.clear()
        self._untidy = False

    def poison(self, reason: str) -> None:
        """Refuse further epochs (a rollback itself failed); reads continue."""
        self._poisoned = reason
        # Recording may still be open on the failed epoch: a later span must
        # meet the refusal in open_epoch(), not join that epoch.
        self._active = False

    # -- recovery (enclave start) ----------------------------------------------

    def recover_restore(self) -> bool:
        """Roll back an epoch left open by a crash; True if one was.

        Runs before the trusted components are built so they observe the
        restored bytes.  The record, if any, marks the last committed
        member's watermark: entries at or above it belong to the
        uncommitted member (or the close-phase guard flush) and are
        restored; anything below is garbage from an interrupted sweep and
        must *not* be restored over committed members' writes.  The caller
        repairs the guards against :attr:`epoch` and then calls
        :meth:`recover_finish`; until then the journal keys survive *and
        recording stays open* — the invariant is that whenever the marker
        is persisted, every mutation records its pre-image, so a crash
        anywhere during recovery (including mid-repair, a torn multi-key
        anchor write) rewinds and re-runs it.  Last, every reclaim intent
        a committed member left is completed.
        """
        recovered = self._backend.exists(_MARKER_KEY)
        stored = self._epoch_record()
        self.epoch = stored[0] if stored is not None else None
        if not recovered:
            # Entries without a marker are garbage from a close that crashed
            # mid-sweep; a record without a marker is a fully-closed epoch
            # (the marker delete is the close point).
            self._sweep_entries()
        else:
            r = Reader(self._open(_MARKER_KEY, _MARKER_AAD))
            label = r.str()
            counter_start = r.u64()
            r.expect_end()
            if self.counter_probe is not None:
                current = self.counter_probe()
                if current < counter_start or current - counter_start > MAX_COUNTER_LAG:
                    raise RollbackDetected(
                        f"stale write-ahead journal for batch {label!r}: recorded "
                        f"counter {counter_start}, TEE counter {current}"
                    )
            # Keep recording while the caller verifies and repairs: new
            # slots continue the numbering and already-recorded keys keep
            # their original pre-images.
            self.rollback()
            self._active = True
        # The intents committed members left: in the record, and in the
        # reclaim record an earlier close moved still-open ones to.
        intents = stored[1] if stored is not None else {}
        if self._backend.exists(_RECLAIM_KEY):
            intents = {**intents, **_read_intents(Reader(self._open(_RECLAIM_KEY, _RECLAIM_AAD)))}
        self._delete_objects(intents)
        self.intents_recovered += len(intents)
        if self._backend.exists(_RECLAIM_KEY):
            self._backend.delete(_RECLAIM_KEY)
        if not recovered and stored is not None:
            self._backend.delete(_EPOCH_KEY)
            self.epoch = None
        return recovered

    def _open(self, key: str, aad: bytes) -> bytes:
        try:
            return self._pae.decrypt(self._key, self._backend.get(key), aad=aad)
        except IntegrityError:
            raise RollbackDetected(f"journal record {key!r} is corrupt or not ours") from None

    def _epoch_record(self) -> Optional[tuple[EpochRecord, dict[str, int]]]:
        if not self._backend.exists(_EPOCH_KEY):
            return None
        er = Reader(self._open(_EPOCH_KEY, _EPOCH_AAD))
        return EpochRecord(er.str(), er.u64(), er.u32(), er.bytes(), er.bytes()), _read_intents(er)

    def recover_finish(self) -> None:
        """Finish recovery after the guards were repaired: drop the journal,
        entries a restart cannot number included."""
        self.clear()
        self._sweep_entries()

    # -- request stamps (cluster exactly-once) ----------------------------------

    def seal_stamp(self, token: str) -> tuple[str, bytes]:
        """(key, ciphertext) of the request-stamp object for ``token``.

        The cluster front door tags each routed request with a token; the
        storage engine persists the sealed stamp *through the journaled,
        deferred stack* so it commits or rolls back atomically with the
        request's transaction.  Because the stamp key is derived from SK_r, any
        replica holding the root key — in particular a failover successor
        — can read which request last committed and suppress a duplicate
        re-execution.  PAE under the journal key with a distinct AAD: the
        host can neither forge a stamp nor transplant a journal record
        into the stamp slot.
        """
        return _STAMP_KEY, self._pae.encrypt(
            self._key, token.encode("utf-8"), aad=_STAMP_AAD
        )

    def read_committed_stamp(self) -> Optional[str]:
        """Token of the last *committed* stamped request, or ``None``."""
        if not self._backend.exists(_STAMP_KEY):
            return None
        return self._open(_STAMP_KEY, _STAMP_AAD).decode("utf-8")

    # -- reclaim intents (the post-commit phase) -----------------------------------

    def seal_intents(self, intents: dict[str, int]) -> tuple[str, bytes]:
        """(key, ciphertext) of the reclaim record naming ``intents``."""
        self._intent_record = True
        return _RECLAIM_KEY, self._pae.encrypt(self._key, _pack_intents(Writer(), intents).take(), aad=_RECLAIM_AAD)

    def keep_intents(self, intents: dict[str, int]) -> None:
        """Store committed ``intents`` as the reclaim record, or drop it."""
        # Not dropped while an epoch is open: its entries may hold the
        # record's pre-image.
        if intents:
            self.crashpoint("journal:reclaim-record")
            self._backend.put(*self.seal_intents(intents))
        elif self._intent_record and not self._active:
            self.crashpoint("journal:reclaim-record")
            if self._backend.exists(_RECLAIM_KEY):
                self._backend.delete(_RECLAIM_KEY)
            self._intent_record = False

    def reclaim(self, object_id: str, chunks: int) -> None:
        """Delete a committed, unreferenced object, below the journal."""
        # Its intent stays until keep_intents drops it: a crash or store
        # fault part-way is finished later.
        self.crashpoint("journal:reclaim")
        self._delete_objects({object_id: chunks})

    def _delete_objects(self, intents: dict[str, int]) -> None:
        # Idempotent: recovery re-runs intents a crash interrupted.
        store = self._tagged[TAG_DEDUP]
        for object_id, chunks in intents.items():
            for key in stored_keys(object_id, chunks):
                if store.exists(key):
                    store.delete(key)

    # -- internals ---------------------------------------------------------------

    def _entry_keys(self) -> list[str]:
        return sorted(self._backend.scan(_ENTRY_PREFIX))

    def _sweep_entries(self, seqs: Optional[range] = None) -> None:
        # Entries numbered ``seqs`` (this epoch's own) or whatever a scan
        # finds; str.format keeps the per-commit sweep free of Python frames.
        keys = self._entry_keys() if seqs is None else map((_ENTRY_PREFIX + "{:08d}").format, seqs)
        for key in keys:
            if self._backend.exists(key):
                self._backend.delete(key)

    def _restore_entries(self, min_seq: int = 0) -> list[tuple[int, str]]:
        restored: list[tuple[int, str]] = []
        entry_keys = self._entry_keys()
        if entry_keys:
            # Entries written from here on are numbered above every one found.
            self._seq = max(self._seq, int(entry_keys[-1][len(_ENTRY_PREFIX) :]) + 1)
        entry_keys = [k for k in entry_keys if int(k[len(_ENTRY_PREFIX) :]) >= min_seq]
        # Descending: if a key was recorded more than once (recording
        # restarts per epoch member), the earliest pre-image wins.
        entry_keys.reverse()
        for entry_key in entry_keys:
            r = Reader(self._open(entry_key, _ENTRY_AAD + entry_key.encode("utf-8")))
            tag = r.u8()
            store = self._tagged[tag]
            items = [(r.str(), r.u8(), r.bytes()) for _ in range(r.u32())]
            r.expect_end()
            for key, kind, pre_image in reversed(items):
                if kind == _COPIED:
                    # The pre-image is the raw *stored* byte string captured
                    # before the member ran — already PAE ciphertext from the
                    # protected store, never enclave plaintext.  (The
                    # decrypted journal record's payload is that ciphertext.)
                    store.put(key, pre_image)
                elif store.exists(key):
                    store.delete(key)
                restored.append((tag, key))
        if self.on_restore is not None:
            self.on_restore()
        return restored


class JournaledStore(UntrustedStore):
    """Store wrapper that records undo entries before every mutation.

    Installed between the :class:`~repro.sgx.protected_fs.ProtectedFs`
    instances and the raw backends by the storage engine; reads pass
    straight through, mutations first persist the key's pre-image while an
    epoch is open.  The journal's own keys live on the raw backend, so
    its writes never recurse through this wrapper.
    """

    def __init__(self, inner: UntrustedStore, journal: WriteAheadJournal, tag: int) -> None:
        self.inner = inner
        self._journal = journal
        self._tag = tag

    def put(self, key: str, value: bytes) -> None:
        # Outside an epoch (an upload streaming its chunks) there is nothing
        # to record.
        if self._journal._active:
            self._journal.record(self._tag, (key,))
        self.inner.put(key, value)
        self._journal.crashpoint("journal:mutate")

    def delete(self, key: str) -> None:
        self._journal.record(self._tag, (key,))
        self.inner.delete(key)
        self._journal.crashpoint("journal:mutate")

    def apply(self, group: Collection[tuple[str, Optional[bytes]]]) -> None:
        """The whole group under one undo entry, stored before its first mutation."""
        self._journal.record(self._tag, [key for key, _ in group])
        for key, value in group:
            if value is not None:
                self.inner.put(key, value)
            elif self.inner.exists(key):
                self.inner.delete(key)
            self._journal.crashpoint("journal:mutate")

    def get(self, key: str) -> bytes:
        return self.inner.get(key)

    def exists(self, key: str) -> bool:
        return self.inner.exists(key)

    def keys(self) -> Iterator[str]:
        return self.inner.keys()

    def scan(self, prefix: str) -> Iterator[str]:
        return self.inner.scan(prefix)

    def size(self, key: str) -> int:
        return self.inner.size(key)
