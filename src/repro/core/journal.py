"""Encrypted redo journal: a member's metadata writes reach the store only
through one sealed record.

One SeGShare request mutates *many* untrusted keys — directory files,
ACLs, pointers, quota and dedup records, guard nodes, the anchor and the
counter — and a crash between two of those writes would leave the store
failing ``verify_read``, like a rollback attack.  So the journal is
no-steal redo logging inside the trust boundary, run as **commit
epochs** of one or more member transactions:

1.  A member's puts and deletes stay in the engine's write buffers in
    enclave memory; reads in the span see them there.  Nothing it writes
    reaches the store before its commit point — except a fresh object's
    blobs, which no stored key references until that point.
2.  A member commits by persisting one sealed **redo record**
    (:meth:`WriteAheadJournal.commit_member` — a single object put is its
    atomic commit point).  The record carries the member's writes, the
    guards' expected root hashes over the committed state, the counter of
    the anchor record its epoch opened on, and the open reclaim intents.  The
    engine then applies the writes (:meth:`WriteAheadJournal.apply`).
    A span whose buffer outgrows its budget first seals the overflow
    into record **parts** (:meth:`WriteAheadJournal.record`), which the
    record names; parts without a record are never applied.
3.  The next member's record replaces it — the next epoch's too, whose
    records name both roots while a close is in flight — and the close
    (:meth:`WriteAheadJournal.land`), after the guards' node flush and
    anchor write, deletes it or leaves the open intents as a record.

An abort drops the buffers (:meth:`WriteAheadJournal.rollback_member`
drops the member's parts); no stored key changed, so nothing is undone.
On enclave restart a surviving record is re-applied — idempotent, since
each record holds the final values of its keys and nothing wrote them
after it — and the guards are checked against its root hashes and
rebuilt (:meth:`WriteAheadJournal.recover`); its intents are completed.

An object whose last reference a member drops is not deleted in the
record: a **reclaim intent** in the record names it, and its two keys go
after the commit point.  Recovery completes every intent it finds: each
names a committed, unreferenced object, and object ids are never reused.

Each enclave writes its records and parts under its own key (the
``writer`` id), so replicas over one shared store never replace each
other's intents, and recovery is keyed by writer too: a restart finishes
its own writer's record, a cluster takeover the crashed writer's, and
neither touches a live peer's.

Freshness of the journal: records are PAE-encrypted under a key derived
from SK_r, with the record key bound as AAD, so the host can neither
forge nor transplant them.  The host *can* replay an old record with old
data, so recovery admits one, before any of it applies, only if it opened
on the stored anchor (equal counters), or on the anchor's one pending
successor (counter + 1, both roots in full, the TEE at either value), or
the anchor names its roots; with no anchor stored, only a first start's.
Without whole-FS protection every counter is 0 and every record is
admitted: the weaker guarantee of those modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, NoReturn, Optional, Sequence

from repro.crypto import default_pae, derive_key
from repro.errors import (
    EnclaveCrashed,
    IntegrityError,
    ReproError,
    RollbackDetected,
    ServiceUnavailableError,
    StorageError,
)
from repro.sgx.protected_fs import SUFFIXES
from repro.storage.backends import UntrustedStore
from repro.storage.stores import StoreSet
from repro.util.serialization import Reader, SerializationError, Writer

#: Store tags naming which member of the :class:`StoreSet` a write goes to.
TAG_CONTENT, TAG_GROUP, TAG_DEDUP = 0, 1, 2

_RECORD_PREFIX = "\x00journal:redo:"
_PART_PREFIX = "\x00journal:part:"
_STAMP_KEY = "\x00journal:stamp"
_RECORD_AAD = b"segshare-journal:"
_STAMP_AAD = b"segshare-journal:stamp"

#: One buffered write: (store tag, key, value), ``None`` deleting the key.
Write = tuple[int, str, Optional[bytes]]

#: An anchor record: both guards' root mains and the whole-FS counter value.
AnchorRecord = tuple[tuple[bytes, bytes], int]

#: The record an epoch opens on without rollback guards.
UNANCHORED: AnchorRecord = ((b"", b""), 0)


def _pack_writes(w: Writer, writes: Sequence[Write]) -> Writer:
    w.u32(len(writes))
    for tag, key, value in writes:
        w.u8(tag).str(key).bool(value is not None).bytes(value or b"")
    return w


def _read_writes(r: Reader) -> list[Write]:
    writes = []
    for _ in range(r.u32()):
        tag, key, present, value = r.u8(), r.str(), r.bool(), r.bytes()
        if tag > TAG_DEDUP:
            raise SerializationError(f"journal write names no store {tag}")
        writes.append((tag, key, value if present else None))
    return writes


@dataclass(frozen=True)
class EpochRecord:
    """One sealed redo record: the last committed member of an open epoch.

    ``fs_main``/``group_main`` are the rollback guards' expected root
    hashes over the committed state, empty for a guard that is clean and
    anchored (or absent): the epoch keeps the guard batches in enclave
    memory, so after a crash the guards are rebuilt from the data, checked
    against these, and re-anchored with a clean guard's anchored root.
    ``counter`` is the anchor record's the epoch opened on: the stored
    one's, or the pending one's of a close in flight, whose roots then
    fill the clean slots.

    ``parts`` are the record parts holding the writes the member spilled,
    applied before ``writes``.  A record with no writes, parts or roots
    carries only ``intents``.
    """

    label: str
    members: int
    counter: int
    fs_main: bytes
    group_main: bytes
    intents: tuple[str, ...]
    parts: tuple[str, ...]
    writes: tuple[Write, ...]

    def encode(self) -> bytes:
        w = Writer().str(self.label).u32(self.members).u64(self.counter)
        w.bytes(self.fs_main).bytes(self.group_main).str_list(sorted(self.intents))
        return _pack_writes(w.str_list(self.parts), self.writes).take()

    @classmethod
    def decode(cls, data: bytes) -> "EpochRecord":
        r = Reader(data)
        head = (r.str(), r.u32(), r.u64(), r.bytes(), r.bytes(), tuple(r.str_list()))
        record = cls(*head, tuple(r.str_list()), tuple(_read_writes(r)))
        r.expect_end()
        return record


@dataclass
class Epoch:
    """The open commit epoch, in enclave memory only."""

    #: The anchor record it opened on: every member's record carries its
    #: counter, and the close's one increment proves it fresh.
    opened: AnchorRecord
    #: When the last member finished: a transaction beginning before it
    #: overlapped that member and joins.
    release: float
    #: Members committed so far.
    members: int = 0
    #: Record parts the committed records named, dropped at the close.
    parts: list[str] = field(default_factory=list)
    #: Coherence keys the committed members touched, published at the close.
    touched: dict[tuple[str, str], None] = field(default_factory=dict)


class WriteAheadJournal:
    """Redo journal over the three untrusted stores of one deployment.

    ``writer`` names this enclave's record slot on the store.
    ``counter_probe`` returns the current whole-FS counter value for
    recovery, or is ``None`` when no counter protects the deployment.
    ``epoch`` is the open commit epoch, ``None`` between epochs: the one
    place that says whether one is open.  Every step's store writes are its
    only effects, so a crash anywhere leaves a prefix of them, which
    recovery handles (docs/FAULTS.md).
    """

    def __init__(
        self,
        stores: StoreSet,
        root_key: bytes,
        writer: str = "",
        counter_probe: Optional[Callable[[], int]] = None,
    ) -> None:
        self._tagged: tuple[UntrustedStore, ...] = (stores.content, stores.group, stores.dedup)
        self._backend = stores.content
        self._key = derive_key(root_key, "segshare/journal", length=16)
        self._pae = default_pae()
        self.counter_probe = counter_probe
        #: The writer whose record slot and parts this journal keeps.
        self.writer = writer
        self._record_key = _RECORD_PREFIX + writer
        self._part_prefix = f"{_PART_PREFIX}{writer}:"
        self.epoch: Optional[Epoch] = None
        #: A closed epoch whose anchor and record drop are in flight (:meth:`land`).
        self.closing: Optional[Epoch] = None
        #: Parts written so far; a part's number names its key.
        self._seq = 0
        #: True while this journal's record may be stored.
        self._stored = False
        #: Intents completed by the recoveries this journal ran.
        self.intents_recovered = 0
        self._poisoned: Optional[str] = None

    # -- epoch lifecycle ---------------------------------------------------------
    #
    # A member's commit point is its record's put, the epoch's close point
    # that record's delete, after the guards' flush and anchor write.  In
    # between, re-applying the last member's record rebuilds the committed state.

    def check_usable(self) -> None:
        """Refuse to go on after :meth:`poison`; reads continue."""
        if self._poisoned is not None:
            raise ServiceUnavailableError(
                f"mutations are disabled: {self._poisoned} (restart the enclave)"
            )

    def _refuse(self) -> NoReturn:
        """Refuse a step the epoch's state does not allow."""
        raise StorageError("journal epoch already open" if self.epoch is not None else "no commit epoch is open")

    def open_epoch(self, label: str, opened: AnchorRecord = UNANCHORED, release: float = 0.0) -> Epoch:
        """Open an epoch on the anchor record ``opened`` at virtual time
        ``release``; no store write happens until a member commits."""
        self.check_usable()
        if self.epoch is not None:
            self._refuse()
        self.epoch = Epoch(opened, release)
        return self.epoch

    def begin_member(self) -> int:
        """Start one member transaction; returns its first part number."""
        if self.epoch is None:
            self._refuse()
        return self._seq

    def record(self, writes: Sequence[Write]) -> str:
        """Seal writes the open member spilled into one record part; its key.

        A part is inert until the member's record names it.
        """
        if self.epoch is None:
            self._refuse()
        key = f"{self._part_prefix}{self._seq:08d}"
        self._seq += 1
        self._put(key, _pack_writes(Writer(), writes).take())
        return key

    def read_part(self, key: str) -> list[Write]:
        """The writes a part of the open member holds."""
        r = Reader(self._open(key))
        writes = _read_writes(r)
        r.expect_end()
        return writes

    def commit_member(
        self,
        member_base: int,
        fs_main: bytes,
        group_main: bytes,
        label: str,
        intents: Collection[str] = (),
        writes: Sequence[Write] = (),
    ) -> EpochRecord:
        """Commit one member: the record put is its atomic commit point.

        The record replaces the previous member's and counts the member
        into the epoch; the epoch's close drops the parts either named.  The
        caller applies the writes next (:meth:`apply`).
        """
        epoch = self.epoch or self._refuse()
        parts = tuple(f"{self._part_prefix}{seq:08d}" for seq in range(member_base, self._seq))
        record = EpochRecord(
            label, epoch.members + 1, epoch.opened[1], fs_main, group_main, tuple(intents), parts, tuple(writes)
        )
        self._stored = True
        self._put(self._record_key, record.encode())
        epoch.members += 1
        epoch.parts += parts
        return record

    def apply(self, writes: Sequence[Write], parts: Sequence[str] = (), tolerant: bool = False) -> None:
        """Apply a committed record's writes to the stores, its parts first.

        Puts and deletes only: nothing is read to be saved.  ``tolerant``
        (a re-apply) skips deletes whose key is already gone.
        """
        for part in parts:
            self.apply(self.read_part(part), tolerant=tolerant)
        for tag, key, value in writes:
            store = self._tagged[tag]
            if value is not None:
                store.put(key, value)
            elif not tolerant or store.exists(key):
                store.delete(key)

    def rollback_member(self, member_base: int) -> None:
        """Abort one member: drop the parts it spilled; the epoch lives on.

        Its writes never left enclave memory, so no stored key changed and
        other members are untouched.
        """
        if self.epoch is None:
            self._refuse()
        self._drop_parts(f"{self._part_prefix}{seq:08d}" for seq in range(member_base, self._seq))

    def rollback(self) -> None:
        """End an epoch in which no member committed: nothing was stored."""
        self.epoch = None

    def close_epoch(self) -> None:
        """No member joins any more; the record stays until :meth:`land`."""
        self.epoch, self.closing = None, self.epoch or self._refuse()

    def land(self, intents: Collection[str] = ()) -> None:
        """After the anchor write, the record's delete is the close point:
        open intents replace it, and a newer member's record stays."""
        closing = self.closing
        if closing is None:
            return
        if self.epoch is None or not self.epoch.members:
            self._keep(intents, closing.opened[1])
        self.closing = None
        self._drop_parts(closing.parts)

    # benchmarks/e2e/layers.py wraps the journal by these older names too;
    # they stay until that harness wraps by role (ROADMAP item 1).
    begin = open_epoch
    commit = close_epoch

    def poison(self, reason: str) -> None:
        """Drop the epoch, and the close in flight, and refuse further ones
        (an abort could not finish); reads continue."""
        self._poisoned = reason
        self.epoch = self.closing = None

    # -- recovery (enclave start, cluster takeover) ------------------------------

    def recover(
        self, writer: Optional[str] = None, anchored: Callable[[], Optional[AnchorRecord]] = lambda: None
    ) -> Optional[EpochRecord]:
        """Re-apply what ``writer``'s crashed commits left; the record applied.

        ``writer`` defaults to ours (a restart); a takeover passes the
        crashed peer's.  The record is admitted against the ``anchored``
        record (module docstring), re-applied, and its intents are completed.
        It stays until :meth:`recover_finish`, after the caller checked its
        roots and rebuilt the guards: a crash in between re-runs it all.
        """
        key = _RECORD_PREFIX + (self.writer if writer is None else writer)
        if not self._backend.exists(key):
            return None
        record = EpochRecord.decode(self._open(key))
        current = self.counter_probe() if self.counter_probe is not None else 0
        roots, anchor = (record.fs_main, record.group_main), anchored()
        pending = anchor[1] + 1 if anchor is not None else -1  # the anchor's pending successor's counter
        successor = all(roots) and record.counter == pending and current in (pending - 1, pending)
        named = current <= 1 if anchor is None else (
            record.counter == anchor[1] or all(m in (b"", k) for m, k in zip(roots, anchor[0])))
        if not successor and (current < record.counter or not named):
            raise RollbackDetected(
                f"stale redo record for batch {record.label!r}: recorded counter "
                f"{record.counter}, anchor {anchor and anchor[1]}, TEE counter {current}"
            )
        self.apply(record.writes, record.parts, tolerant=True)
        self._delete_objects(record.intents)
        self.intents_recovered += len(record.intents)
        return record

    def recover_finish(self, writer: Optional[str] = None) -> None:
        """Drop ``writer``'s record and every part it left (default: ours)."""
        writer = self.writer if writer is None else writer
        for key in [_RECORD_PREFIX + writer, *self._backend.scan(f"{_PART_PREFIX}{writer}:")]:
            if self._backend.exists(key):
                self._backend.delete(key)

    # -- request stamps (cluster exactly-once) ----------------------------------

    def seal_stamp(self, token: str) -> tuple[str, bytes]:
        """(key, ciphertext) of the request-stamp object for ``token``.

        The cluster front door tags each routed request with a token; the
        storage engine buffers the sealed stamp with the request's other
        writes, so it commits in the member's record or not at all.
        Because the stamp key is derived from SK_r, any replica holding
        the root key — in particular a failover successor — can read which
        request last committed and suppress a duplicate re-execution.  PAE
        under the journal key with a distinct AAD: the host can neither
        forge a stamp nor transplant a journal record into the stamp slot.
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

    def drop_intents(self) -> None:
        """Every open intent is complete: drop this writer's record.

        While an epoch is open or closing the stored record is its last
        member's; it is left alone until the close lands.
        """
        if self.epoch is None and self.closing is None:
            self._keep(())

    def _keep(self, intents: Collection[str], counter: int = 0) -> None:
        if intents:
            record = EpochRecord("reclaim", 0, counter, b"", b"", tuple(intents), (), ())
            self._stored = True
            self._put(self._record_key, record.encode())
        elif self._stored:
            self._backend.delete(self._record_key)
            self._stored = False

    def reclaim(self, object_id: str) -> None:
        """Delete a committed, unreferenced object, outside any record."""
        # Its intent stays until drop_intents: a crash or store
        # fault part-way is finished later.
        self._delete_objects((object_id,))

    def _delete_objects(self, intents: Iterable[str]) -> None:
        # Both keys, with no probe: a one-chunk object has no data value, and
        # a re-run (recovery, a retried reclaim) may find either key gone.
        # A delete that finds no key raises a plain StorageError, which is
        # that; a transient fault (a subclass) goes up, to be re-run.
        store = self._tagged[TAG_DEDUP]
        for key in [object_id + suffix for object_id in intents for suffix in SUFFIXES]:
            try:
                store.delete(key)
            except StorageError as exc:
                if type(exc) is not StorageError:
                    raise

    # -- internals ---------------------------------------------------------------

    def _put(self, key: str, plaintext: bytes) -> None:
        aad = _RECORD_AAD + key.encode("utf-8")
        self._backend.put(key, self._pae.encrypt(self._key, plaintext, aad=aad))

    def _open(self, key: str, aad: Optional[bytes] = None) -> bytes:
        try:
            blob = self._backend.get(key)
            return self._pae.decrypt(self._key, blob, aad=aad or _RECORD_AAD + key.encode("utf-8"))
        except IntegrityError:
            raise RollbackDetected(f"journal record {key!r} is corrupt or not ours") from None

    def _drop_parts(self, keys: Iterable[str]) -> None:
        # Parts no stored record names are inert: a fault leaves them to
        # this writer's next recovery, which drops every part it left.
        for key in keys:
            try:
                self._backend.delete(key)
            except EnclaveCrashed:
                raise
            except ReproError:
                pass
