"""The transactional storage engine — persistence owned end-to-end.

The engine makes the protocol behind "a mutation is a small metadata
write" (Section IV-B's store split, Section V-E's per-batch rollback
guards) one object: a :class:`StorageEngine` is the only component that
touches untrusted state, and its :meth:`StorageEngine.transaction` span
is the only way to mutate it::

    Transaction span (engine API)
      |- commit-epoch member (redo record)  repro.core.journal
      |- rollback-guard nodes, one anchor   repro.core.rollback
      |- metadata-cache write-through       repro.core.cache
      `- DeferredStore write buffers        this module
    ProtectedFs mounts                      repro.sgx.protected_fs
      `- DeferredStore -> raw backend       (InMemoryStore / DiskStore /
                                             repro.store.ShardedStore)

Every outermost span is one member of a commit epoch; on a serial clock
each member closes its own epoch, on a parallel one overlapping members
share it.  A member's writes stay in the buffers until its commit point,
one sealed redo record; the engine then applies them as one group per
store (one simulated ocall round-trip each) under the
``clock.exclusive("journal-commit")`` section that serializes records and
guard flushes.  An abort drops the buffers: no stored key changed.  On a
parallel clock a close is pipelined, as in Aether's flush pipelining: the
flush of its guard nodes holds "journal-commit", while its counter
increment, anchor write and record drop stay in flight and the next epoch
commits on the pending anchor record (:meth:`StorageEngine._land`).  The
seglint ``txn-discipline`` rule enforces at lint time what this module
enforces by construction.

This module is enclave code (``TCB_MODULES``); the host-side half of
``repro.store`` is the shard router in :mod:`repro.store.sharded`.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.core.journal import TAG_DEDUP, UNANCHORED, Epoch, EpochRecord, Write, WriteAheadJournal
from repro.errors import EnclaveCrashed, ReproError, StorageError
from repro.storage.backends import UntrustedStore
from repro.storage.stores import StoreSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cache import MetadataCache, Slot
    from repro.core.coherence import CoherenceManager
    from repro.core.dedup import DedupStore
    from repro.core.rollback import FileSystemAnchor
    from repro.sgx.enclave import Enclave

#: Values above this are never kept buffered: the enclave streams large
#: content group by group precisely to keep memory constant, and the
#: buffer must not undo that.  PFS metadata nodes (chunk 0 in them), a
#: two-chunk file's data value, guard nodes, and ACLs all fit.
MAX_BUFFERED_VALUE = 8192

#: Total buffered bytes per store before the buffer spills into a sealed
#: record part (see :meth:`WriteAheadJournal.record`).
BUFFER_BUDGET = 256 * 1024

#: Keys of the object store's blobs.  An object is written once under a
#: never-reused id and referenced only once a record commits, so its
#: blobs go straight to the store, never through a record.
OBJECT_PREFIX = "obj:"


@dataclass
class TransactionStats:
    """Counters over the engine's transaction lifecycle."""

    commits: int = 0
    aborts: int = 0
    puts: int = 0  # store-level puts issued inside transactions
    flush_groups: int = 0  # non-empty buffered groups applied at commits
    flushed_ops: int = 0  # buffered ops those groups carried
    last_commit_puts: int = 0
    last_flush_ops: int = 0
    spills: int = 0  # record parts sealed from oversize/over-budget buffers
    write_backs: int = 0  # cache entries applied at commit
    pending_bytes_peak: int = 0  # high-water mark of one store's buffer
    reclaimed: int = 0  # released objects deleted after their commit
    reclaims_waited: int = 0  # of those, reclaims that waited for a reader

    def snapshot(self) -> dict:
        return asdict(self)


@dataclass
class GroupCommitStats:
    """Counters over the group-commit coordinator's epoch lifecycle."""

    epochs: int = 0  # epochs closed
    members_total: int = 0  # member transactions committed inside epochs
    max_members: int = 0  # largest epoch seen
    record_deletes_saved: int = 0  # vs one record delete per transaction
    anchor_writes_saved: int = 0  # vs one anchor write + counter increment per txn
    #: str(members) -> count of epochs that closed at that size.
    histogram: dict[str, int] = field(default_factory=dict)
    #: close reason ("window" / "cap" / "quiesce" / "solo") -> count.
    closes: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> dict:
        return asdict(self)


class GroupCommitCoordinator:
    """The group-commit policy and its counters; the open epoch itself is
    the journal's (:class:`~repro.core.journal.Epoch`).  A transaction that
    *begins* before the epoch's release, or while the counter still counts
    the close before, joins it; a later one closes it first (group commit
    never delays a lone writer waiting for company)."""

    #: Epochs close at this many members even under continuous overlap, so
    #: an unbounded write burst cannot defer the guard flush forever.
    MAX_MEMBERS = 32

    def __init__(self) -> None:
        self.stats = GroupCommitStats()
        #: No second member can join: each member closes its own epoch
        #: right after its commit.  True on a serial clock, and on every clock
        #: while the enclave builds, so deploy-time transactions leave no
        #: epoch open behind them.
        self.solo = True


class DeferredStore(UntrustedStore):
    """Write-buffering store view, armed for the span of one transaction.

    While armed, puts and deletes land in an ordered, EPC-charged overlay
    that reads consult first; :meth:`drain` hands it to the commit, which
    seals it into the member's record and applies it.  An overlay past its
    budget spills into a sealed record part, still readable.  Unarmed, and
    for a fresh object's blobs (``direct``), every call passes through and
    costs one round-trip, while a commit pays one per store for its whole
    group.  A ranged call is charged by its caller, per node, unless
    :meth:`holds` says it stays in enclave memory.
    """

    def __init__(
        self,
        inner: UntrustedStore,
        enclave: "Enclave",
        stats: TransactionStats,
        journal: WriteAheadJournal,
        tag: int,
        direct: str | None = None,
    ) -> None:
        self.inner = inner
        self._enclave = enclave
        self._stats = stats
        self._journal = journal
        self._tag = tag
        self._direct = direct
        #: True while a member's writes are buffered: the engine defers its
        #: cache write-backs until they land.
        self.armed = False
        #: key -> value, or None for a buffered delete (tombstone).
        self._pending: "OrderedDict[str, bytes | None]" = OrderedDict()
        self._pending_bytes = 0
        #: key -> (record part, present): writes spilled out of the overlay.
        self._spilled: "dict[str, tuple[str, bool]]" = {}
        #: While an epoch's close writes, the pass-through calls it made: the
        #: close pays one round-trip per store for them (None otherwise).
        self.grouped: int | None = None

    # -- accounting ----------------------------------------------------------

    def _charge(self) -> None:
        if self.grouped is None:
            self._enclave.ocall(account="pfs-io")
        else:
            self.grouped += 1

    def _set_pending(self, key: str, value: bytes | None) -> None:
        old = self._pending.pop(key, None)
        self._pending[key] = value
        self._account((len(value) if value is not None else 0) - (len(old) if old is not None else 0))

    def _account(self, delta: int) -> None:
        self._pending_bytes += delta
        epc = self._enclave.platform.epc
        if delta > 0:
            epc.alloc(delta)
        elif delta < 0:
            epc.free(-delta)
        if self._pending_bytes > self._stats.pending_bytes_peak:
            self._stats.pending_bytes_peak = self._pending_bytes

    def _passes(self, key: str) -> bool:
        return not self.armed or (self._direct is not None and key.startswith(self._direct))

    def holds(self, key: str, write: bool = False) -> bool:
        """True if a call on ``key`` stays in enclave memory, so pays no OCALL now."""
        # A write while armed, a fresh object's excepted; a read of a value the span wrote.
        return not self._passes(key) if write else self.armed and (key in self._pending or key in self._spilled)

    # -- transaction hooks ---------------------------------------------------

    def arm(self) -> None:
        self.armed = True

    def drain(self) -> list[Write]:
        """Hand the overlay to the commit and disarm; spilled parts stay
        the journal's to name."""
        writes = [(self._tag, key, value) for key, value in self._pending.items()]
        self.discard()
        return writes

    def discard(self) -> None:
        """Drop the overlay without applying it (transaction abort)."""
        self._account(-self._pending_bytes)
        self._pending = OrderedDict()
        self._spilled = {}
        self.armed = False

    def _spill(self) -> None:
        part = self._journal.record([(self._tag, key, value) for key, value in self._pending.items()])
        for key, value in self._pending.items():
            self._spilled[key] = (part, value is not None)
        self._account(-self._pending_bytes)
        self._pending = OrderedDict()
        self._stats.spills += 1

    # -- UntrustedStore ------------------------------------------------------

    def put(self, key: str, value: bytes) -> None:
        if self._passes(key):
            self.inner.put(key, value)
            self._charge()
            return
        self._stats.puts += 1
        self._set_pending(key, bytes(value))
        # Oversize or over budget: the enclave never buffers unbounded
        # bytes (the constant-memory claim), nor writes through before
        # the commit point.
        if len(value) > MAX_BUFFERED_VALUE or self._pending_bytes > BUFFER_BUDGET:
            self._spill()

    def put_range(self, key: str, offset: int, blobs: Sequence[bytes]) -> None:
        if self._passes(key):
            self.inner.put_range(key, offset, blobs)
        else:  # buffered like any write: the value reaches the store whole
            self.put(key, (self.get(key)[:offset].ljust(offset, b"\0") if offset else b"") + b"".join(blobs))

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        return self.get(key)[offset : offset + length] if self.holds(key) else self.inner.get_range(key, offset, length)

    def get(self, key: str) -> bytes:
        if self.armed and (key in self._pending or key in self._spilled):
            value = self._pending[key] if key in self._pending else self._read_spilled(key)
            if value is None:
                raise StorageError(f"no object at key {key!r}")
            return value
        value = self.inner.get(key)
        self._charge()
        return value

    def _read_spilled(self, key: str) -> bytes | None:
        part, present = self._spilled[key]
        if not present:
            return None
        return next(value for _, k, value in reversed(self._journal.read_part(part)) if k == key)

    def delete(self, key: str) -> None:
        if self._passes(key):
            self.inner.delete(key)
            self._charge()
            return
        if not self.exists(key):
            raise StorageError(f"no object at key {key!r}")
        if key in self._pending and key not in self._spilled and not self.inner.exists(key):
            self._account(-len(self._pending.pop(key)))  # only this span put it: nothing to delete
        else:
            self._set_pending(key, None)

    def exists(self, key: str) -> bool:
        if self.armed:
            if key in self._pending:
                return self._pending[key] is not None
            if key in self._spilled:
                return self._spilled[key][1]
        return self.inner.exists(key)

    def keys(self) -> Iterator[str]:
        return self.scan("")

    def scan(self, prefix: str) -> Iterator[str]:
        if not self.armed or not (self._pending or self._spilled):
            return self.inner.scan(prefix)
        merged = set(self.inner.scan(prefix))
        overlay = [(key, present) for key, (_, present) in self._spilled.items()]
        overlay += [(key, value is not None) for key, value in self._pending.items()]
        for key, present in overlay:
            if key.startswith(prefix):
                (merged.add if present else merged.discard)(key)
        return iter(merged)

    def size(self, key: str) -> int:
        if self.holds(key):
            return len(self.get(key))
        return self.inner.size(key)


class StorageEngine:
    """Owns the journal, guards, cache, and deferred stores of one enclave.

    ``backends`` is what the ProtectedFs mounts sit on: each store is
    wrapped ``DeferredStore -> raw``.  ``raw`` keeps the unwrapped stores
    for stats, sealed slots, and the journal's own record keys.
    """

    def __init__(
        self,
        stores: StoreSet,
        enclave: "Enclave",
        journal: WriteAheadJournal,
        cache: "MetadataCache | None" = None,
    ) -> None:
        self.raw = stores
        self.journal = journal
        self.cache = cache
        self.enclave = enclave
        #: The file-system anchor both rollback guards hang off (``None``
        #: unguarded); it attaches itself.
        self.anchor: "FileSystemAnchor | None" = None
        self.dedup: "DedupStore | None" = None
        #: True while the body of an outermost span (an epoch member)
        #: runs: transactions started inside it are nested and join it.
        self.in_span = False
        self.stats = TransactionStats()
        self.group_commit = GroupCommitCoordinator()
        #: Cluster request token to persist with the next transaction.
        #: Set via the ``cluster_begin_request`` ECALL before a routed
        #: request runs; the transaction buffers the sealed stamp with its
        #: other writes, so "this request committed" is part of the
        #: member's redo record.  ``None`` (the default everywhere outside
        #: cluster mode) adds zero writes and zero cost.
        self.pending_stamp: str | None = None
        #: Cross-replica invalidation publisher; installed by
        #: :meth:`attach_coherence` in cluster deployments (``None``
        #: keeps single-enclave paths byte-for-byte untouched).
        self.coherence: "CoherenceManager | None" = None
        #: (namespace, key) pairs the open transaction touched, in touch
        #: order; published to the coherence log at commit so peer replicas
        #: drop exactly these cache entries, in an order that repeats for a
        #: seed (an ``hName`` is keyed by this deployment's secret, so
        #: sorted names would not).  Shares the lifecycle (and therefore
        #: the thread-safety argument) of ``_write_backs``.
        self._txn_touched: "dict[tuple[str, str], None]" = {}
        #: (namespace, key) -> (value, slot); deferred cache write-through,
        #: last write per key wins.
        self._write_backs: "OrderedDict[tuple[str, str], tuple[bytes, Slot | None]]" = OrderedDict()
        #: Object ids, in release order: objects the open span released, and
        #: committed releases not yet reclaimed (a reader holds them, or a
        #: store fault cut the post-commit phase short).
        self._released: dict[str, None] = {}
        self._outstanding: dict[str, None] = {}
        #: When the last close in flight landed: the counter is busy until then.
        self._counter_free = 0.0
        self._deferred = tuple(
            DeferredStore(
                store, enclave, self.stats, journal, tag, OBJECT_PREFIX if tag == TAG_DEDUP else None
            )
            for tag, store in enumerate((stores.content, stores.group, stores.dedup))
        )
        self.backends = StoreSet(*self._deferred)

    def attach_dedup(self, dedup: "DedupStore") -> None:
        """A released object's reclaim waits for the object store's readers."""
        self.dedup = dedup

    @property
    def guards(self) -> list:
        """The attached rollback guards, content store first."""
        return self.anchor.guards if self.anchor is not None else []

    def drop_derived_state(self, restored: bool = False) -> None:
        """Forget what storage may have moved past (after a restore, a
        takeover, a coherence anomaly): cached plaintext and the anchor
        record; the next read re-verifies.  A ``restored`` backup may name
        objects waiting for their reclaim again, so those go too (a
        committed intent keeps any still due)."""
        if self.cache is not None:
            self.cache.clear()
        if self.anchor is not None:
            self.anchor.forget()
        if restored:
            self._outstanding.clear()

    def attach_coherence(self, coherence: "CoherenceManager | None") -> None:
        """Join the cluster's invalidation log (:mod:`repro.core.coherence`):
        every close publishes its keys, every cache read syncs first."""
        self.coherence = coherence

    def discard_pending_state(self) -> None:
        """Drop deferred write-backs and captured keys (recovery epilogue):
        one kept past a takeover's guard rebuild could resurrect a value
        coherence invalidated.  Always safe: the next read re-verifies."""
        self._write_backs.clear()
        self._txn_touched.clear()

    def quiesce(self) -> None:
        """Land the close in flight, then close any open epoch inline (a drain)."""
        self._land()
        epoch = self.journal.epoch
        if epoch is not None:
            self._close_epoch(epoch, "quiesce")

    # -- the transaction span ------------------------------------------------

    @contextlib.contextmanager
    def transaction(self, label: str) -> Iterator[None]:
        """Run a multi-key mutation as one all-or-nothing unit: one member of
        a (possibly shared) commit epoch, whose commit point is one record
        put; the guard flush, anchor write, counter increment and record
        delete are paid once per epoch (:meth:`_close_epoch`).  An aborted
        member drops its buffers, earlier members stand, a crash past a
        commit point rolls forward on restart; nested spans join the outer."""
        if self.in_span:
            yield
            return
        journal = self.journal
        journal.check_usable()
        group = self.group_commit
        clock = self.enclave.platform.clock
        if self.coherence is not None:
            # Start from a synced view: peer epochs applied before our
            # reads, so the span never builds writes over stale cache.
            self.coherence.sync()
        now = clock.now()
        epoch = journal.epoch
        full = epoch is not None and epoch.members >= group.MAX_MEMBERS
        # The epoch admits members until the counter is free.
        if epoch is not None and (full or now > max(epoch.release, self._counter_free)):
            self._close_epoch(epoch, "cap" if full else "window")
            epoch = None
        anchor = self.anchor
        if epoch is None:
            if anchor is not None:
                # Liveness only, outside the commit point: a lost quorum
                # refuses the write before anything commits.
                anchor.probe()
            # The epoch opens on the latest anchor record (a close in
            # flight's, or the one this enclave last wrote unless it forgot),
            # which the close's increment proves fresh.  Its members' records
            # name the pending roots: a crash rebuilds the nodes from the data.
            with self._commit_point():
                opened = anchor.begin_batch() if anchor is not None else UNANCHORED
                epoch = journal.open_epoch(label, opened, clock.now())
        member_base = journal.begin_member()
        snapshots = [(guard, guard.snapshot_pending()) for guard in self.guards]
        puts_before = self._open_span()
        try:
            yield
            with self._commit_point():
                mains = anchor.pending_roots() if anchor is not None else (b"", b"")
                intents = {**self._outstanding, **self._released}
                writes = [write for store in self._deferred for write in store.drain()]
                record = journal.commit_member(member_base, *mains, label, intents, writes)
                self._apply_committed(record)
        except EnclaveCrashed:
            # The enclave is gone; restart recovery re-applies a committed record.
            raise
        except BaseException:
            self._abort(label, epoch, member_base, snapshots)
            self.stats.aborts += 1
            raise
        else:
            epoch.release = clock.now()
            group.stats.members_total += 1
            self._apply_write_backs()
            # Committed members pool their touched keys; the epoch close
            # publishes them as one entry.
            epoch.touched |= self._txn_touched
            self._txn_touched = {}
            self._committed(puts_before)
            # After the reclaim, which the record's intents keep durable
            # until the close.  A close in flight lands behind the first
            # member of the epoch opened on its pending record.  The member
            # stands whatever either meets: a failure keeps the close in
            # flight (or a solo epoch open), and a later span runs it again.
            try:
                if journal.closing is not None:
                    self._land()
                if group.solo:
                    self._close_epoch(epoch, "solo")
            except EnclaveCrashed:
                raise
            except ReproError:
                pass
        finally:
            self.in_span = False

    def _open_span(self) -> int:
        """Arm the write buffers and stage the cluster stamp; returns the
        put count the span starts from."""
        for store in self._deferred:
            store.arm()
        stamp, self.pending_stamp = self.pending_stamp, None
        if stamp is not None:
            # Buffered like any other write: an abort (or a crash before
            # the commit point) keeps the *previous* request's stamp, and
            # the member's redo record publishes this one atomically with
            # the member's writes.
            self.backends.content.put(*self.journal.seal_stamp(stamp))
        self.in_span = True
        return self.stats.puts

    def _disarm(self) -> None:
        for store in self._deferred:
            store.discard()

    def _apply(self, record: EpochRecord) -> None:
        """Apply a committed record: one round-trip per store group."""
        self.journal.apply(record.writes, record.parts)
        tags = {tag for tag, _, _ in record.writes}
        for _ in tags:
            self.enclave.ocall(account="pfs-io")
        self.stats.flush_groups += len(tags)
        self.stats.flushed_ops += len(record.writes)
        self.stats.last_flush_ops = len(record.writes)

    def _apply_committed(self, record: EpochRecord) -> None:
        """Apply a member's record past its commit point: the member stands.

        A store fault part-way is rolled forward at once by re-applying;
        if that fails too, the enclave stops rather than serve the store
        half-applied, and restart recovery re-applies the stored record.
        """
        try:
            self._apply(record)
        except EnclaveCrashed:
            raise
        except ReproError:
            try:
                self.journal.apply(record.writes, record.parts, tolerant=True)
            except EnclaveCrashed:
                raise
            except ReproError as exc:
                self.enclave.abort(f"commit of {record.label!r} could not be applied: {exc}")

    def _committed(self, puts_before: int) -> None:
        self.stats.commits += 1
        self.stats.last_commit_puts = self.stats.puts - puts_before
        self._outstanding.update(self._released)
        self._released = {}
        self._finish_reclaims()

    def _close_epoch(self, epoch: Epoch, reason: str) -> None:
        """Close the open ``epoch``: flush its guards' dirty nodes, then land.

        One batched guard-node flush (one group per store), one anchor write
        and counter increment, one record delete — amortized over every
        member.  The flush runs under "journal-commit" on background work
        from the last member's release, where the next opener meets it; a
        window or cap close on a parallel track leaves the rest in flight
        (:meth:`_land`); a quiesce or solo close lands inline.  A failed
        flush keeps the epoch open (and each guard its batch) and is raised;
        the next span's opener runs it again.
        """
        self._land()
        clock = self.enclave.platform.clock
        group = self.group_commit
        # A request on the base timeline arrives after all earlier work,
        # background included, so nothing there overlaps the counter.
        inline = group.solo or reason == "quiesce" or clock.active_track() is None
        bg = None if group.solo else clock.open_track("group-commit-close", start=epoch.release)
        try:
            with self._commit_point():
                try:
                    self._flush_guards(land=inline)
                except EnclaveCrashed:
                    raise
                except BaseException:
                    # No member joins an epoch whose close is still due.
                    epoch.release = float("-inf")
                    raise
                self.journal.close_epoch()
                # The flush's guard keys are published with the members'.
                epoch.touched |= self._txn_touched
                self._txn_touched = {}
                if inline:
                    self._land(background=False)
            epoch.release = clock.now()  # the counter work starts here
        finally:
            if bg is not None:
                clock.close_track(bg, join=False)
        stats, members = group.stats, epoch.members
        stats.epochs += 1
        stats.histogram[str(members)] = stats.histogram.get(str(members), 0) + 1
        stats.closes[reason] = stats.closes.get(reason, 0) + 1
        stats.max_members, saved = max(stats.max_members, members), max(members - 1, 0)
        stats.record_deletes_saved += saved
        stats.anchor_writes_saved += saved if self.anchor is not None else 0

    def _land(self, background: bool = True) -> None:
        """Land the close in flight (increment, anchor write, record drop, entry):
        background work from the flush's end holding only the counter and
        "rb-anchor", or on an inline close's track.  A failure keeps it in flight."""
        closing = self.journal.closing
        if closing is None:
            return
        clock = self.enclave.platform.clock
        solo = self.group_commit.solo or not background
        bg = None if solo else clock.open_track("group-commit-land", start=closing.release)
        try:
            if background:
                self._flush_guards(flush=False)
            self.journal.land(self._outstanding)
            # Once per epoch, after its anchor: peers learn every committed
            # member's touched keys and the guard keys the close wrote, in
            # one entry.  A crash here leaves the epoch committed but
            # unpublished — healed by the recovery reset (see
            # SeGShareEnclave._finish_recovery).
            self._publish_coherence(closing.touched, "epoch")
        finally:
            if bg is not None:
                clock.close_track(bg, join=False)
                self._counter_free = bg.end

    def _flush_guards(self, flush: bool = True, land: bool = True) -> None:
        # The guards' node and anchor writes reach each store as one group,
        # the way _apply writes a member's: one round-trip per store.
        for store in self._deferred:
            store.grouped = 0
        try:
            if self.anchor is not None:
                if flush and self.journal.epoch is not None:
                    self.anchor.commit_batch(self.journal.epoch.opened)
                if land:
                    self.anchor.land()
        finally:
            for store in self._deferred:
                if store.grouped:
                    self.enclave.ocall(account="pfs-io")
                store.grouped = None

    def _abort(self, label: str, epoch: Epoch, member_base: int, snapshots: list) -> None:
        """The one rollback: a member that failed before its commit point.
        Its buffers and spilled parts go and the guards' pending state
        rewinds; earlier members stand, and an epoch none committed in ends.
        If this fails too, the journal is poisoned until a restart."""
        journal = self.journal
        # No stored key changed, so peers' caches are still correct:
        # nothing to publish.
        self.in_span = False
        self._released.clear()
        self._disarm()
        self._write_backs.clear()
        self._txn_touched.clear()
        try:
            for guard, snapshot in snapshots:
                guard.restore_pending(snapshot)
            journal.rollback_member(member_base)
            if epoch.members == 0:
                if self.anchor is not None:
                    self.anchor.end_batch()
                journal.rollback()
        except EnclaveCrashed:
            raise
        except ReproError as rollback_exc:
            # The guards keep their batches: the poisoned enclave's reads
            # verify against the roots its committed members left pending.
            journal.poison(f"rollback of transaction {label!r} failed: {rollback_exc}")

    # -- object reclaim ---------------------------------------------------------
    #
    # A span that drops an object's last reference only names it
    # (release_object); its keys go after the commit point, outside any
    # record, once no reader holds it — an abort keeps it referenced.

    def release_object(self, object_id: str) -> None:
        # Outside any span the release is durable at once.
        (self._released if self.in_span else self._outstanding)[object_id] = None
        self._finish_reclaims()

    def delete_object_key(self, key: str) -> None:
        # A fresh copy's blob: no record ever referenced it.
        self.raw.dedup.delete(key)

    def reader_closed(self, object_id: str) -> None:
        if object_id in self._outstanding:
            self.stats.reclaims_waited += 1
            self._finish_reclaims()

    def _finish_reclaims(self) -> None:
        # The post-commit phase.  The request already committed, so a store
        # fault here must not fail it: the intent stays durable, and the
        # next commit, reader close or restart finishes it.
        if not self._outstanding or self.dedup is None:
            return
        try:
            for object_id in list(self._outstanding):
                if not self.dedup.reading(object_id):
                    self.journal.reclaim(object_id)
                    del self._outstanding[object_id]
                    self.stats.reclaimed += 1
            if not self._outstanding:
                self.journal.drop_intents()
        except EnclaveCrashed:
            raise
        except ReproError:
            pass

    def _commit_point(self) -> "contextlib.AbstractContextManager[None]":
        """The journal's commit record is one serial resource: an epoch's
        open, each record's put and apply, and a close's guard flush meet
        here, so on a parallel clock overlapping writers pay each other's
        commit latency while readers do not (a no-op on a serial clock)."""
        return self.enclave.platform.clock.exclusive(
            "journal-commit", account="commit-wait"
        )

    def _apply_write_backs(self) -> None:
        if not self._write_backs:
            return
        pending, self._write_backs = self._write_backs, OrderedDict()
        if self.cache is not None:
            self.cache.apply(
                (namespace, key, value, slot)
                for (namespace, key), (value, slot) in pending.items()
            )
            self.stats.write_backs += len(pending)

    def _publish_coherence(self, touched: "dict[tuple[str, str], None]", label: str) -> None:
        """Publish ``touched`` and the open span's touched keys as one entry,
        strictly after the journal commit (the entry describes only durable
        state), and nothing if nothing was touched.  A crash before it leaves
        the committed-but-unpublished window takeover's reset entry heals."""
        if self.coherence is None:
            return
        touched = touched | self._txn_touched
        self._txn_touched = {}
        if not touched:
            return
        self.coherence.publish(touched, label)

    # -- cache facade --------------------------------------------------------
    #
    # Callers never talk to the MetadataCache directly: every cached read
    # is one call of read(), whose two cache steps are lookup and fill;
    # writers pair invalidate (before the store mutation) with write_back
    # (after it).  Inside a transaction the write-through is deferred to
    # commit; an abort drops the deferred write-backs, and a fill never
    # inserts a value the span wrote, so read-path fills stay safe mid-span.

    def read(self, namespace: str, key: str, load: Callable[[str], "bytes | None"],
             verify: Callable[[str, bytes], None] | None = None, fill: bool = True,
             decode: Callable[[bytes], Any] | None = None) -> Any:
        """The one cached metadata read: the cache, else ``load(key)``.

        ``load`` returns None if nothing is stored, and so does the read.  A
        loaded value is checked by ``verify(key, value)``, then cached only
        with ``fill``; a miss counts only when ``load`` found the value.
        With ``decode`` the read returns the entry's shared slot object.
        """
        hit = self.lookup(namespace, key, decode)
        if hit is not None:
            return hit
        data = load(key)
        if data is None:
            return None
        if self.cache is not None:
            self.cache.missed()
        if verify is not None:
            verify(key, data)
        decoded = data if decode is None else decode(data)
        if fill:
            self.fill(namespace, key, data, None if decode is None else (decode, decoded))
        return decoded

    def lookup(self, namespace: str, key: str, decode: Callable[[bytes], Any] | None = None) -> Any:
        if self.cache is None:
            return None
        if self.coherence is not None:
            # Epoch check before every cache serve: one untrusted int
            # compare on the fast path; apply-or-discard on lag.
            self.coherence.sync()
        return self.cache.get(namespace, key, decode)

    def cached(self, namespace: str, key: str) -> bool:
        if self.cache is None:
            return False
        if self.coherence is not None:
            self.coherence.sync()
        return self.cache.contains(namespace, key)

    def fill(self, namespace: str, key: str, value: bytes, slot: "Slot | None" = None) -> None:
        """Read-path insertion of a just-verified value, but never of one this
        span wrote: its write-back enters it at commit, and an abort must not."""
        if self.cache is not None and (namespace, key) not in self._write_backs:
            self.cache.put(namespace, key, value, slot)

    def invalidate(self, namespace: str, key: str) -> None:
        """Drop the entry, and any deferred write-back of it, before mutating:
        a faulted write must not leave the old value served, nor a delete
        after a write in one span resurrect it at commit."""
        self._write_backs.pop((namespace, key), None)
        self._touch_coherence(namespace, key)
        if self.cache is not None:
            self.cache.discard(namespace, key)

    def write_back(self, namespace: str, key: str, value: bytes, slot: "Slot | None" = None) -> None:
        """Write-through of a value just persisted (``slot`` pairs a decoder
        with the object it came from), deferred to the commit inside a span."""
        self._touch_coherence(namespace, key)
        if self.cache is None:
            return
        if self._deferred[0].armed:
            self._write_backs.pop((namespace, key), None)
            self._write_backs[(namespace, key)] = value, slot
        else:
            self.cache.put(namespace, key, value, slot)

    def _touch_coherence(self, namespace: str, key: str) -> None:
        """Record a key an epoch, open or closing, is mutating: every cached-key
        mutation pairs ``invalidate`` with ``write_back``, so the published
        set is complete by construction.  Recovery's writes are not captured:
        they change no committed shared state a peer sees."""
        if self.coherence is not None and (self.journal.epoch or self.journal.closing) is not None:
            self._txn_touched[(namespace, key)] = None
