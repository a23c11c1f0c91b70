"""The transactional storage engine — persistence owned end-to-end.

Every paper invariant behind "a mutation is a small metadata write"
(Section IV-B's store split, Section V-E's per-batch rollback guards)
used to be re-assembled by hand at each call site: open a journal batch,
begin guard batches, discard cache entries before writes, flush guard
nodes, commit, re-anchor on abort.  The engine makes the whole protocol
one object.  A :class:`StorageEngine` is the only component that touches
untrusted state, and its :meth:`StorageEngine.transaction` span is the
only way to mutate it::

    Transaction span (engine API)
      |- commit-epoch member                repro.core.journal
      |- rollback-guard node/anchor batch   repro.core.rollback
      |- metadata-cache write-through       repro.core.cache
      `- DeferredStore write buffers        this module
    ProtectedFs mounts                      repro.sgx.protected_fs
      `- DeferredStore -> JournaledStore -> raw backend
                                            (InMemoryStore / DiskStore /
                                             repro.store.ShardedStore)

Every outermost span is one member of a commit epoch; on a serial clock
each member closes its own epoch, on a parallel one overlapping members
share it.  On commit the engine flushes each store's buffered puts as one
batched group — one simulated ocall round-trip per store instead of one
per object — under the same ``clock.exclusive("journal-commit")``
critical section that serializes the record, anchor and marker writes.
On abort the buffers are discarded, the undo log restores pre-images,
and the cache is cleared; one routine (:meth:`StorageEngine._abort`)
covers a failed member and a failed epoch close.  The seglint
``txn-discipline`` rule enforces at lint time what this module enforces
by construction.

This module is enclave code (``TCB_MODULES``); the host-side half of
``repro.store`` is the shard router in :mod:`repro.store.sharded`.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core.journal import (
    TAG_CONTENT,
    TAG_DEDUP,
    TAG_GROUP,
    EpochRecord,
    JournaledStore,
    WriteAheadJournal,
)
from repro.errors import EnclaveCrashed, ReproError, RollbackDetected, StorageError
from repro.storage.backends import UntrustedStore
from repro.storage.stores import StoreSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cache import MetadataCache
    from repro.core.coherence import CoherenceManager
    from repro.core.dedup import DedupStore
    from repro.core.file_manager import Mount
    from repro.sgx.enclave import Enclave

#: Values above this are never buffered: the enclave streams large
#: content chunk-by-chunk precisely to keep memory constant, and the
#: buffer must not undo that.  4 KiB chunk ciphertexts, PFS metadata,
#: guard nodes, and ACLs all fit.
MAX_BUFFERED_VALUE = 8192

#: Total buffered bytes per store before further puts write through.
BUFFER_BUDGET = 256 * 1024


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
    bypass_writes: int = 0  # oversize/over-budget writes applied immediately
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
    marker_writes_saved: int = 0  # vs one marker persist per transaction
    anchor_writes_saved: int = 0  # vs one anchor write per guard per txn
    counter_increments_saved: int = 0  # vs one increment per guard per txn

    def __post_init__(self) -> None:
        #: str(members) -> count of epochs that closed at that size.
        self.histogram: dict[str, int] = {}
        #: close reason ("window" / "cap" / "quiesce") -> count.
        self.closes: dict[str, int] = {}

    def snapshot(self) -> dict:
        out = asdict(self)
        out["histogram"] = dict(self.histogram)
        out["closes"] = dict(self.closes)
        return out


class GroupCommitCoordinator:
    """Bookkeeping for one open commit epoch (enclave memory only).

    ``release`` is the virtual time the last member finished committing:
    a transaction that *begins* before it overlapped an in-flight member
    and joins the epoch; one that begins after it found the pipeline
    drained, so the epoch closes first (group commit never delays a lone
    writer waiting for company).
    """

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
        self.open = False
        self.release = 0.0
        self.members = 0


class DeferredStore(UntrustedStore):
    """Write-buffering store view, armed for the span of one transaction.

    While armed, puts and deletes land in an ordered in-enclave overlay
    (EPC-charged) and reads consult the overlay first; ``flush()``
    applies the whole overlay to the inner store as one group.  Unarmed,
    every operation passes straight through.

    The class owns its own ocall accounting (``owns_ocall_accounting``
    makes :class:`~repro.sgx.protected_fs.ProtectedFs` skip its per-call
    charge): unarmed operations cost one round-trip each, exactly like
    the un-deferred stack did, while an armed flush charges one
    round-trip for the entire group — the batching the transaction pays
    for.
    """

    owns_ocall_accounting = True

    def __init__(
        self,
        inner: UntrustedStore,
        enclave: "Enclave",
        stats: TransactionStats,
    ) -> None:
        self.inner = inner
        self._enclave = enclave
        self._stats = stats
        self._armed = False
        #: key -> value, or None for a buffered delete (tombstone).
        self._pending: "OrderedDict[str, bytes | None]" = OrderedDict()
        self._pending_bytes = 0

    # -- accounting ----------------------------------------------------------

    def _charge(self) -> None:
        self._enclave.ocall(account="pfs-io")

    def _entry_bytes(self, key: str) -> int:
        value = self._pending.get(key)
        return len(value) if value is not None else 0

    def _set_pending(self, key: str, value: bytes | None) -> None:
        delta = (len(value) if value is not None else 0) - self._entry_bytes(key)
        self._pending.pop(key, None)
        self._pending[key] = value
        self._account(delta)

    def _drop_pending(self, key: str) -> None:
        if key in self._pending:
            self._account(-self._entry_bytes(key))
            del self._pending[key]

    def _account(self, delta: int) -> None:
        self._pending_bytes += delta
        epc = self._enclave.platform.epc
        if delta > 0:
            epc.alloc(delta)
        elif delta < 0:
            epc.free(-delta)
        if self._pending_bytes > self._stats.pending_bytes_peak:
            self._stats.pending_bytes_peak = self._pending_bytes

    # -- transaction hooks ---------------------------------------------------

    def arm(self) -> None:
        self._armed = True

    def flush(self) -> int:
        """Apply the overlay to the inner store as one group; return op count.

        A fault part-way leaves the inner store partially updated — the
        journal's pre-images (one entry for the group, persisted by the
        JournaledStore underneath before its first op lands) are what
        repair it, exactly as for un-deferred writes.
        """
        pending = self._pending
        try:
            self.inner.apply(pending.items())
        finally:
            self._account(-self._pending_bytes)
            self._pending = OrderedDict()
            self._armed = False
        if pending:
            self._charge()  # the whole group is one round-trip
        return len(pending)

    def discard(self) -> None:
        """Drop the overlay without applying it (transaction abort)."""
        self._account(-self._pending_bytes)
        self._pending = OrderedDict()
        self._armed = False

    # -- UntrustedStore ------------------------------------------------------

    def put(self, key: str, value: bytes) -> None:
        if not self._armed:
            self.inner.put(key, value)
            self._charge()
            return
        self._stats.puts += 1
        fits = len(value) <= MAX_BUFFERED_VALUE and (
            self._pending_bytes - self._entry_bytes(key) + len(value) <= BUFFER_BUDGET
        )
        if fits:
            self._set_pending(key, bytes(value))
            return
        # Oversize or over budget: write through now — the enclave never
        # buffers unbounded bytes (the constant-memory claim).  Any
        # overlay entry for the key is dropped first so it cannot shadow
        # the newer stored value.
        self._drop_pending(key)
        self.inner.put(key, value)
        self._charge()
        self._stats.bypass_writes += 1

    def get(self, key: str) -> bytes:
        if self._armed and key in self._pending:
            value = self._pending[key]
            if value is None:
                raise StorageError(f"no object at key {key!r}")
            return value
        value = self.inner.get(key)
        self._charge()
        return value

    def delete(self, key: str) -> None:
        if not self._armed:
            self.inner.delete(key)
            self._charge()
            return
        if not self.exists(key):
            raise StorageError(f"no object at key {key!r}")
        self._set_pending(key, None)

    def exists(self, key: str) -> bool:
        if self._armed and key in self._pending:
            return self._pending[key] is not None
        return self.inner.exists(key)

    def keys(self) -> Iterator[str]:
        return self.scan("")

    def scan(self, prefix: str) -> Iterator[str]:
        if not self._armed or not self._pending:
            return self.inner.scan(prefix)
        merged = set(self.inner.scan(prefix))
        for key, value in self._pending.items():
            if not key.startswith(prefix):
                continue
            if value is None:
                merged.discard(key)
            else:
                merged.add(key)
        return iter(merged)

    def size(self, key: str) -> int:
        if self._armed and key in self._pending:
            return len(self.get(key))
        return self.inner.size(key)


class StorageEngine:
    """Owns the journal, guards, cache, and deferred stores of one enclave.

    ``backends`` is what the ProtectedFs mounts sit on: each store is
    wrapped ``DeferredStore -> JournaledStore -> raw``.  ``raw`` keeps the
    unwrapped stores for stats, sealed slots, and the journal's own
    marker/entry keys.
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
        self._enclave = enclave
        #: The content- and group-store mounts, in that order; installed by
        #: the trusted file manager.  Each carries its attached rollback
        #: guard (or ``None``), which is all the engine needs of them.
        self.mounts: "tuple[Mount, ...]" = ()
        self.dedup: "DedupStore | None" = None
        #: True while the body of an outermost span (an epoch member)
        #: runs: transactions started inside it are
        #: nested and join it, and the dedup records it changed wait for
        #: its end to be sealed once each.
        self.in_span = False
        self.stats = TransactionStats()
        self.group_commit = GroupCommitCoordinator()
        #: Cluster request token to persist with the next transaction.
        #: Set via the ``cluster_begin_request`` ECALL before a routed
        #: request runs; the transaction writes the sealed stamp through
        #: the journaled stack so "this request committed" becomes part
        #: of the member's atomicity.  ``None`` (the default everywhere
        #: outside cluster mode) adds zero writes and zero cost.
        self.pending_stamp: str | None = None
        #: Cross-replica invalidation publisher; installed by
        #: :meth:`attach_coherence` in cluster deployments (``None``
        #: keeps single-enclave paths byte-for-byte untouched).
        self.coherence: "CoherenceManager | None" = None
        #: (namespace, key) pairs the open transaction touched; published
        #: to the coherence log at commit so peer replicas drop exactly
        #: these cache entries.  Shares the lifecycle (and therefore the
        #: thread-safety argument) of ``_write_backs``.
        self._txn_touched: "set[tuple[str, str]]" = set()
        #: Union of the open epoch's committed members' touched sets;
        #: published once at epoch close, amortized like the anchor write.
        self._epoch_touched: "set[tuple[str, str]]" = set()
        #: (namespace, key) -> value; deferred cache write-through,
        #: last write per key wins.
        self._write_backs: "OrderedDict[tuple[str, str], bytes]" = OrderedDict()
        #: object id -> chunk count: objects the open span released, and
        #: committed releases not yet reclaimed (a reader holds them, or a
        #: store fault cut the post-commit phase short).
        self._released: dict[str, int] = {}
        self._outstanding: dict[str, int] = {}
        if cache is not None:
            # Belt and braces: ANY undo-log restore — including recovery
            # paths that bypass transaction() — drops the cache before
            # restored bytes can coexist with stale entries.
            journal.on_restore = cache.clear
        self._deferred = tuple(
            DeferredStore(
                JournaledStore(store, journal, tag), enclave=enclave, stats=self.stats
            )
            for store, tag in (
                (stores.content, TAG_CONTENT),
                (stores.group, TAG_GROUP),
                (stores.dedup, TAG_DEDUP),
            )
        )
        self.backends = StoreSet(*self._deferred)

    def attach_dedup(self, dedup: "DedupStore") -> None:
        """The dedup records must be re-read after an undo-log restore."""
        self.dedup = dedup

    @property
    def guards(self) -> list:
        """The attached rollback guards, content store first."""
        return [mount.guard for mount in self.mounts if mount.guard is not None]

    def drop_derived_state(self) -> None:
        """Forget everything derived from storage that may now be stale.

        Cached plaintext and the in-memory dedup entries describe the store
        as this enclave last saw it; after an undo-log restore, a backup
        restore, a takeover, or a coherence anomaly they must go before
        anything reads storage again.  Always safe: the next read
        re-verifies from storage.
        """
        if self.cache is not None:
            self.cache.clear()
        if self.dedup is not None:
            self.dedup.reload_index()
        # A restored store may reference them again; a committed intent
        # keeps any that are still due.
        self._outstanding.clear()

    def attach_coherence(self, coherence: "CoherenceManager | None") -> None:
        """Join the cluster's invalidation log (see :mod:`repro.core.coherence`).

        From here on every commit publishes its touched-key set and every
        cache read syncs against the shared epoch counter first.
        """
        self.coherence = coherence

    def discard_pending_state(self) -> None:
        """Drop deferred write-backs and captured keys (recovery epilogue).

        Takeover recovery re-anchors through the raw-write path, which
        defers cache write-backs; applying them later — after the router
        may already have handed traffic to a peer — could resurrect a
        value the coherence protocol has invalidated.  Discarding is
        always safe: the next read re-verifies from storage.
        """
        self._write_backs.clear()
        self._txn_touched.clear()
        self._epoch_touched.clear()

    def coherence_check(self) -> None:
        """Apply pending peer invalidations before trusting derived state.

        The dedup store calls this on every hit: its entries live in
        enclave memory, so "verify on hit" means proving no peer epoch
        has invalidated them since we last looked.
        """
        if self.coherence is not None:
            self.coherence.sync()

    def quiesce(self) -> None:
        """Close any open epoch (bench boundaries, cluster hand-offs)."""
        if self.group_commit.open:
            self._close_epoch("quiesce")

    # -- the transaction span ------------------------------------------------

    @contextlib.contextmanager
    def transaction(self, label: str) -> Iterator[None]:
        """Run a multi-key mutation as one all-or-nothing unit.

        The outermost span is one member of a (possibly shared) commit
        epoch.  Its atomic commit point is a single epoch-record put
        (:meth:`WriteAheadJournal.commit_member`); the marker persist,
        batched guard-node flush, anchor write, and monotonic-counter
        increment are paid once per *epoch*, at close — on a serial clock
        each member closes its own.  Each member still records its own
        undo pre-images, so aborting one rolls back exactly its writes
        while earlier members' commits stand; a crash is rolled back on
        restart.  Nested transactions join the outer one.
        """
        journal = self.journal
        group = self.group_commit
        if self.in_span or (journal.active and not group.open):
            # Nested inside a member — or the journal is active without an
            # epoch of ours, i.e. crash recovery restored an epoch and kept
            # recording open (takeover): join it as a plain span so recovery
            # writes stay journaled until recover_finish, instead of opening
            # a second epoch over it.  A takeover span leaves in_span False,
            # so a dedup change made in it is sealed at once, not left for a
            # span end that never comes.
            yield
            return
        clock = self._enclave.platform.clock
        if self.coherence is not None:
            # Start from a synced view: peer epochs applied before our
            # reads, so the span never builds writes over stale cache.
            self.coherence.sync()
        now = clock.now()
        if group.open and (now > group.release or group.members >= group.MAX_MEMBERS):
            # This transaction did not overlap the last member (or the
            # epoch is full): flush the epoch's deferred guard state
            # first.  The close runs as background work anchored at the
            # last member's release; the opener below rendezvouses on
            # "journal-commit" and so waits for it — honest commit-wait.
            self._close_epoch("window" if now > group.release else "cap")
        if not group.open:
            with self._commit_point():
                journal.open_epoch(label)
            self._begin_guard_batches()
            group.open = True
            group.members = 0
            group.release = clock.now()
        member_base = journal.begin_member()
        snapshots = [(guard, guard.snapshot_pending()) for guard in self.guards]
        puts_before = self._open_span()
        try:
            yield
            # Commit inside the try: a fault while sealing dedup records,
            # flushing the buffers or persisting the record rolls the
            # member back like any other fault.  Sealed per member, never
            # at epoch close: the records must be durable at this member's
            # commit record.
            self._seal_dedup_index()
            with self._commit_point():
                if group.solo:
                    # No member can join: the guard nodes and anchor commit
                    # into the armed buffers and flush in this member's
                    # group, and the record needs no root hashes.
                    self._commit_guard_batches()
                self._flush_deferred()
                mains = [
                    mount.guard.expected_main()
                    if mount.guard is not None and not group.solo
                    else b""
                    for mount in self.mounts
                ] or [b"", b""]  # a bare engine has no mounts
                intents = {**self._outstanding, **self._released}
                journal.commit_member(member_base, *mains, group.members + 1, label, intents)
        except EnclaveCrashed:
            # The enclave is gone; restart recovery replays the undo log.
            raise
        except BaseException:
            self._abort(label, (member_base, snapshots))
            self.stats.aborts += 1
            raise
        else:
            group.release = clock.now()
            group.members += 1
            group.stats.members_total += 1
            self._apply_write_backs()
            # Committed members pool their touched keys; the epoch close
            # publishes them as one entry.
            self._epoch_touched |= self._txn_touched
            self._txn_touched = set()
            self._committed(puts_before)
            if group.solo:
                # After the reclaim, which the record's intents keep
                # durable until the marker goes.
                self._close_epoch("solo")
        finally:
            self.in_span = False

    def _open_span(self) -> int:
        """Arm the write buffers and stage the cluster stamp; returns the
        put count the span starts from."""
        for store in self._deferred:
            store.arm()
        stamp, self.pending_stamp = self.pending_stamp, None
        if stamp is not None:
            # Buffered like any other write: the pre-image is journaled at
            # flush, so an abort (or crash) restores the *previous*
            # request's stamp, and the member's commit record — which a
            # cluster successor sees while the epoch is still open —
            # publishes this one atomically with the member's writes.
            self.backends.content.put(*self.journal.seal_stamp(stamp))
        self.in_span = True
        return self.stats.puts

    def _drop_span(self) -> None:
        # The body is over: the rollback's dedup reload may now drop its
        # unsealed changes.  An abort restores the shared store to its
        # pre-transaction bytes, so peers' caches are still correct:
        # nothing to publish.
        self.in_span = False
        self._released.clear()
        for store in self._deferred:
            store.discard()
        self._write_backs.clear()
        self._txn_touched.clear()

    def _committed(self, puts_before: int) -> None:
        self.stats.commits += 1
        self.stats.last_commit_puts = self.stats.puts - puts_before
        self._outstanding.update(self._released)
        self._released = {}
        self._finish_reclaims()

    def _close_epoch(self, reason: str) -> None:
        """Flush the epoch's deferred guard state and drop the marker.

        One batched guard-node flush, one anchor write (plus counter
        increment) per guard, one marker delete — amortized over every
        member the epoch carried.  The work runs on a background track
        starting at the last member's release: no request waits on it
        directly, but the next epoch's opener meets it at the
        "journal-commit" rendezvous and the makespan includes it; a solo
        member closes inline.  A failure is repaired by :meth:`_abort` and
        then raised to whoever asked for the close.
        """
        clock = self._enclave.platform.clock
        group = self.group_commit
        bg = None if group.solo else clock.open_track("group-commit-close", start=group.release)
        try:
            with self._commit_point():
                self._commit_guard_batches()
                self.journal.close_epoch(self._outstanding)
                # The guard flush above raw-wrote nodes and the anchor
                # while the journal was still recording, deferring their
                # cache write-backs.  Apply them NOW: a write-back that
                # survives past the close could be applied after a peer
                # overwrote the key (the router hands traffic over right
                # after a quiesce), inserting a stale value the sync
                # protocol has already invalidated.
                self._apply_write_backs()
                # Publish once per epoch, inside the same serialized
                # close: peers learn every committed member's touched
                # keys in one entry.  A crash here leaves the epoch
                # committed but unpublished — healed by the takeover
                # reset (see cluster_takeover_recover).
                self._publish_coherence("epoch")
        except EnclaveCrashed:
            raise
        except BaseException:
            self._abort("epoch")
            raise
        finally:
            if bg is not None:
                clock.close_track(bg, join=False)
        group.open = False
        stats = group.stats
        members = group.members
        stats.epochs += 1
        stats.histogram[str(members)] = stats.histogram.get(str(members), 0) + 1
        stats.closes[reason] = stats.closes.get(reason, 0) + 1
        if members > stats.max_members:
            stats.max_members = members
        if members > 1:
            saved = members - 1
            guards = len(self.guards)
            stats.marker_writes_saved += saved
            stats.anchor_writes_saved += saved * guards
            stats.counter_increments_saved += saved * guards

    def _abort(self, label: str, member: "tuple[int, list] | None" = None) -> None:
        """The one rollback, for a failed member and a failed close alike.

        A ``member`` (entry base, guard snapshots) of a shared epoch fails
        before any guard flush: its entries are restored, the guards'
        pending state rewinds to where it began, and the epoch lives on
        for the other members.  Anything else — a solo member, whose guard
        flush is part of its commit point, or a failed close — may have
        left guard nodes half written
        and the counter ahead of the anchor: the entries above the last
        committed watermark are restored and the guards repaired from the
        data exactly as restart recovery repairs a crash at that point;
        only then does the marker go.  If the rollback itself fails, the
        journal is poisoned with its marker still stored: the next
        mutation answers UNAVAILABLE and restart recovery finishes the job.
        """
        journal = self.journal
        group = self.group_commit
        self._drop_span()
        try:
            if member is not None and not group.solo:
                member_base, snapshots = member
                for guard, snapshot in snapshots:
                    guard.restore_pending(snapshot)
                journal.rollback_member(member_base)
            elif journal.active:
                journal.rollback()
                for guard in self.guards:
                    guard.abort_batch()
                self.repair_guards(journal.epoch)
                journal.close_epoch(self._outstanding)
                # The repair deferred its node/anchor write-backs (the
                # journal was recording); apply them before leaving so none
                # survives to be applied stale later.
                self._apply_write_backs()
                self._publish_coherence(label)
            if self.dedup is not None:
                # The in-memory entries must follow the restored records.
                self.dedup.reload_index()
        except EnclaveCrashed:
            raise
        except ReproError as rollback_exc:
            journal.poison(f"rollback of transaction {label!r} failed: {rollback_exc}")
        group.open = journal.active

    def repair_guards(self, record: "EpochRecord | None") -> None:
        """Bring the guards back in line with restored data.

        The epilogue of every rollback that may have reached past a guard
        flush: the in-process abort above, and crash recovery (restart and
        cluster takeover).  With root hashes in the last member's record
        the stored nodes predate the committed members (their flush was
        deferred to the close): the data is checked against those hashes
        — the host had the store to itself, and a member list swapped for
        its pre-revocation bytes must not be blessed — and the trees are
        rebuilt from it.  Without them (no member committed, or a solo
        member whose guards flushed with it) the stored trees are current
        but the counter may have run past their anchors: each store is
        checked for internal consistency and re-anchored.
        """
        mains = (record.fs_main, record.group_main) if record is not None else (b"", b"")
        for mount, main in zip(self.mounts, mains):
            guard = mount.guard
            if guard is None:
                continue
            if main:
                if guard.recompute_main() != main:
                    raise RollbackDetected(
                        f"recovered {mount.namespace}-store state does not match "
                        "the epoch's journal record"
                    )
                guard.rebuild()
            else:
                guard.verify_restored_state()
                guard.accept_current_state()

    # -- object reclaim ---------------------------------------------------------
    #
    # A span that drops an object's last reference only names it
    # (release_object); its keys go after the commit point, below the
    # journal, once no reader holds it — an abort keeps it referenced.

    def release_object(self, object_id: str, chunks: int) -> None:
        # Outside any span the release is durable at once.
        (self._released if self.journal.active else self._outstanding)[object_id] = chunks
        self._finish_reclaims()

    def delete_unjournaled(self, key: str) -> None:
        # A dedup-store key no undo may bring back, buffered value included.
        self._deferred[TAG_DEDUP]._drop_pending(key)
        if self.raw.dedup.exists(key):
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
            for object_id, chunks in list(self._outstanding.items()):
                if not self.dedup.reading(object_id):
                    self.journal.reclaim(object_id, chunks)
                    del self._outstanding[object_id]
                    self.stats.reclaimed += 1
            if not self._outstanding:
                self.journal.keep_intents({})
        except EnclaveCrashed:
            raise
        except ReproError:
            pass

    def _commit_point(self) -> "contextlib.AbstractContextManager[None]":
        """The journal's commit record is one serial resource.

        Committing the batched guard nodes, flushing the write buffers
        (with their counter-incrementing anchor), and persisting the
        commit marker form the transaction's critical section: concurrent
        requests rendezvous here, so on a parallel clock overlapping
        writers pay each other's commit latency while readers stay
        unaffected.  On a serial clock this is a no-op.
        """
        return self._enclave.platform.clock.exclusive(
            "journal-commit", account="commit-wait"
        )

    def _seal_dedup_index(self) -> None:
        """Each changed dedup record, once per span, outside the commit section."""
        if self.dedup is not None:
            self.dedup.seal_index()

    def _begin_guard_batches(self) -> None:
        """Defer guard node/anchor persistence until the transaction commits.

        Safe because every transaction runs under an open undo-journal
        epoch: an abort rolls back the data writes the pending nodes
        describe, so dropping them is consistent.
        """
        for guard in self.guards:
            guard.begin_batch()

    def _commit_guard_batches(self) -> None:
        for guard in self.guards:
            guard.commit_batch()

    def _flush_deferred(self) -> None:
        total = 0
        for store in self._deferred:
            ops = store.flush()
            if ops:
                self.stats.flush_groups += 1
                self.stats.flushed_ops += ops
            total += ops
        self.stats.last_flush_ops = total

    def _apply_write_backs(self) -> None:
        if not self._write_backs:
            return
        pending, self._write_backs = self._write_backs, OrderedDict()
        if self.cache is not None:
            self.cache.apply(
                (namespace, key, value)
                for (namespace, key), value in pending.items()
            )
            self.stats.write_backs += len(pending)

    def _publish_coherence(self, label: str) -> None:
        """Publish the pending touched-key set as one coherence entry.

        An epoch close publishes the union its members pooled.  Runs
        strictly after the journal commit — the entry describes only durable
        state — and is skipped entirely when nothing was touched.  The
        crashpoint models the one new crash window the protocol adds:
        committed but unpublished, which takeover recovery heals with an
        authenticated reset entry.
        """
        if self.coherence is None:
            return
        touched = self._txn_touched | self._epoch_touched
        self._txn_touched = set()
        self._epoch_touched = set()
        if not touched:
            return
        self.journal.crashpoint("coherence:publish")
        self.coherence.publish(touched, label)

    # -- cache facade --------------------------------------------------------
    #
    # Callers never talk to the MetadataCache directly: reads go through
    # lookup/cached/fill, writers pair invalidate (before the store
    # mutation) with write_back (after it).  Inside a transaction the
    # write-through is deferred to commit; an abort clears the whole cache
    # via journal.on_restore, so read-path fills stay safe mid-span.

    def lookup(self, namespace: str, key: str) -> bytes | None:
        if self.cache is None:
            return None
        if self.coherence is not None:
            # Epoch check before every cache serve: one untrusted int
            # compare on the fast path; apply-or-discard on lag.
            self.coherence.sync()
        return self.cache.get(namespace, key)

    def cached(self, namespace: str, key: str) -> bool:
        if self.cache is None:
            return False
        if self.coherence is not None:
            self.coherence.sync()
        return self.cache.contains(namespace, key)

    def fill(self, namespace: str, key: str, value: bytes) -> None:
        """Read-path insertion of a just-verified value."""
        if self.cache is not None:
            self.cache.put(namespace, key, value)

    def invalidate(self, namespace: str, key: str) -> None:
        """Drop the entry before mutating: if the write or guard update
        faults part-way, the cache must not keep serving the old value
        over now-divergent storage.  A deferred write-back for the key is
        dropped too — a write-then-delete inside one transaction must not
        resurrect the entry at commit."""
        self._write_backs.pop((namespace, key), None)
        self._touch_coherence(namespace, key)
        if self.cache is not None:
            self.cache.discard(namespace, key)

    def write_back(self, namespace: str, key: str, value: bytes) -> None:
        """Write-through of a value just persisted by the caller.

        Deferred to commit while a transaction is open (the store write
        it mirrors is itself buffered); immediate otherwise.
        """
        self._touch_coherence(namespace, key)
        if self.cache is None:
            return
        if self.journal.active:
            self._write_backs.pop((namespace, key), None)
            self._write_backs[(namespace, key)] = value
        else:
            self.cache.put(namespace, key, value)

    def _touch_coherence(self, namespace: str, key: str) -> None:
        """Record a key the open transaction is mutating.

        Every cached-key mutation in the code base pairs ``invalidate``
        (before the store write) with ``write_back`` (after it), so
        capturing here makes the published invalidation set complete by
        construction.  Mutations outside a journal epoch (recovery,
        record re-reads triggered by a sync) are not captured: they do
        not change committed shared state from a peer's point of view.
        """
        if self.coherence is not None and self.journal.active:
            self._txn_touched.add((namespace, key))
