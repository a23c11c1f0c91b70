"""Rollback protection (paper Sections V-D and V-E).

Individual-file rollback protection builds a hash tree mirroring the
directory tree: every content file, ACL, and (empty) directory is a leaf;
every directory is an inner node.  Two optimizations from the paper are
implemented exactly:

* **multiset hashes** (MSet-XOR-Hash) replace plain hashes, so updating a
  child only subtracts the stale child hash and adds the new one — no
  sibling is ever touched on a write;
* **bucket hashes**: each inner node keeps ``B`` bucket multiset hashes,
  a child's bucket chosen by hashing its path.  Leaf validation then
  recomputes *one* bucket per tree level, reading only the files in that
  bucket — the measured effect in Fig. 5.

An inner node's *main hash* combines its path, the hash of its directory
file content (the children list), and its bucket digests.  The root main
hash is persisted in an anchor object; with whole-file-system protection
enabled (Section V-E) every update also increments a TEE monotonic
counter whose value is stored in the anchor, so replaying an old
*complete* file system (anchor included) is detected on the next read.

Guard node objects and the anchor live in the guarded store itself under
a NUL-prefixed namespace that user paths cannot reach; their freshness
needs no separate protection because each is authenticated by its
parent's bucket digest, up to the counter-protected root.

The paper calls protecting the group store "a straightforward adaption",
and the code says the same: :class:`_GuardCore` owns everything that
does not depend on the store's shape — key, batches, the counter-bound
anchor, leaf hashing, the restore checks — over one
:class:`~repro.core.file_manager.Mount`, and the two layouts add only
their node naming/encoding, node main hash, node locks, and the
update/verify walks: :class:`RollbackGuard` is the tree over the content
store, :class:`FlatStoreGuard` the single node over the group store.
"""

from __future__ import annotations

import hashlib
from contextlib import AbstractContextManager
from dataclasses import asdict, dataclass

from repro.core.acl import (
    GROUP_LIST_PATH,
    USER_REGISTRY_ID,
    MemberListFile,
    acl_path,
    member_list_path,
)
from repro.core.file_manager import Mount, TrustedFileManager
from repro.core.locks import LockManager
from repro.crypto import derive_key
from repro.crypto.mset_hash import MSetXorBuckets, Prf
from repro.errors import CounterError, RollbackDetected
from repro.fsmodel import DirectoryFile, parent
from repro.sgx.counters import MonotonicCounter, RoteCounterService
from repro.sgx.enclave import Enclave
from repro.util.serialization import Reader, Writer

ROOT = "/"


@dataclass
class GuardStats:
    """Counters for one guard, exposed via ``SeGShareServer.stats()``."""

    verifies: int = 0
    updates: int = 0
    node_saves: int = 0
    anchor_writes: int = 0
    batches: int = 0
    nodes_flushed: int = 0
    last_batch_nodes: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


class _GuardCore:
    """What both guards share, over one :class:`Mount`.

    ``counter`` enables whole-file-system protection; pass a
    :class:`MonotonicCounter` or :class:`RoteCounterService` plus the
    enclave that owns the counter.

    A node is whatever the layout decodes — anything with a ``copy()``.
    A layout class supplies ``_WHAT`` (for messages), ``_COUNTER_ID`` (its
    counter's name in the counter service), the two crashpoint ids,
    ``_node_path``/``_encode_node``/``_decode_node``, ``_node_main``,
    ``_node_lock``/``_anchor_lock`` (kept literal there: seglint reads
    lock names at the call site), ``_bootstrap``, and the public walks
    ``on_write``/``on_delete``/``verify_read``/``recompute_main``/
    ``rebuild``.
    """

    _WHAT: str
    _COUNTER_ID: str
    _NODE_WRITE: str
    _COUNTER_INCREMENTED: str

    def __init__(
        self,
        mount: Mount,
        key: bytes,
        buckets: int,
        enclave: Enclave,
        counter: "MonotonicCounter | RoteCounterService | None",
        locks: LockManager,
    ) -> None:
        self._mount = mount
        #: Every guard HMAC — bucket element, leaf main, node main — under the key.
        self._prf = Prf(key)
        self._buckets = buckets
        self._enclave = enclave
        self._counter = counter
        self._locks = locks
        #: With the counter service unreachable (ROTE quorum lost), reads
        #: may proceed on the hash chain alone; writes still fail because
        #: the anchor cannot be re-counted.  Set False to fail reads too.
        self.allow_degraded_reads = True
        #: Count of reads served without the counter freshness check.
        self.degraded_reads = 0
        self.stats = GuardStats()
        # Batch mode: node updates and the anchor write are deferred and
        # flushed once at commit — O(dirty nodes) instead of O(N·depth).
        self._batching = False
        self._pending_nodes: dict = {}
        self._pending_main: bytes | None = None
        if counter is not None and not counter.exists(self._COUNTER_ID):
            counter.create(enclave, self._COUNTER_ID)
        if not mount.raw_exists(self._node_path(ROOT)):
            self._bootstrap()

    # -- batched updates ------------------------------------------------------------
    #
    # Within a StorageEngine epoch, every on_write/on_delete still updates
    # the nodes — but the updated nodes accumulate in enclave memory and
    # the anchor write (with its monotonic-counter increment) is deferred.
    # commit_batch() then persists each dirty node once and the anchor
    # once, at the epoch's close.  Reads *inside* the batch verify against
    # the pending in-enclave root (enclave memory is fresh by definition);
    # the counter check resumes with the close's anchor write.  Until then
    # the committed members' redo record carries the pending root, so a
    # crash rebuilds the nodes from the data and checks them against it.

    def begin_batch(self) -> None:
        if self._batching:
            return
        self._batching = True
        self._pending_nodes = {}
        self._pending_main = None

    def commit_batch(self) -> None:
        """Flush dirty nodes and the deferred anchor; leaves batch mode.

        A failure part-way keeps the batch, so the next close writes all
        of it again.
        """
        if not self._batching:
            return
        self._batching = False
        try:
            for dir_path, node in self._pending_nodes.items():
                self._save_node(dir_path, node)
            if self._pending_main is not None:
                self._write_anchor(self._pending_main)
        except BaseException:
            self._batching = True
            raise
        nodes = len(self._pending_nodes)
        self._pending_nodes, self._pending_main = {}, None
        self.stats.batches += 1
        self.stats.nodes_flushed += nodes
        self.stats.last_batch_nodes = nodes

    def abort_batch(self) -> None:
        """Drop pending state without persisting (an epoch no member committed in)."""
        self._batching = False
        self._pending_nodes = {}
        self._pending_main = None

    # -- group-commit epoch support ------------------------------------------------
    #
    # During an epoch the batch stays open across K member transactions;
    # aborting one member must rewind the in-enclave pending state to
    # where that member started without touching earlier members' nodes.

    def snapshot_pending(self) -> tuple[dict, bytes | None]:
        """Deep-copy the pending batch state (taken at member begin)."""
        return (
            {path: node.copy() for path, node in self._pending_nodes.items()},
            self._pending_main,
        )

    def restore_pending(self, snap: tuple[dict, bytes | None]) -> None:
        """Rewind the pending batch state to a member-begin snapshot."""
        nodes, main = snap
        self._batching = True
        # Copied again: the snapshot stays good for a second rewind.
        self._pending_nodes = {path: node.copy() for path, node in nodes.items()}
        self._pending_main = main

    def pending_root(self) -> bytes:
        """The root main hash the open batch will anchor; empty if none is pending."""
        return (self._pending_main or b"") if self._batching else b""

    # -- hashing -------------------------------------------------------------------

    def _charge_hash(self, nbytes: int) -> None:
        self._enclave.charge(
            self._enclave.platform.costs.hash_time(nbytes), account="rollback"
        )

    def _leaf_main(self, path: str, content_hash: bytes) -> bytes:
        self._charge_hash(len(path) + len(content_hash))
        return self._prf(b"leaf\x00" + path.encode("utf-8") + b"\x00" + content_hash)

    def _bucket_of(self, child_path: str) -> int:
        digest = hashlib.sha256(child_path.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") % self._buckets

    # -- node persistence --------------------------------------------------------------

    def _crashpoint(self, site: str) -> None:
        self._enclave.platform.crashpoint(site)

    def _load_node(self, dir_path: str = ROOT):
        if self._batching:
            pending = self._pending_nodes.get(dir_path)
            if pending is not None:
                return pending
        # A copy of the cache entry's slot: what the entry's own bytes decode
        # to, whatever their age, so the slot assumes nothing about freshness.
        # A node the close wrote is there with its main.
        return self._mount.raw_read(self._node_path(dir_path), self._decode_node).copy()

    def _save_node(self, dir_path: str, node) -> None:
        if self._batching:
            self._pending_nodes[dir_path] = node
            return
        self._crashpoint(self._NODE_WRITE)
        # Kept with its main in the entry's slot: the next epoch neither
        # decodes nor re-hashes it.
        self._mount.raw_write(
            self._node_path(dir_path), self._encode_node(node), (self._decode_node, node.copy())
        )
        self.stats.node_saves += 1

    def root_hash(self) -> bytes:
        """Main hash of the stored (or pending) root node."""
        return self._node_main(self._load_node(ROOT))

    # -- anchor ---------------------------------------------------------------------------

    def _write_anchor(self, main: bytes) -> None:
        if self._batching:
            self._pending_main = main
            return
        with self._anchor_lock():
            counter_value = 0
            if self._counter is not None:
                counter_value = self._counter.increment(self._enclave, self._COUNTER_ID)
                # The window a cluster failover must close: the quorum
                # already advanced but the anchor naming the new value is
                # not yet persisted.  A successor's recovery re-applies the
                # redo record and rebuilds the tree, re-counting the anchor.
                self._crashpoint(self._COUNTER_INCREMENTED)
            blob = Writer().bytes(main).u64(counter_value).take()
            self._mount.raw_write(self._mount.guard_prefix + "anchor", blob)
        self.stats.anchor_writes += 1

    def _read_anchor(self) -> tuple[bytes, int]:
        r = Reader(self._mount.raw_read(self._mount.guard_prefix + "anchor"))
        main = r.bytes()
        counter_value = r.u64()
        r.expect_end()
        return main, counter_value

    def _verify_anchor(self, main: bytes) -> None:
        if self._batching and self._pending_main is not None:
            # Mid-batch, the persisted anchor is stale by design: the
            # authoritative root lives in enclave memory until commit.
            # Enclave memory needs no counter freshness check.
            if main != self._pending_main:
                raise RollbackDetected(
                    f"{self._WHAT} root hash does not match the pending anchor"
                )
            return
        stored_main, stored_counter = self._read_anchor()
        if stored_main != main:
            raise RollbackDetected(f"{self._WHAT} root hash does not match the anchored value")
        if self._counter is not None:
            try:
                current = self._counter.read(self._enclave, self._COUNTER_ID)
            except CounterError:
                if not self.allow_degraded_reads:
                    raise
                # Degraded mode: the hash chain above already authenticated
                # the state; only the whole-FS freshness bound is lost.
                self.degraded_reads += 1
                return
            if stored_counter != current:
                raise RollbackDetected(
                    f"{self._WHAT} rolled back: anchor counter "
                    f"{stored_counter} != TEE counter {current}"
                )

    # -- maintenance ---------------------------------------------------------------------------

    def verify_restored_state(self) -> None:
        """Check a restored store's internal consistency (paper §V-G).

        The main hash recomputed from the stored files must match both
        the restored anchor's value and the restored root node — i.e. the
        store is one complete, untampered snapshot, not a mix of two.
        Crash recovery runs this too: a host that kills the enclave
        mid-batch and swaps in older objects is caught here, before the
        re-anchor would bless them.  The counter is *not* checked; the
        caller re-anchors afterwards with :meth:`accept_current_state`.
        """
        recomputed = self.recompute_main()
        stored_main, _ = self._read_anchor()
        if recomputed != stored_main or recomputed != self.root_hash():
            raise RollbackDetected(f"restored {self._WHAT} is internally inconsistent")

    def accept_current_state(self) -> None:
        """Re-anchor the *current* storage state (CA-authorized reset, §V-G).

        Recomputes nothing — the stored nodes are taken as-is and the
        anchor (plus counter) is rewritten to match them.  Only recovery
        and the backup-restore flow may call this, after
        :meth:`verify_restored_state`.
        """
        self._write_anchor(self.root_hash())

    def verify_anchor_fresh(self) -> None:
        """Prove the anchor is both ours and *fresh* — degraded mode off.

        A replica catching up after join (or takeover) must not start
        serving from a rolled-back snapshot just because the quorum is
        momentarily unreachable, so this check refuses the degraded-read
        escape hatch that normal reads are allowed.
        """
        saved, self.allow_degraded_reads = self.allow_degraded_reads, False
        try:
            self._verify_anchor(self.root_hash())
        finally:
            self.allow_degraded_reads = saved


@dataclass
class _Node:
    """Inner-node state for one directory."""

    path: str
    dir_hash: bytes
    buckets: MSetXorBuckets
    #: The main hash last computed from the fields above; a change clears it,
    #: and the write walks take it as a node's "before" main.
    main: bytes | None = None

    def copy(self) -> "_Node":
        return _Node(self.path, self.dir_hash, self.buckets.copy(), self.main)

    def update(self, bucket: int, old: bytes | None, new: bytes | None) -> None:
        self.buckets.update(bucket, old, new)
        self.main = None


class RollbackGuard(_GuardCore):
    """The hash tree over the content store."""

    _WHAT = "file system"
    _COUNTER_ID = "segshare-fs"
    _NODE_WRITE = "anchor:fs-node-write"
    _COUNTER_INCREMENTED = "anchor:fs-counter-incremented"

    def __init__(
        self,
        manager: TrustedFileManager,
        root_key: bytes,
        enclave: Enclave,
        locks: LockManager,
        buckets: int = 64,
        counter: "MonotonicCounter | RoteCounterService | None" = None,
    ) -> None:
        key = derive_key(root_key, "segshare/rollback")
        super().__init__(manager.content, key, buckets, enclave, counter, locks)

    # -- node naming, encoding, main hash ----------------------------------------------

    def _node_path(self, dir_path: str) -> str:
        return self._mount.guard_prefix + "node:" + dir_path

    def _encode_node(self, node: _Node) -> bytes:
        return Writer().str(node.path).bytes(node.dir_hash).raw(node.buckets.serialize()).take()

    def _decode_node(self, data: bytes) -> _Node:
        r = Reader(data)
        return _Node(r.str(), r.bytes(), MSetXorBuckets.deserialize(self._prf, r.raw(r.remaining)))

    def _node_main(self, node: _Node) -> bytes:
        self._charge_hash(64 + 40 * len(node.buckets))
        node.main = self._prf(b"node\x00" + node.path.encode("utf-8") + b"\x00" + node.dir_hash + node.buckets.digests())
        return node.main

    # -- locks ---------------------------------------------------------------------------

    # Sharded node locks: concurrent requests updating disjoint files
    # still meet at shared inner nodes (every write propagates to the
    # root), so each node's load-modify-save runs under a serial shard
    # keyed by the node's path.  Node *reads* on the verify path ride on
    # the request-level path locks — a native implementation would use
    # per-node reader-writer locks there, and exclusive read-side shards
    # would serialize the disjoint-read fast path this model exists to
    # exhibit.

    def _node_lock(self, dir_path: str) -> AbstractContextManager[None]:
        """The serial shard guarding one inner node's load-modify-save."""
        digest = hashlib.sha256(dir_path.encode("utf-8")).digest()
        return self._locks.shard("rb-node", int.from_bytes(digest[:4], "big"))

    def _anchor_lock(self) -> AbstractContextManager[None]:
        """The anchor write — and its counter increment — is one serial
        resource for the whole file system."""
        return self._locks.serial("rb-anchor", account="anchor-wait")

    # -- node persistence --------------------------------------------------------------

    def _empty_node(self, dir_path: str, dir_hash: bytes) -> _Node:
        return _Node(dir_path, dir_hash, MSetXorBuckets.empty(self._prf, self._buckets))

    def _delete_node(self, dir_path: str) -> None:
        """Remove a directory's node (pending copy and persisted object)."""
        if self._batching:
            self._pending_nodes.pop(dir_path, None)
        node_path = self._node_path(dir_path)
        if self._mount.raw_exists(node_path):
            self._crashpoint("anchor:fs-node-delete")
            self._mount.raw_delete(node_path)

    def _node_exists(self, dir_path: str) -> bool:
        if self._batching and dir_path in self._pending_nodes:
            return True
        return self._mount.raw_exists(self._node_path(dir_path))

    def _bootstrap(self) -> None:
        """First-ever start: anchor the current (normally empty) root directory.

        Enabling the guard over a store that already contains user files is
        a migration, not a bootstrap — the tree must be built with
        :meth:`rebuild` in that case.
        """
        if self._mount.raw_exists(ROOT):
            root_dir_data = self._mount.raw_read(ROOT)
        else:
            root_dir_data = DirectoryFile().serialize()
        root = self._empty_node(ROOT, hashlib.sha256(root_dir_data).digest())
        self._save_node(ROOT, root)
        self._write_anchor(self._node_main(root))

    def rebuild(self) -> None:
        """Rebuild the whole tree from current storage and re-anchor it.

        Used when enabling rollback protection on an existing share and by
        epoch crash recovery, whose stored nodes predate the committed
        members.
        """
        self._walk_dir(ROOT, save=True)
        self._write_anchor(self.root_hash())

    # -- update hooks (called by the mount) ---------------------------------------------------

    def on_write(self, path: str, new_hash: bytes, old_hash: bytes | None) -> None:
        """A file at ``path`` now has content hash ``new_hash``."""
        self.stats.updates += 1
        if path.endswith("/"):
            self._on_dir_write(path, new_hash, old_hash)
        else:
            old_main = self._leaf_main(path, old_hash) if old_hash is not None else None
            new_main = self._leaf_main(path, new_hash)
            self._propagate(parent(path), path, old_main, new_main)

    def on_delete(self, path: str, old_hash: bytes) -> None:
        self.stats.updates += 1
        if path.endswith("/"):
            node = self._load_node(path)
            old_main = node.main or self._node_main(node)
            self._delete_node(path)
            self._propagate(parent(path), path, old_main, None)
        else:
            self._propagate(parent(path), path, self._leaf_main(path, old_hash), None)

    def _on_dir_write(self, path: str, new_hash: bytes, old_hash: bytes | None) -> None:
        with self._node_lock(path):
            if self._node_exists(path):
                node = self._load_node(path)
                old_main = node.main or self._node_main(node)
                node.dir_hash, node.main = new_hash, None
            else:
                node = self._empty_node(path, new_hash)
                old_main = None
            self._save_node(path, node)
            new_main = self._node_main(node)
        if path == ROOT:
            self._write_anchor(new_main)
        else:
            self._propagate(parent(path), path, old_main, new_main)

    def _propagate(
        self,
        dir_path: str,
        child_path: str,
        old_child_main: bytes | None,
        new_child_main: bytes | None,
    ) -> None:
        """Apply a child-main change at ``dir_path`` and walk to the root.

        This is the paper's O(depth) incremental update: one bucket
        subtract/add per level, no sibling access.
        """
        while True:
            with self._node_lock(dir_path):
                node = self._load_node(dir_path)
                old_main = node.main or self._node_main(node)
                node.update(self._bucket_of(child_path), old_child_main, new_child_main)
                self._save_node(dir_path, node)
                new_main = self._node_main(node)
            if dir_path == ROOT:
                self._write_anchor(new_main)
                return
            child_path = dir_path
            old_child_main, new_child_main = old_main, new_main
            dir_path = parent(dir_path)

    # -- verification (called on every guarded read) -----------------------------------------

    def _member_main(self, member: str, target: str, target_main: bytes) -> bytes:
        """Main hash of one bucket member, substituting the target's hash."""
        if member == target:
            return target_main
        if member.endswith("/"):
            return self._node_main(self._load_node(member))
        data = self._mount.raw_read(member)
        self._charge_hash(len(data))
        return self._leaf_main(member, hashlib.sha256(data).digest())

    def _bucket_members(self, node: _Node, bucket: int) -> list[str]:
        """All *present* children of ``node`` falling into ``bucket``.

        Children are the directory file's entries plus each entry's ACL —
        the leaf/inner population of the paper's Fig. 2.  Listed-but-
        missing files are skipped: an attacker deleting a file cannot hide
        it (its main hash is still in the stored bucket, so recomputation
        mismatches), and multi-step operations like move may transiently
        leave a listing ahead of the object it names.  The bucket test
        comes first: only the ~1/B of candidates in ``bucket`` are
        looked up in storage.
        """
        directory = DirectoryFile.deserialize(self._mount.raw_read(node.path))
        members = []
        for child in directory.children:
            for candidate in (child, acl_path(child)):
                if self._bucket_of(candidate) != bucket:
                    continue
                if candidate.endswith("/"):
                    present = self._node_exists(candidate)
                else:
                    present = self._mount.raw_exists(candidate)
                if present:
                    members.append(candidate)
        return members

    def verify_read(self, path: str, content_hash: bytes) -> None:
        """Validate freshness of ``path`` against the hash-tree chain.

        Per level, recompute exactly one bucket hash from the files in
        that bucket and compare against the inner node's stored digest;
        finally compare the root main hash (and counter) with the anchor.
        """
        self.stats.verifies += 1
        child = path
        if path.endswith("/"):
            node = self._load_node(path)
            if node.dir_hash != content_hash:
                raise RollbackDetected(f"directory file {path!r} is stale")
            child_main = self._node_main(node)
            if path == ROOT:
                self._verify_anchor(child_main)
                return
        else:
            child_main = self._leaf_main(path, content_hash)

        dir_path = parent(child)
        while True:
            node = self._load_node(dir_path)
            bucket = self._bucket_of(child)
            members = self._bucket_members(node, bucket)
            recomputed = MSetXorBuckets.empty(self._prf, 1)
            for member in members:
                recomputed.update(0, None, self._member_main(member, child, child_main))
            if child not in members or recomputed.digest(0) != node.buckets.digest(bucket):
                raise RollbackDetected(
                    f"bucket hash mismatch for {child!r} under {dir_path!r}: "
                    "a file in this bucket was rolled back or removed"
                )
            child = dir_path
            child_main = self._node_main(node)
            if dir_path == ROOT:
                self._verify_anchor(child_main)
                return
            dir_path = parent(dir_path)

    # -- maintenance ---------------------------------------------------------------------------

    def recompute_main(self) -> bytes:
        """Full recomputation of the root main hash from storage, without
        modifying any node — the consistency check of the restore flows."""
        return self._walk_dir(ROOT, save=False)

    def _walk_dir(self, dir_path: str, save: bool) -> bytes:
        """Recompute one directory's node bottom-up; optionally persist it."""
        dir_data = self._mount.raw_read(dir_path)
        node = self._empty_node(dir_path, hashlib.sha256(dir_data).digest())
        directory = DirectoryFile.deserialize(dir_data)
        for child in directory.children:
            for candidate in (child, acl_path(child)):
                if candidate.endswith("/"):
                    main = self._walk_dir(candidate, save)
                elif self._mount.raw_exists(candidate):
                    data = self._mount.raw_read(candidate)
                    main = self._leaf_main(candidate, hashlib.sha256(data).digest())
                else:
                    continue
                node.update(self._bucket_of(candidate), None, main)
        if save:
            self._save_node(dir_path, node)
        return self._node_main(node)


class FlatStoreGuard(_GuardCore):
    """Rollback protection for the group store.

    The group store is flat — the group list, the user registry, and one
    member list per user — so the tree degenerates to a single inner node
    (a bare bucket list, stored under ``ROOT``'s name) with bucket
    multiset hashes over all leaves.  Leaf enumeration comes from the
    user registry (itself a protected leaf, so a stale registry is caught
    like any other leaf).
    """

    _WHAT = "group store"
    _COUNTER_ID = "segshare-group"
    _NODE_WRITE = "anchor:group-node-write"
    _COUNTER_INCREMENTED = "anchor:group-counter-incremented"

    def __init__(
        self,
        manager: TrustedFileManager,
        root_key: bytes,
        enclave: Enclave,
        locks: LockManager,
        buckets: int = 64,
        counter: "MonotonicCounter | RoteCounterService | None" = None,
    ) -> None:
        key = derive_key(root_key, "segshare/rollback-group")
        super().__init__(manager.group, key, buckets, enclave, counter, locks)

    # -- node naming, encoding, main hash ----------------------------------------------

    def _node_path(self, dir_path: str) -> str:
        return self._mount.guard_prefix + "node"

    _encode_node = staticmethod(MSetXorBuckets.serialize)

    def _decode_node(self, data: bytes) -> MSetXorBuckets:
        return MSetXorBuckets.deserialize(self._prf, data)

    def _node_main(self, buckets: MSetXorBuckets) -> bytes:
        return self._prf(b"flatnode\x00" + buckets.digests())

    def _charge_hash(self, nbytes: int) -> None:
        """This guard's hashing has never been charged to the clock;
        starting to is a benchmark-visible change of its own."""

    # -- locks ---------------------------------------------------------------------------

    def _node_lock(self) -> AbstractContextManager[None]:
        """One inner node, so a single serial lock instead of shards."""
        return self._locks.serial("rbg-node", account="guard-shard-wait")

    def _anchor_lock(self) -> AbstractContextManager[None]:
        return self._locks.serial("rbg-anchor", account="anchor-wait")

    # -- leaves ----------------------------------------------------------------------------

    def _leaves(self, bucket: int | None = None) -> list[str]:
        """All guarded group-store files: group list, registry, member lists.

        Enumerated through the user registry so the list works under path
        hiding too (storage keys are HMACs and cannot be enumerated).
        With ``bucket``, only the files falling into it — filtered before
        the existence check, so a verify looks up ~1/B of them.
        """
        registry_path = member_list_path(USER_REGISTRY_ID)
        candidates = [GROUP_LIST_PATH, registry_path]
        if self._mount.raw_exists(registry_path):
            registry = MemberListFile.deserialize(self._mount.raw_read(registry_path))
            candidates += [member_list_path(user_id) for user_id in registry.groups]
        return [
            path
            for path in candidates
            if (bucket is None or self._bucket_of(path) == bucket)
            and self._mount.raw_exists(path)
        ]

    def _stored_leaf_main(self, path: str) -> bytes:
        data = self._mount.raw_read(path)
        return self._leaf_main(path, hashlib.sha256(data).digest())

    def _recompute_buckets(self) -> MSetXorBuckets:
        buckets = MSetXorBuckets.empty(self._prf, self._buckets)
        for path in self._leaves():
            buckets.update(self._bucket_of(path), None, self._stored_leaf_main(path))
        return buckets

    # -- maintenance ---------------------------------------------------------------------------

    def recompute_main(self) -> bytes:
        """Recompute the node main hash from stored group files, writing
        nothing — the consistency check of the restore flows."""
        return self._node_main(self._recompute_buckets())

    def rebuild(self) -> None:
        """Recompute the node from the stored group files and re-anchor it."""
        buckets = self._recompute_buckets()
        self._save_node(ROOT, buckets)
        self._write_anchor(self._node_main(buckets))

    def _bootstrap(self) -> None:
        self.rebuild()

    # -- hooks ----------------------------------------------------------------------

    def on_write(self, path: str, new_hash: bytes, old_hash: bytes | None) -> None:
        old_main = self._leaf_main(path, old_hash) if old_hash is not None else None
        self._update(path, old_main, self._leaf_main(path, new_hash))

    def on_delete(self, path: str, old_hash: bytes) -> None:
        self._update(path, self._leaf_main(path, old_hash), None)

    def _update(self, path: str, old_main: bytes | None, new_main: bytes | None) -> None:
        self.stats.updates += 1
        with self._node_lock():
            buckets = self._load_node()
            buckets.update(self._bucket_of(path), old_main, new_main)
            self._save_node(ROOT, buckets)
        self._write_anchor(self._node_main(buckets))

    def verify_read(self, path: str, content_hash: bytes) -> None:
        """Recompute ``path``'s bucket from all group files in it and check
        it against the anchored node."""
        self.stats.verifies += 1
        buckets = self._load_node()
        target_bucket = self._bucket_of(path)
        members = self._leaves(target_bucket)
        recomputed = MSetXorBuckets.empty(self._prf, 1)
        for member in members:
            main = self._leaf_main(member, content_hash) if member == path else self._stored_leaf_main(member)
            recomputed.update(0, None, main)
        if path not in members or recomputed.digest(0) != buckets.digest(target_bucket):
            raise RollbackDetected(
                f"group store bucket mismatch for {path!r}: a member list or "
                "the group list was rolled back"
            )
        self._verify_anchor(self._node_main(buckets))
