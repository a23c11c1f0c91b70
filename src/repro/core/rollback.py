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
file content (the children list), and its bucket digests.

The paper calls protecting the group store "a straightforward adaption",
and the code says the same: :class:`_GuardCore` owns what does not depend
on the store's shape — key, batches, leaf hashing, the restore check —
over one :class:`~repro.core.file_manager.Mount`, and the two layouts add
their node naming/encoding, node main hash, node locks and walks:
:class:`RollbackGuard` is the tree over the content store,
:class:`FlatStoreGuard` the single node over the group store.

Both are rooted in one :class:`FileSystemAnchor` (Section V-E): a sealed
record naming both roots and the one TEE monotonic counter's value,
written by each epoch close (a guard walk runs only inside an epoch) and
each re-anchor.  Replaying a whole old file system (anchor included)
fails the counter check; replaying one store, or an older anchor, fails
a root the anchor names.  Guard nodes and the anchor live under a
NUL-prefixed namespace user paths cannot reach; each node is
authenticated by its parent's bucket digest up to the anchor.
"""

from __future__ import annotations

import hashlib
from contextlib import AbstractContextManager
from dataclasses import asdict, dataclass
from typing import Callable

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
from repro.errors import CounterError, EnclaveError, RollbackDetected
from repro.fsmodel import DirectoryFile, parent
from repro.sgx.counters import MonotonicCounter, RoteCounterService
from repro.sgx.enclave import Enclave
from repro.util.serialization import Reader, Writer

ROOT = "/"
#: The one TEE monotonic counter, bound to the anchor.
COUNTER_ID = "segshare-fs"
#: Each guard's root slot in the anchor.
FS_SLOT, GROUP_SLOT = 0, 1
Mains = tuple[bytes, bytes]


@dataclass
class GuardStats:
    """Counters for one guard, exposed via ``SeGShareServer.stats()``."""

    verifies: int = 0
    updates: int = 0
    node_saves: int = 0
    batches: int = 0
    nodes_flushed: int = 0
    last_batch_nodes: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


def _decode_anchor(data: bytes) -> tuple[Mains, int]:
    r = Reader(data)
    record = (r.bytes(), r.bytes()), r.u64()
    r.expect_end()
    return record


def stored_anchor(mount: Mount) -> tuple[Mains, int] | None:
    """The stored anchor record, unverified; None if there is none."""
    key = mount.guard_prefix + "anchor"
    return mount.raw_read(key, _decode_anchor) if mount.raw_exists(key) else None


class FileSystemAnchor:
    """The one file-system anchor (paper §V-E) both guards verify against:
    a sealed record of the content tree's root main, the group node's (empty
    without a group guard) and the counter value, incremented by every write
    when ``counter`` is given.  An epoch's close keeps a clean guard's root
    from the record it opened on, proven fresh (one epoch holder at a time,
    even in a cluster) by counting to one past it."""

    def __init__(
        self, manager: TrustedFileManager, enclave: Enclave, locks: LockManager,
        counter: "MonotonicCounter | RoteCounterService | None" = None,
    ) -> None:
        self._mount, self._engine = manager.content, manager.engine
        self._key = manager.content.guard_prefix + "anchor"
        self.enclave, self.locks, self.counter = enclave, locks, counter
        self.guards: list = []  # in slot order
        self.writes = 0
        #: Reads served on the hash chain alone while the counter service is
        #: unreachable (ROTE quorum lost); writes still fail, because the
        #: anchor cannot be re-counted.
        self.degraded_reads = 0
        #: The record this enclave last wrote, until storage may have moved
        #: on (:meth:`forget`): with a metadata cache, which a cluster keeps
        #: coherent, an epoch opens on it without a read.  A stale one costs
        #: that epoch's close, never freshness.
        self._last: tuple[Mains, int] | None = None
        #: This enclave's increment that no anchor names yet (a write that
        #: failed after it, or a crashed one's that recovery found): the
        #: next write names it instead of counting again, so a failure in
        #: the same window leaves the same state again.
        self._counted: int | None = None
        #: A close in flight (:meth:`land`): the roots it anchors, the record it opened on.
        self._pending: tuple[Mains, tuple[Mains, int]] | None = None
        if counter is not None and not counter.exists(COUNTER_ID):
            counter.create(enclave, COUNTER_ID)
        manager.engine.anchor = self

    def attach(self, guard: "_GuardCore") -> None:
        self.guards = sorted([*self.guards, guard], key=lambda each: each._SLOT)

    def _by_slot(self, main: "Callable[[_GuardCore], bytes]") -> list[bytes]:
        """``main`` of each slot's guard; empty where no guard holds it."""
        mains = [b"", b""]
        for guard in self.guards:
            mains[guard._SLOT] = main(guard)
        return mains

    def read(self) -> tuple[Mains, int]:
        """The stored (mains, counter value), unverified."""
        return self._mount.raw_read(self._key, _decode_anchor)

    def probe(self) -> int:
        """The TEE counter's value (0 without whole-FS protection)."""
        return self.counter.read(self.enclave, COUNTER_ID) if self.counter is not None else 0

    def boot(self, rekeyed: bool = False) -> None:
        """Start, deciding before anything is written.  With an anchor, each
        guard's node must be there.  Without, a first start (or its crash:
        the counter at most one on; ``rekeyed``, a rotation wiped the anchor)
        builds both nodes and anchors them in one write; past that, refuse."""
        if self._mount.raw_exists(self._key):
            for guard in self.guards:
                if not guard._mount.raw_exists(guard._node_path(ROOT)):
                    raise RollbackDetected(f"the {guard._WHAT} node is missing but anchored")
            return
        lagging = 0 if rekeyed else self.probe()
        if lagging > 1:
            raise RollbackDetected(f"the anchor is missing at TEE counter {lagging}")
        for guard in self.guards:
            guard.rebuild_nodes()
        self._counted = lagging or None
        self.write_roots(self._by_slot(lambda guard: guard.root_hash()))

    def write_roots(self, mains: list[bytes], opened: "tuple[Mains, int] | None" = None) -> None:
        """One anchor write naming both ``mains``; an epoch's close passes
        the record it ``opened`` on, which the count must prove fresh."""
        with self.locks.serial("rb-anchor", account="anchor-wait"):
            if self._counted is None and self.counter is not None:
                self._counted = self.counter.increment(self.enclave, COUNTER_ID)
            counter_value = self._counted or 0
            if opened is not None and self.counter is not None and counter_value != opened[1] + 1:
                raise RollbackDetected(f"file system rolled back: epoch opened at {opened[1]}, TEE at {counter_value}")
            fs_main, group_main = mains
            record = (fs_main, group_main), counter_value
            blob = Writer().bytes(fs_main).bytes(group_main).u64(counter_value).take()
            self._mount.raw_write(self._key, blob, (_decode_anchor, record))
            self._last, self._counted = record, None
        self.writes += 1

    def verify(self, guard: "_GuardCore", main: bytes, strict: bool = False) -> None:
        """``main`` is ``guard``'s anchored root and the anchor is fresh;
        with the counter unreachable a read proceeds on the hash chain alone
        unless ``strict``; a close in flight names the root, fresh while the
        TEE is at its opening count or one on."""
        mains, stored = (self._pending[0], self._pending[1][1]) if self._pending else self.read()
        if mains[guard._SLOT] != main:
            raise RollbackDetected(f"{guard._WHAT} root hash does not match the anchored value")
        try:
            current = self.probe()
        except CounterError:
            if strict:
                raise
            # Degraded mode: the hash chain above already authenticated the
            # state; only the whole-FS freshness bound is lost.
            self.degraded_reads += 1
            return
        if current != stored and not (self._pending and current == stored + 1):
            raise RollbackDetected(f"{guard._WHAT} rolled back: anchor counter {stored} != TEE counter {current}")

    def forget(self) -> None:
        """Storage may hold a newer record (a peer's close, a restore)."""
        self._last = None

    def verify_fresh(self) -> None:
        """Prove every root anchored and the anchor fresh, degraded mode off:
        a replica catching up after join or takeover, whatever the quorum."""
        for guard in self.guards:
            self.verify(guard, guard.root_hash(), strict=True)

    # -- the epoch -------------------------------------------------------------------
    #
    # Within an epoch the walks update nodes in enclave memory and reads
    # verify against the pending root; the close writes each dirty node
    # (commit_batch) and then the anchor (land), which a pipelined close
    # leaves in flight.  Until it lands the members' redo records carry the
    # roots, so a crash rebuilds the nodes from the data and checks them.

    def begin_batch(self) -> tuple[Mains, int]:
        """Open an epoch on the latest anchor record (a close in flight's); that record."""
        opened = (self._pending[0], self._pending[1][1] + (self.counter is not None)) if self._pending else (
            self._last if self._last and self._engine.cache is not None else self.read())
        for guard in self.guards:
            guard.begin_batch()
        return opened

    def pending_roots(self) -> Mains:
        """The pending roots, for the redo record; a clean guard's is a close in flight's."""
        fs_main, group_main = self._by_slot(lambda guard: guard.pending_root())
        landing = self._pending[0] if self._pending else (b"", b"")
        return fs_main or landing[0], group_main or landing[1]

    def commit_batch(self, opened: tuple[Mains, int]) -> None:
        """The close of the epoch ``opened`` on that record: each guard
        writes its dirty nodes, and the anchor write that names both roots
        is in flight until :meth:`land`.  A node write's failure keeps every
        batch, so the next close writes all of it again."""
        mains = self._by_slot(lambda guard: guard.commit_batch())
        if any(mains):
            self._pending = (mains[0] or opened[0][0], mains[1] or opened[0][1]), opened
        self.end_batch(flushed=True)

    def land(self) -> None:
        """A close in flight's counter increment and anchor write; a failure keeps it."""
        if self._pending:
            self.write_roots(list(self._pending[0]), self._pending[1])
            self._pending = None

    def end_batch(self, flushed: bool = False) -> None:
        """Leave the epoch; without ``flushed``, drop what it pended."""
        for guard in self.guards:
            guard.end_batch(flushed)

    # -- re-anchors ------------------------------------------------------------------

    def accept_current_state(self) -> None:
        """Re-anchor the *current* storage state (CA-authorized reset, §V-G):
        the stored roots as they are, after each guard's
        :meth:`_GuardCore.verify_restored_state`."""
        self.write_roots(self._by_slot(lambda guard: guard.root_hash()))

    def repair(self, mains: "Mains | None", epoch_counter: int = 0) -> None:
        """Bring the guards in line with the stored data, re-anchored at most once.

        With a recovered redo record's ``mains`` and ``epoch_counter``, a root
        the anchor does not name yet is checked against the data (a
        pre-revocation member list must not be blessed) and its nodes rebuilt;
        a clean guard keeps its anchored root, from the TEE's latest anchor or
        one an increment behind (a close, the record's epoch's or the one before,
        crashed in the counter's window; the re-anchor names that increment);
        an anchor naming the record's roots is the close's own.  Without a
        record (a backup restore) each store is checked and re-anchored."""
        if mains is None:
            for guard in self.guards:
                guard.verify_restored_state()
            self.accept_current_state()
            return
        if mains == (b"", b""):
            return
        anchored, stored = self.read()
        current = self.probe()
        if stored != current and not (current == stored + 1 and epoch_counter in (stored, current)):
            raise RollbackDetected(f"file system rolled back: anchor counter {stored} != TEE counter {current}")
        for guard in self.guards:
            main = mains[guard._SLOT]
            if main and main != anchored[guard._SLOT]:
                if guard.recompute_main() != main:
                    raise RollbackDetected(f"recovered {guard._WHAT} state does not match the epoch's redo record")
                guard.rebuild_nodes()
        roots = [main or kept for main, kept in zip(mains, anchored)]
        self._counted = current if stored != current else None
        if self._counted is not None or roots != list(anchored):
            self.write_roots(roots)


class _GuardCore:
    """What both guards share, over one :class:`~repro.core.file_manager.Mount`.

    A node is whatever the layout decodes — anything with a ``copy()``.
    A layout supplies ``_WHAT`` (for messages), ``_SLOT``,
    ``_node_path``/``_encode_node``/``_decode_node``,
    ``_node_main``, ``_node_lock`` (kept literal there: seglint reads lock
    names at the call site), and the walks
    ``on_write``/``on_delete``/``verify_read``/``recompute_main``/
    ``rebuild_nodes``.
    """

    _WHAT: str
    _SLOT: int

    def __init__(self, mount, key: bytes, buckets: int, anchor: FileSystemAnchor) -> None:
        self._mount = mount
        #: Every guard HMAC — bucket element, leaf main, node main — under the key.
        self._prf = Prf(key)
        self._buckets = buckets
        self.anchor = anchor
        self._enclave, self._locks = anchor.enclave, anchor.locks
        self.stats = GuardStats()
        # The epoch's batch: dirty nodes and the root stay in enclave memory
        # until its close — O(dirty nodes) instead of O(N·depth).  No map
        # outside an epoch, where a walk is refused.  A batch outlives a
        # poisoned journal's epoch: the enclave's reads go on verifying
        # against its pending root.
        self._pending_nodes: dict | None = None
        self._pending_main: bytes | None = None
        anchor.attach(self)

    # -- batches: an epoch's, rewound per aborted member ------------------------------

    def begin_batch(self) -> None:
        if self._pending_nodes is None:
            self._pending_nodes = {}

    def commit_batch(self) -> bytes:
        """Write the batch's dirty nodes; the root they need anchored (empty
        if none).  The batch stays open until the anchor names it."""
        for dir_path, node in (self._pending_nodes or {}).items():
            self._write_node(dir_path, node)
        return self.pending_root()

    def end_batch(self, flushed: bool = False) -> None:
        """Leave batch mode: after the anchor write if ``flushed``, else
        dropping what it pended."""
        if flushed and self._pending_nodes is not None:
            self.stats.batches += 1
            self.stats.nodes_flushed += len(self._pending_nodes)
            self.stats.last_batch_nodes = len(self._pending_nodes)
        self._pending_nodes, self._pending_main = None, None

    def snapshot_pending(self) -> tuple[dict, bytes | None]:
        """Deep-copy the pending batch state (taken at member begin)."""
        return {path: node.copy() for path, node in (self._pending_nodes or {}).items()}, self._pending_main

    def restore_pending(self, snap: tuple[dict, bytes | None]) -> None:
        """Rewind the pending batch state to a member-begin snapshot."""
        nodes, main = snap
        # Copied again: the snapshot stays good for a second rewind.
        self._pending_nodes = {path: node.copy() for path, node in nodes.items()}
        self._pending_main = main

    def pending_root(self) -> bytes:
        """The root main hash the open batch will anchor; empty if none is pending."""
        return self._pending_main or b""

    # -- hashing -------------------------------------------------------------------

    def _charge_hash(self, nbytes: int) -> None:
        self._enclave.charge(self._enclave.platform.costs.hash_time(nbytes), account="rollback")

    def _leaf_main(self, path: str, content_hash: bytes) -> bytes:
        self._charge_hash(len(path) + len(content_hash))
        return self._prf(b"leaf\x00" + path.encode("utf-8") + b"\x00" + content_hash)

    def _bucket_of(self, child_path: str) -> int:
        digest = hashlib.sha256(child_path.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") % self._buckets

    # -- node persistence --------------------------------------------------------------

    def _load_node(self, dir_path: str = ROOT):
        if self._pending_nodes and dir_path in self._pending_nodes:
            return self._pending_nodes[dir_path]
        # A copy of the cache entry's slot: what the entry's own bytes decode
        # to, whatever their age, so the slot assumes nothing about freshness.
        # A node the close wrote is there with its main.
        return self._mount.raw_read(self._node_path(dir_path), self._decode_node).copy()

    def _batch(self) -> dict:
        """The open epoch's dirty nodes; a walk outside an epoch is refused."""
        if self._pending_nodes is None:
            raise EnclaveError(f"{self._WHAT} guard walk outside a commit epoch")
        return self._pending_nodes

    def _save_node(self, dir_path: str, node) -> None:
        self._batch()[dir_path] = node

    def _write_node(self, dir_path: str, node) -> None:
        # Kept with its main in the entry's slot: the next epoch neither
        # decodes nor re-hashes it.
        self._mount.raw_write(self._node_path(dir_path), self._encode_node(node), (self._decode_node, node.copy()))
        self.stats.node_saves += 1

    def root_hash(self) -> bytes:
        """Main hash of the stored (or pending) root node."""
        return self._node_main(self._load_node(ROOT))

    # -- the root --------------------------------------------------------------------------

    def _verify_anchor(self, main: bytes) -> None:
        if self._pending_main is not None:
            # Mid-batch the authoritative root is the pending one, in enclave
            # memory, which needs no counter freshness check.
            if main != self._pending_main:
                raise RollbackDetected(f"{self._WHAT} root hash does not match the pending anchor")
            return
        self.anchor.verify(self, main)

    # -- maintenance ---------------------------------------------------------------------------

    def verify_restored_state(self) -> None:
        """Check a restored store's internal consistency (paper §V-G).

        The main hash recomputed from the stored files must match both the
        anchored root and the stored root node — one complete, untampered
        snapshot, not a mix of two.  The counter is *not* checked; the
        caller re-anchors afterwards
        (:meth:`FileSystemAnchor.accept_current_state`).
        """
        recomputed = self.recompute_main()
        if recomputed != self.anchor.read()[0][self._SLOT] or recomputed != self.root_hash():
            raise RollbackDetected(f"restored {self._WHAT} is internally inconsistent")


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
    _SLOT = FS_SLOT

    def __init__(
        self, manager: TrustedFileManager, root_key: bytes, anchor: FileSystemAnchor, buckets: int = 64
    ) -> None:
        key = derive_key(root_key, "segshare/rollback")
        super().__init__(manager.content, key, buckets, anchor)

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

    # Writes to disjoint files still meet at shared inner nodes, so each
    # node's load-modify-save runs under a serial shard keyed by its path.
    # Node *reads* on the verify path ride on the request's path locks:
    # exclusive read-side shards would serialize the disjoint-read path.

    def _node_lock(self, dir_path: str) -> AbstractContextManager[None]:
        """The serial shard guarding one inner node's load-modify-save."""
        digest = hashlib.sha256(dir_path.encode("utf-8")).digest()
        return self._locks.shard("rb-node", int.from_bytes(digest[:4], "big"))

    # -- node persistence --------------------------------------------------------------

    def _empty_node(self, dir_path: str, dir_hash: bytes) -> _Node:
        return _Node(dir_path, dir_hash, MSetXorBuckets.empty(self._prf, self._buckets))

    def _delete_node(self, dir_path: str) -> None:
        """Remove a directory's node (pending copy and persisted object)."""
        self._batch().pop(dir_path, None)
        node_path = self._node_path(dir_path)
        if self._mount.raw_exists(node_path):
            self._mount.raw_delete(node_path)

    def _node_exists(self, dir_path: str) -> bool:
        if self._pending_nodes and dir_path in self._pending_nodes:
            return True
        return self._mount.raw_exists(self._node_path(dir_path))

    def rebuild_nodes(self) -> None:
        """Rebuild the whole tree from current storage, anchoring nothing;
        epoch crash recovery's stored nodes predate the committed members."""
        self._walk_dir(ROOT, save=True)

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
            self._pending_main = new_main
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
                self._pending_main = new_main
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
        """All *present* children of ``node`` in ``bucket``: the directory
        file's entries plus each entry's ACL (the paper's Fig. 2).  A
        listed-but-missing file is skipped — a deleted one still mismatches
        its stored bucket, and a move may list a name ahead of its object.
        The bucket test comes first, so ~1/B of them are looked up."""
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
        """Validate ``path``'s freshness: per level, recompute one bucket
        from its files against the node's digest, then the root (and
        counter) against the anchor."""
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
            self._write_node(dir_path, node)
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
    _SLOT = GROUP_SLOT

    def __init__(
        self, manager: TrustedFileManager, root_key: bytes, anchor: FileSystemAnchor, buckets: int = 64
    ) -> None:
        key = derive_key(root_key, "segshare/rollback-group")
        super().__init__(manager.group, key, buckets, anchor)

    # -- node naming, encoding, main hash ----------------------------------------------

    def _node_path(self, dir_path: str) -> str:
        return self._mount.guard_prefix + "node"

    _encode_node = staticmethod(MSetXorBuckets.serialize)

    def _decode_node(self, data: bytes) -> MSetXorBuckets:
        return MSetXorBuckets.deserialize(self._prf, data)

    def _node_main(self, buckets: MSetXorBuckets) -> bytes:
        return self._prf(b"flatnode\x00" + buckets.digests())

    def _charge_hash(self, nbytes: int) -> None:
        """Never charged to the clock: charging is a benchmark-visible change."""

    # -- locks ---------------------------------------------------------------------------

    def _node_lock(self) -> AbstractContextManager[None]:
        """One inner node, so a single serial lock instead of shards."""
        return self._locks.serial("rbg-node", account="guard-shard-wait")

    # -- leaves ----------------------------------------------------------------------------

    def _leaves(self, bucket: int | None = None) -> list[str]:
        """All guarded group-store files — group list, registry, member
        lists — enumerated through the registry (hidden paths cannot be
        listed); with ``bucket``, only those in it, filtered before the
        existence check."""
        registry_path = member_list_path(USER_REGISTRY_ID)
        candidates = [GROUP_LIST_PATH, registry_path]
        if self._mount.raw_exists(registry_path):
            registry = MemberListFile.deserialize(self._mount.raw_read(registry_path))
            candidates += [member_list_path(user_id) for user_id in registry.groups]
        in_bucket = [path for path in candidates if bucket is None or self._bucket_of(path) == bucket]
        return [path for path in in_bucket if self._mount.raw_exists(path)]

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

    def rebuild_nodes(self) -> None:
        """Recompute the node from the stored group files, anchoring nothing."""
        self._write_node(ROOT, self._recompute_buckets())

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
        self._pending_main = self._node_main(buckets)

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
