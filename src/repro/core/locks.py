"""Path-granular reader–writer locks for the concurrent request pipeline.

A real multi-threaded enclave serving many clients needs locking: two
requests touching disjoint files may proceed in parallel, while requests
touching the same file — or a directory one of them is restructuring —
must serialize.  :class:`LockManager` models exactly that on *virtual
time*: acquiring a lock never blocks the (single-threaded) simulation,
it advances the acquiring request's track to the conflicting holder's
release time, charging the delay to the ``lock-wait`` clock account.
On a serial :class:`~repro.netsim.clock.SimClock` time is globally
monotonic, so no release time is ever in the future and every
acquisition is free — single-flow behaviour is unchanged.

Lock granularity follows the file-system tree:

* a **plain** lock covers one object (a file, or a directory *file* —
  the child listing — but not the children themselves);
* a **subtree** lock covers the object and everything below it, used by
  removes, moves, and ACL changes (inheritance makes an ACL change
  visible to every descendant's authorization check).

Group and membership records live under a synthetic namespace
(:data:`GROUP_NS`) so the same conflict rules cover them: file requests
take a read lock on the requesting user's member-list key, group
administration takes a write lock over the namespace.

The lock-ordering discipline for real (Python-thread) locks is: path
locks first, then leaf data-structure locks (the metadata cache's
internal mutex, a disk store's mutex) — never the reverse.  The
``lock-discipline`` seglint rule machine-checks that every store
mutation reachable from a request entry point runs under a
:class:`LockManager` acquisition.

Locks live in enclave memory only.  An enclave crash or restart clears
them (the replacement enclave builds a fresh manager); recovery of any
half-done mutation is entirely the write-ahead journal's job — see
docs/FAULTS.md.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from contextlib import AbstractContextManager, contextmanager
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.requests import Op
from repro.errors import ReproError
from repro.fsmodel import parent
from repro.netsim.clock import SimClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.requests import Request

ROOT = "/"

#: Synthetic lock namespace for the group store.  The NUL prefix keeps it
#: disjoint from any user-reachable path; the trailing "/" makes subtree
#: covering work with the same prefix rule as file paths.
GROUP_NS = "\x00grp:/"

#: Lock key for the whole quota ledger (coarse: quota mutations are rare
#: compared to reads, and per-user keys would not cover the cross-user
#: refund in ``_commit_upload``).
QUOTA_KEY = GROUP_NS + "quota"

#: Lock key for the group list / registry reads of ``exists_g``.
GROUP_LIST_KEY = GROUP_NS + "groups"


def member_key(user_id: str) -> str:
    """Lock key of one user's member list."""
    return GROUP_NS + "u/" + user_id


@dataclass(frozen=True)
class LockSpec:
    """One lock to take: a path, a mode, and a granularity."""

    path: str
    write: bool = False
    subtree: bool = False


@dataclass
class _PathLocks:
    """Release times of the four lock classes recorded at one path."""

    read_release: float = 0.0
    write_release: float = 0.0
    subtree_read_release: float = 0.0
    subtree_write_release: float = 0.0


@dataclass
class LockStats:
    """Counters exposed via ``SeGShareServer.stats()``."""

    acquisitions: int = 0
    read_locks: int = 0
    write_locks: int = 0
    contended: int = 0
    wait_seconds: float = 0.0

    def snapshot(self) -> dict:
        return asdict(self)


class LockManager:
    """Reader–writer path locks on virtual time.

    ``clock`` is the platform clock (ideally a
    :class:`~repro.netsim.clock.ParallelClock`).
    """

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        #: One small record per distinct path ever locked.  Never pruned:
        #: on a ParallelClock nothing bounds a later acquirer's ``now()``
        #: from below, so no release time is ever provably in the past.
        self._paths: dict[str, _PathLocks] = {}
        #: The same paths in sorted order — a subtree is one contiguous range.
        self._sorted: list[str] = []
        self.stats = LockStats()

    # -- conflict computation -------------------------------------------------

    def _wait_for(self, spec: LockSpec) -> float:
        """Until when must ``spec``'s acquisition wait?  0.0 if free.

        The subtree rooted at ``root`` covers ``root`` itself and every
        path that starts with ``root`` plus a ``"/"`` (unless ``root``
        already ends in one).  Only the records that rule lets conflict
        are read, so the cost follows the path's depth (and, for a
        subtree spec, the subtree's population) — not the table's size.
        """
        path, write, records = spec.path, spec.write, self._paths
        # Plain *and* subtree locks conflict when recorded inside our
        # scope: at the path itself and, for a subtree spec, below it.
        inside = [path]
        if spec.subtree:
            prefix = path if path.endswith("/") else path + "/"
            # Exactly the keys that start with `prefix`: "0" follows "/".
            inside += self._sorted[
                bisect_left(self._sorted, prefix) : bisect_left(self._sorted, prefix[:-1] + "0")
            ]
        wait = 0.0
        for inner in inside:
            rec = records.get(inner)
            if rec is not None:
                wait = max(wait, rec.write_release, rec.subtree_write_release)
                if write:
                    wait = max(wait, rec.read_release, rec.subtree_read_release)
        # From above only subtree locks conflict, and a covering root may
        # be recorded with or without its trailing slash ("" covers every
        # absolute path): two candidate roots per "/" of the path.
        cut = path.find("/")
        while cut >= 0:
            for root in (path[:cut], path[: cut + 1]):
                rec = records.get(root)
                if rec is not None:
                    wait = max(wait, rec.subtree_write_release)
                    if write:
                        wait = max(wait, rec.subtree_read_release)
            cut = path.find("/", cut + 1)
        return wait

    def _release(self, spec: LockSpec, timestamp: float) -> None:
        rec = self._paths.get(spec.path)
        if rec is None:
            rec = self._paths[spec.path] = _PathLocks()
            insort(self._sorted, spec.path)
        if spec.write:
            if spec.subtree:
                rec.subtree_write_release = max(rec.subtree_write_release, timestamp)
            else:
                rec.write_release = max(rec.write_release, timestamp)
        else:
            if spec.subtree:
                rec.subtree_read_release = max(rec.subtree_read_release, timestamp)
            else:
                rec.read_release = max(rec.read_release, timestamp)

    # -- acquisition ----------------------------------------------------------

    @contextmanager
    def acquire(self, specs: Sequence[LockSpec]) -> Iterator[None]:
        """Hold all of ``specs`` for the span of the ``with`` body.

        The whole set is taken atomically at the max of the conflicting
        release times (two-phase locking per request, which is what makes
        interleavings linearizable), and released at the body's end time.
        """
        self.stats.acquisitions += 1
        for spec in specs:
            if spec.write:
                self.stats.write_locks += 1
            else:
                self.stats.read_locks += 1
        wait = 0.0
        for spec in specs:
            wait = max(wait, self._wait_for(spec))
        now = self._clock.now()
        if wait > now:
            self.stats.contended += 1
            self.stats.wait_seconds += wait - now
            self._clock.advance_to(wait, account="lock-wait")
        try:
            yield
        finally:
            end = self._clock.now()
            for spec in specs:
                self._release(spec, end)

    def read(self, *paths: str, subtree: bool = False) -> AbstractContextManager[None]:
        return self.acquire([LockSpec(path, write=False, subtree=subtree) for path in paths])

    def write(self, *paths: str, subtree: bool = False) -> AbstractContextManager[None]:
        return self.acquire([LockSpec(path, write=True, subtree=subtree) for path in paths])

    # -- request lock plans ---------------------------------------------------

    def for_request(
        self, user_id: str, request: "Request", quota: bool = False
    ) -> AbstractContextManager[None]:
        """The lock set of one non-streaming request (see :func:`plan_for_request`)."""
        return self.acquire(plan_for_request(user_id, request, quota=quota))

    def for_upload(
        self, user_id: str, path: str, quota: bool = False, exists: bool = False
    ) -> AbstractContextManager[None]:
        """The lock set of a streaming PUT_FILE commit."""
        return self.acquire(plan_for_upload(user_id, path, quota=quota, exists=exists))

    # -- serial resources -----------------------------------------------------

    def serial(self, name: str, account: str = "serialize-wait") -> AbstractContextManager[None]:
        """An exclusive rendezvous on a named serial resource.

        Delegates to the clock's release-time table; used for the anchor
        write (with its monotonic-counter increment) and the journal's
        commit record, which serialize across all requests.
        """
        return self._clock.exclusive(name, account=account)

    def shard(self, prefix: str, bucket: int, shards: int = 16) -> AbstractContextManager[None]:
        """A sharded serial resource — rollback-guard / Merkle bucket locks."""
        return self.serial(f"{prefix}:{bucket % shards}", account="guard-shard-wait")


def _safe_parent(path: str) -> str | None:
    """``parent(path)`` or None when the path is malformed or the root.

    Lock plans run *before* per-op validation (locks must be taken before
    any state is read), so they cannot assume well-formed arguments; a
    malformed path fails validation right after, under whatever locks the
    raw string produced.
    """
    try:
        return parent(path)
    except ReproError:
        return None


def plan_for_request(user_id: str, request: "Request", quota: bool = False) -> list[LockSpec]:
    """The lock set of one request, computed from its opcode and arguments.

    The plan over-approximates where precision would not pay: any group
    administration write-locks the whole group namespace (these are rare,
    administrative operations), while the hot file path — GET/PUT on
    disjoint files — gets maximally fine-grained locks so independent
    requests overlap.
    """
    op = request.op
    args = request.args
    # Every authorization consults the requester's member list (rG).
    specs: list[LockSpec] = [LockSpec(member_key(user_id))]
    if op in (Op.GET, Op.STAT, Op.GET_ACL):
        if args:
            specs.append(LockSpec(args[0]))
    elif op is Op.PUT_DIR:
        if args:
            specs.append(LockSpec(args[0], write=True))
            target_parent = _safe_parent(args[0])
            if target_parent is not None:
                specs.append(LockSpec(target_parent, write=True))
    elif op is Op.REMOVE:
        if args:
            specs.append(LockSpec(args[0], write=True, subtree=True))
            target_parent = _safe_parent(args[0])
            if target_parent is not None:
                specs.append(LockSpec(target_parent, write=True))
        if quota:
            specs.append(LockSpec(QUOTA_KEY, write=True))
    elif op is Op.MOVE:
        for path in args[:2]:
            specs.append(LockSpec(path, write=True, subtree=True))
            target_parent = _safe_parent(path)
            if target_parent is not None:
                specs.append(LockSpec(target_parent, write=True))
    elif op in (Op.SET_PERM, Op.SET_INHERIT, Op.ADD_FILE_OWNER, Op.RMV_FILE_OWNER):
        # ACL changes propagate to descendants through inheritance, so
        # they conflict with any read below the path.
        if args:
            specs.append(LockSpec(args[0], write=True, subtree=True))
        specs.append(LockSpec(GROUP_LIST_KEY))  # exists_g
    elif op in (Op.ADD_USER, Op.RMV_USER, Op.ADD_GROUP_OWNER, Op.DELETE_GROUP):
        specs.append(LockSpec(GROUP_NS, write=True, subtree=True))
    elif op in (Op.LIST_MEMBERS, Op.MY_GROUPS):
        # Registry scans: read the whole namespace.
        specs.append(LockSpec(GROUP_NS, subtree=True))
    elif op is Op.QUOTA:
        specs.append(LockSpec(QUOTA_KEY))
    return specs


def plan_for_upload(
    user_id: str, path: str, quota: bool = False, exists: bool = False
) -> list[LockSpec]:
    """The lock set of a PUT_FILE commit: the file, its parent listing,
    the requester's member list, and (with quotas) the quota ledger.

    ``exists`` is an optimistic pre-check by the caller: overwriting a
    file never mutates the parent's child listing, so the parent is only
    *read*-locked — concurrent overwrites of siblings (or of the same
    file, serialized by the file's own write lock) no longer serialize on
    the directory.  The check is advisory — if the file vanishes between
    check and lock, the create path simply runs under a read-locked
    parent, which the simulation's arrival-order execution tolerates (a
    native server would re-check under the lock and upgrade).
    """
    specs = [LockSpec(member_key(user_id)), LockSpec(path, write=True)]
    target_parent = _safe_parent(path)
    if target_parent is not None:
        specs.append(LockSpec(target_parent, write=not exists))
    if quota:
        specs.append(LockSpec(QUOTA_KEY, write=True))
    return specs
