"""Untrusted shared-memory coherence log for the replicated cluster.

Replicas in a :mod:`repro.cluster` deployment mutate one shared
repository, so each enclave's metadata cache (dedup records included)
can go stale behind a peer's committed transaction.  The board is the
cross-replica invalidation channel that wins those caches back: a
single host-memory cell holding a monotonically increasing **epoch
counter** plus a bounded ring of **sealed invalidation entries**, one
per published commit epoch.

Everything here lives outside the enclave, like the group-commit
epoch-open bit the cluster front door already reads without an ECALL
(PR 7): the host can read, reorder, truncate, or corrupt it at will.
The security argument therefore never rests on this module — entries
are PAE-encrypted by the publishing enclave with the epoch number bound
as AAD, and :class:`repro.core.coherence.CoherenceManager` treats *any*
anomaly (missing epoch, failed authentication, counter rewind) as a cue
to fall back to a strict full cache discard.  A Byzantine board costs
cache hits, never correctness.

The ring is bounded (:data:`DEFAULT_CAPACITY` entries): when a
publisher evicts the oldest entry, a replica lagging past it observes a
gap and full-discards, exactly as if the host had torn the log.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict

#: Entries retained before the oldest is evicted.  Large enough that a
#: replica only falls off the tail when it idles through hundreds of
#: peer commits — at which point a full discard costs little extra.
DEFAULT_CAPACITY = 256


class CoherenceBoard:
    """Host-memory epoch counter + bounded ring of sealed entries.

    ``epoch`` is the number of the newest published entry; epoch 0 means
    "nothing published yet".  :meth:`place` only accepts ``epoch + 1``,
    so concurrent publishers race on a compare-and-swap and the loser
    re-seals against the new epoch — the counter never skips and never
    rewinds (a *well-behaved* host; enclaves verify regardless).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("coherence board capacity must be >= 1")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._epoch = 0
        self._entries: "OrderedDict[int, bytes]" = OrderedDict()
        self._publishes = 0
        self._resets = 0
        self._evictions = 0

    @property
    def epoch(self) -> int:
        """Current epoch — the cheap check replicas poll before serving."""
        return self._epoch

    def place(self, epoch: int, blob: bytes, reset: bool = False) -> bool:
        """Publish ``blob`` as entry ``epoch``; return ``False`` on a race.

        Only ``epoch == self.epoch + 1`` is accepted, so a publisher that
        lost the race re-reads :attr:`epoch` and re-seals (the AAD binds
        the epoch number, so the blob cannot simply be renumbered).  A
        ``reset`` entry supersedes everything before it: the queued tail
        is dropped, forcing lagging readers onto the full-discard path.
        """
        with self._lock:
            if epoch != self._epoch + 1:
                return False
            if reset:
                self._entries.clear()
                self._resets += 1
            self._entries[epoch] = blob
            self._epoch = epoch
            self._publishes += 1
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            return True

    def entry(self, epoch: int) -> bytes | None:
        """The sealed blob published at ``epoch``, or ``None`` if evicted."""
        with self._lock:
            return self._entries.get(epoch)

    def snapshot(self) -> Dict[str, int]:
        """Host-side counters for stats surfacing and benchmarks."""
        with self._lock:
            return {
                "epoch": self._epoch,
                "entries": len(self._entries),
                "capacity": self._capacity,
                "publishes": self._publishes,
                "resets": self._resets,
                "evictions": self._evictions,
            }


__all__ = ["CoherenceBoard", "DEFAULT_CAPACITY"]
